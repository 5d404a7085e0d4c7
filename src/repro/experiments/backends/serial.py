"""In-process backend: execute each point inline at submit time.

The reference backend -- no processes, deterministic order.  Because it
runs :func:`~repro.experiments.backends.base.execute_point` directly, a
serial sweep is bit-identical to a pool one.
"""

from __future__ import annotations

import os

from repro.experiments.backends.base import ExecutionBackend, execute_point
from repro.experiments.sweep import SweepPoint


class SerialBackend(ExecutionBackend):
    """Run points inline, one at a time, in submission order."""

    name = "serial"
    synchronous = True

    def __init__(
        self, scenario_modules: tuple[str, ...], trace_dir: str | os.PathLike | None
    ) -> None:
        self._scenario_modules = scenario_modules
        self._trace_dir = trace_dir
        self._done: list[tuple[SweepPoint, dict]] = []

    def submit(self, point: SweepPoint) -> None:
        """Execute the point inline, right now."""
        self.trace.task("running", point.index, backend=self.name)
        outcome = execute_point(
            point.scenario, point.params, point.seed, self._scenario_modules, self._trace_dir
        )
        self._done.append((point, outcome))

    def poll(self) -> list[tuple[SweepPoint, dict]]:
        """Hand back everything submit() already finished."""
        batch, self._done = self._done, []
        return batch

    def shutdown(self) -> None:
        """Drop any uncollected outcomes (nothing else to release)."""
        self._done.clear()
