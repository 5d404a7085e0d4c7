"""In-process backend: run one queued point per poll.

The reference backend -- no processes, deterministic order.  ``submit``
queues a point and each ``poll`` runs the next one, so the runner's
collection loop reports every point as soon as it is done.  Because it
runs :func:`~repro.experiments.backends.base.execute_point` directly, a
serial sweep is bit-identical to a pool one.
"""

from __future__ import annotations

import os
from collections import deque

from repro.experiments.backends.base import ExecutionBackend, execute_point
from repro.experiments.sweep import SweepPoint


class SerialBackend(ExecutionBackend):
    """Run points inline, one per poll, in submission order."""

    def __init__(
        self, scenario_modules: tuple[str, ...], trace_dir: str | os.PathLike | None
    ) -> None:
        self._scenario_modules = scenario_modules
        self._trace_dir = trace_dir
        self._queued: deque[SweepPoint] = deque()

    def submit(self, point: SweepPoint) -> None:
        """Queue the point; a later poll runs it."""
        self._queued.append(point)

    def poll(self) -> list[tuple[SweepPoint, dict]]:
        """Run the next queued point inline and hand it back (nothing when
        the queue is empty)."""
        if not self._queued:
            return []
        point = self._queued.popleft()
        outcome = execute_point(
            point.scenario, point.params, point.seed, self._scenario_modules, self._trace_dir
        )
        return [(point, outcome)]

    def shutdown(self) -> None:
        """Drop the points still queued (nothing else to release)."""
        self._queued.clear()
