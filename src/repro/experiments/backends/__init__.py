"""Sweep-execution backends.

``run_sweep`` resolves caching and grid order; a backend turns pending
points into outcome dicts behind the :class:`ExecutionBackend`
``submit / poll / shutdown`` seam:

- :class:`SerialBackend` -- inline, in-process (the reference path);
- :class:`ProcessPoolBackend` -- local ``multiprocessing`` pool whose
  workers fork from a preloaded ``forkserver`` (``spawn`` where that is
  the platform's own default), with worker recycling, out-of-order
  collection and dead-worker detection.
"""

from __future__ import annotations

import os

from repro.experiments.backends.base import ExecutionBackend, execute_point
from repro.experiments.backends.pool import ProcessPoolBackend
from repro.experiments.backends.serial import SerialBackend

#: CLI-facing backend names.
BACKEND_NAMES = ("serial", "pool")


def resolve_backend(
    spec: str | None,
    *,
    workers: int = 1,
    n_tasks: int = 1,
    scenario_modules: tuple[str, ...] = (),
    trace_dir: str | os.PathLike | None = None,
) -> ExecutionBackend:
    """Build a sweep's backend from a CLI-style name, with what its points
    share: the scenario modules a worker re-imports and the trace directory.

    ``None`` picks a pool for more than one worker, else serial.  Pool size
    never exceeds the task count (nor falls below one).
    """
    if spec is None:
        spec = "pool" if workers > 1 else "serial"
    if spec == "serial":
        return SerialBackend(scenario_modules, trace_dir)
    if spec == "pool":
        return ProcessPoolBackend(min(workers, n_tasks), scenario_modules, trace_dir)
    raise ValueError(f"unknown backend {spec!r}; known: {BACKEND_NAMES}")


__all__ = [
    "BACKEND_NAMES",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "execute_point",
    "resolve_backend",
]
