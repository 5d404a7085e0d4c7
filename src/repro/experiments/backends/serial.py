"""In-process backend: execute each task inline at submit time.

The reference backend -- no processes, no timeouts, deterministic order.
Because it runs :func:`~repro.experiments.backends.base.execute_point`
directly, a serial sweep is bit-identical to a pool one.
"""

from __future__ import annotations

from repro.experiments.backends.base import ExecutionBackend, Task, execute_point


class SerialBackend(ExecutionBackend):
    """Run tasks inline, one at a time, in submission order."""

    name = "serial"
    synchronous = True

    def __init__(self) -> None:
        self._done: list[tuple[Task, dict]] = []

    def submit(self, task: Task) -> None:
        """Execute the task inline, right now (timeouts are unsupported)."""
        if task.timeout is not None:
            raise ValueError(
                "SerialBackend cannot enforce a per-task timeout on in-process "
                "execution; use the pool backend"
            )
        self.trace.task("running", task.index, backend=self.name)
        outcome = execute_point(
            task.point.scenario, task.point.params, task.point.seed, task.scenario_modules
        )
        self._done.append((task, outcome))

    def poll(self) -> list[tuple[Task, dict]]:
        """Hand back everything submit() already finished."""
        batch, self._done = self._done, []
        return batch

    def shutdown(self) -> None:
        """Drop any uncollected outcomes (nothing else to release)."""
        self._done.clear()
