"""Local process-pool backend.

Start-up: where multiprocessing's own platform default is not ``spawn``
(Linux), workers come from a ``forkserver`` that has already imported
this module and the built-in scenario modules (:data:`PRELOAD`).  Every
worker -- the first ones, those that replace a worker recycled after
:data:`MAX_TASKS_PER_CHILD` tasks, and those of later sweeps in the same
process -- is then a cheap fork of a loaded interpreter instead of a
fresh one that re-imports networkx, numpy and the registry, and it ends
with ``os._exit`` instead of a full interpreter finalisation.  The server holds only imported modules, no parent state;
it lives as long as the process and is stopped and reaped at exit.  On
macOS and Windows, where CPython itself defaults to ``spawn``, so does
the pool.  Under every start method scenario modules are shipped by name
and re-imported, and a task carries the submitting process's trace
directory: a forkserver child inherits the server's environment from
when the server started, not the parent's current one.

Workers are recycled after :data:`MAX_TASKS_PER_CHILD` tasks, and completed
futures are collected as they finish -- not in grid order -- so one slow
point never delays timeout detection for the points behind it.

Per-task deadlines approximate "timeout from actual start": at most
``workers`` tasks hold a deadline at once; a new one is armed (in submit
order) whenever a slot resolves.  A task that outlives its deadline is
reported as a ``timeout`` outcome and its worker is abandoned -- shutdown
then terminates the pool rather than joining it, so the sweep returns.

A worker that dies mid-task (SIGKILL, the OOM killer, a segfault in an
extension) takes its task's result with it: ``multiprocessing.Pool``
replaces the worker but never resolves the lost task.  So each worker
reports ``(index, pid)`` on a queue when it starts a task and
``(index, None)`` when it finishes, and :meth:`ProcessPoolBackend.poll`
turns a task that started, did not finish, and whose worker is gone into
an ``error`` outcome.
"""

from __future__ import annotations

import multiprocessing
import os
import site
import time
import traceback
from multiprocessing import util

import repro
from repro.experiments.backends.base import ExecutionBackend, Task, execute_point
from repro.experiments.registry import BUILTIN_SCENARIO_MODULES
from repro.obs.trace import TRACE_DIR_ENV

#: The start method of every pool: ``forkserver`` where multiprocessing's
#: own platform default is not ``spawn`` (Linux), else ``spawn`` (macOS,
#: Windows).  Read when a pool is built.
DEFAULT_START_METHOD = (
    "spawn" if multiprocessing.get_all_start_methods()[0] == "spawn" else "forkserver"
)

#: Tasks a worker runs before the pool replaces it, so a long sweep cannot
#: accumulate per-worker state.  Read when a pool is built.
MAX_TASKS_PER_CHILD = 16

#: Modules the forkserver imports before it forks its first worker.
PRELOAD = ("repro.experiments.backends.pool", *BUILTIN_SCENARIO_MODULES)

#: The directory ``repro`` was imported from.
_IMPORT_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Stops and reaps the forkserver at interpreter exit, once registered.
_stop_server = None

#: Worker side: where this worker reports task starts and finishes (set by
#: the pool initializer).
_events = None


def _ensure_forkserver() -> None:
    """Start the forkserver with :data:`PRELOAD` imported, unless it runs.

    Python 3.10-3.13's forkserver ignores the ``sys.path`` it is handed and
    swallows ``ImportError`` from its preload list, so a parent that put
    ``src/`` on ``sys.path`` at run time would get a server that silently
    preloads nothing.  The server therefore starts with the directory
    ``repro`` came from on its ``PYTHONPATH`` (unless that is a site
    directory, which a fresh interpreter searches anyway and which must not
    move ahead of the standard library).

    The server is stopped and reaped by a ``multiprocessing`` finalizer
    with a negative priority: it runs after multiprocessing has terminated
    any pool left open at exit.  A plain ``atexit`` hook would run before
    that and block, since the workers of such a pool hold the server's
    alive pipe.
    """
    global _stop_server
    from multiprocessing import forkserver  # POSIX only, so imported on use

    forkserver.set_forkserver_preload(list(PRELOAD))
    saved = os.environ.get("PYTHONPATH")
    if _IMPORT_ROOT not in (*site.getsitepackages(), site.getusersitepackages()):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_IMPORT_ROOT, saved) if p)
    try:
        forkserver.ensure_running()
    finally:
        if saved is None:
            os.environ.pop("PYTHONPATH", None)
        else:
            os.environ["PYTHONPATH"] = saved
    if _stop_server is None:
        stop = getattr(forkserver._forkserver, "_stop", None)
        if stop is not None:
            _stop_server = util.Finalize(None, stop, exitpriority=-1)


def _init_worker(events) -> None:
    global _events
    _events = events


def _run_task(index: int, trace_dir: str | None, *args) -> dict:
    """Pool-side wrapper: ``execute_point`` between a start and a finish report.

    ``trace_dir`` is the submitting process's ``REPRO_TRACE_DIR`` (or
    ``None``); the worker sets or clears its own copy to match before it
    runs the point.

    No ``finally``: a task that ends its worker (``sys.exit`` in a
    scenario) must look unfinished, or nothing would ever resolve it.
    """
    _events.put((index, os.getpid()))
    if trace_dir is None:
        os.environ.pop(TRACE_DIR_ENV, None)
    else:
        os.environ[TRACE_DIR_ENV] = trace_dir
    outcome = execute_point(*args)
    _events.put((index, None))
    return outcome


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class ProcessPoolBackend(ExecutionBackend):
    """Fan tasks out to a local ``multiprocessing.Pool``."""

    name = "pool"

    def __init__(self, workers: int = 2) -> None:
        self.workers = max(workers, 1)
        ctx = multiprocessing.get_context(DEFAULT_START_METHOD)
        if DEFAULT_START_METHOD == "forkserver":
            _ensure_forkserver()
        self._events = ctx.SimpleQueue()
        self._pool = ctx.Pool(
            processes=self.workers,
            initializer=_init_worker,
            initargs=(self._events,),
            maxtasksperchild=MAX_TASKS_PER_CHILD,
        )
        self._tasks: dict[int, Task] = {}
        self._asyncs: dict[int, multiprocessing.pool.AsyncResult] = {}
        #: Tasks a worker reported starting and not yet finishing -> its pid.
        self._running: dict[int, int] = {}
        self._submit_order: list[int] = []
        self._deadlines: dict[int, float] = {}
        self._abandoned = False
        self._any_timeout = False

    def submit(self, task: Task) -> None:
        """Dispatch the task to the pool and arm its deadline if it has one."""
        point = task.point
        self._tasks[task.index] = task
        self._submit_order.append(task.index)
        self.trace.task("dispatched", task.index, backend=self.name)
        self._asyncs[task.index] = self._pool.apply_async(
            _run_task,
            (
                task.index,
                os.environ.get(TRACE_DIR_ENV),
                point.scenario,
                point.params,
                point.seed,
                task.scenario_modules,
            ),
        )
        if task.timeout is not None:
            self._any_timeout = True
        self._rearm_deadlines()

    def _rearm_deadlines(self) -> None:
        if not self._any_timeout:
            return
        # Drop already-finished indices so long sweeps stay O(outstanding).
        if len(self._submit_order) > 2 * len(self._tasks) + 16:
            self._submit_order = [i for i in self._submit_order if i in self._tasks]
        armed = sum(1 for idx in self._deadlines if idx in self._tasks)
        for idx in self._submit_order:
            if armed >= self.workers:
                break
            task = self._tasks.get(idx)
            if task is None or task.timeout is None or idx in self._deadlines:
                continue
            self._deadlines[idx] = time.monotonic() + task.timeout
            armed += 1

    def poll(self) -> list[tuple[Task, dict]]:
        """Collect ready results, tasks whose worker died, and tasks past
        their deadline."""
        # Liveness before draining: a worker that exited right after its
        # last task (recycled by the pool) sent that task's finish report
        # first, so the drain below still sees it.
        dead = {idx: pid for idx, pid in self._running.items() if not _pid_alive(pid)}
        while not self._events.empty():
            idx, pid = self._events.get()
            if pid is None:
                self._running.pop(idx, None)
            else:
                self._running[idx] = pid
        batch: list[tuple[Task, dict]] = []
        for idx in list(self._tasks):
            if not self._asyncs[idx].ready():
                continue
            task = self._tasks.pop(idx)
            try:
                outcome = self._asyncs.pop(idx).get()
            except Exception:
                # The task raised past execute_point or its result could
                # not be shipped back: capture, don't lose the rest of the
                # sweep's bookkeeping.
                outcome = {
                    "status": "error",
                    "error": traceback.format_exc(),
                    "duration_s": 0.0,
                }
            batch.append((task, outcome))
        for idx, pid in dead.items():
            if self._running.pop(idx, None) is None or idx not in self._tasks:
                continue  # finished after all, or already timed out
            self.trace.event("pool_worker_died", index=idx, pid=pid)
            error = f"pool worker {pid} died without reporting a result"
            batch.append(self._abandon(idx, "error", error, 0.0))
        now = time.monotonic()
        for idx in list(self._tasks):
            deadline = self._deadlines.get(idx)
            if deadline is not None and now > deadline:
                timeout = self._tasks[idx].timeout
                self.trace.event("pool_timeout", index=idx, timeout_s=timeout)
                batch.append(self._abandon(idx, "timeout", f"task exceeded {timeout}s", timeout))
        if batch:
            self._rearm_deadlines()
        return batch

    def _abandon(self, idx: int, status: str, error: str, duration_s: float) -> tuple[Task, dict]:
        """Give up on a task the pool will not resolve: its worker died (the
        pool never resolves such a task) or it overran its deadline."""
        self._abandoned = True
        self._asyncs.pop(idx)
        task = self._tasks.pop(idx)
        return task, {"status": status, "error": error, "duration_s": float(duration_s)}

    def shutdown(self) -> None:
        """Close the pool (terminate instead when a task was abandoned or
        is still outstanding)."""
        if self._abandoned or self._tasks:
            # A hung worker, or a task no worker will ever resolve, would
            # make close()+join() block forever.  Outstanding tasks' results
            # would never be read, and their workers' reports could fill
            # the undrained event pipe and block them.
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()
        self._events.close()
