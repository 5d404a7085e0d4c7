"""Local process-pool backend.

Start-up: where multiprocessing's own platform default is not ``spawn``
(Linux), workers come from a ``forkserver`` that has already imported
this module and the built-in scenario modules (:data:`PRELOAD`).  Every
worker -- the first ones, those that replace a worker recycled after
:data:`MAX_TASKS_PER_CHILD` tasks, and those of later sweeps in the same
process -- is then a cheap fork of a loaded interpreter instead of a
fresh one that re-imports networkx, numpy and the registry, and it ends
with ``os._exit`` instead of a full interpreter finalisation.  The
server holds only imported modules, no parent state; it lives as long as
the process and is stopped and reaped at exit.  On macOS and Windows,
where CPython itself defaults to ``spawn``, so does the pool.  Under every
start method scenario modules are shipped by name and re-imported, and
each task carries the sweep's trace directory as an argument.

Workers are recycled after :data:`MAX_TASKS_PER_CHILD` tasks, and completed
futures are collected as they finish -- not in grid order -- so one slow
point never holds back the points behind it.  An interrupted sweep
(Ctrl-C) still shuts the backend down, and shutdown terminates a pool
that has points outstanding rather than joining it, so the interrupt
reaches the caller without waiting for the points in flight.

A worker that dies mid-task (SIGKILL, the OOM killer, a segfault in an
extension) takes its task's result with it: ``multiprocessing.Pool``
replaces the worker but never resolves the lost task.  So each worker
reports ``(index, pid)`` on a queue when it starts a task and
``(index, None)`` when it finishes, and :meth:`ProcessPoolBackend.poll`
turns a task that started, did not finish, and whose worker is gone into
an ``error`` outcome; shutdown then terminates the pool rather than
joining it, since the pool would wait for that task forever.
"""

from __future__ import annotations

import multiprocessing
import os
import site
import traceback
from multiprocessing import util

import repro
from repro.experiments.backends.base import ExecutionBackend, execute_point
from repro.experiments.registry import BUILTIN_SCENARIO_MODULES
from repro.experiments.sweep import SweepPoint

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


def _run_task(index: int, *args) -> dict:
    """Pool-side wrapper: ``execute_point`` between a start and a finish report.

    No ``finally``: a task that ends its worker (``sys.exit`` in a
    scenario) must look unfinished, or nothing would ever resolve it.
    """
    _events.put((index, os.getpid()))
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
    """Fan points out to a local ``multiprocessing.Pool``."""

    def __init__(
        self,
        workers: int,
        scenario_modules: tuple[str, ...],
        trace_dir: str | os.PathLike | None,
    ) -> None:
        self._scenario_modules = scenario_modules
        self._trace_dir = trace_dir
        ctx = multiprocessing.get_context(DEFAULT_START_METHOD)
        if DEFAULT_START_METHOD == "forkserver":
            _ensure_forkserver()
        self._events = ctx.SimpleQueue()
        self._pool = ctx.Pool(
            processes=max(workers, 1),
            initializer=_init_worker,
            initargs=(self._events,),
            maxtasksperchild=MAX_TASKS_PER_CHILD,
        )
        #: Outstanding points and their pool results, by point index.
        self._pending: dict[int, tuple[SweepPoint, multiprocessing.pool.AsyncResult]] = {}
        #: Points a worker reported starting and not yet finishing -> its pid.
        self._running: dict[int, int] = {}
        self._abandoned = False

    def submit(self, point: SweepPoint) -> None:
        """Dispatch the point to the pool."""
        args = (point.scenario, point.params, point.seed, self._scenario_modules, self._trace_dir)
        result = self._pool.apply_async(_run_task, (point.index, *args))
        self._pending[point.index] = (point, result)

    def poll(self) -> list[tuple[SweepPoint, dict]]:
        """Collect ready results and points whose worker died."""
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
        batch: list[tuple[SweepPoint, dict]] = []
        for idx, (point, result) in list(self._pending.items()):
            if not result.ready():
                continue
            del self._pending[idx]
            try:
                outcome = result.get()
            except Exception:
                # The task raised past execute_point or its result could
                # not be shipped back: capture, don't lose the rest of the
                # sweep's bookkeeping.
                outcome = {"status": "error", "error": traceback.format_exc(), "duration_s": 0.0}
            batch.append((point, outcome))
        for idx, pid in dead.items():
            if self._running.pop(idx, None) is None or idx not in self._pending:
                continue  # finished after all
            # The pool never resolves a task whose worker died: give up on it.
            self._abandoned = True
            point, _ = self._pending.pop(idx)
            error = f"pool worker {pid} died without reporting a result"
            batch.append((point, {"status": "error", "error": error, "duration_s": 0.0}))
        return batch

    def shutdown(self) -> None:
        """Close the pool (terminate it instead when a worker died or a point
        is still outstanding)."""
        if self._abandoned or self._pending:
            # A task no worker will ever resolve would make close()+join()
            # block forever.  Outstanding points' results would never be
            # read, and their workers' reports could fill the undrained
            # event pipe and block them.
            self._pool.terminate()
        else:
            self._pool.close()
        self._pool.join()
        self._events.close()
