"""Execution backends: cross-backend equivalence, pool crash and interrupt
handling, result integrity, the per-point collector scope.

Scenario registrations below are shipped to pool workers by module name
(``tests.test_backends``), exactly like user scenarios are.
"""

import gc
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest

import repro
from repro.experiments import (
    ParamSpec,
    ResultStore,
    expand_grid,
    get_scenario,
    run_sweep,
    scenario,
)
from repro.experiments.backends import (
    ProcessPoolBackend,
    SerialBackend,
    execute_point,
    resolve_backend,
)
from repro.experiments.backends import pool as pool_backend
from repro.experiments.backends.base import POINT_GC_THRESHOLD
from repro.experiments.cli import main as cli_main
from repro.experiments.store import ResultRecord
from repro.obs.trace import read_trace, summarize_trace, task_trace_path

_SRC = Path(repro.__file__).resolve().parents[1]
_ROOT = _SRC.parent
#: Subprocesses must import both `repro` and this test module.
_SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        p for p in (str(_SRC), str(_ROOT), os.environ.get("PYTHONPATH", "")) if p
    ),
}


@scenario("bk-echo", params=[ParamSpec("x", int, 1)], default_grid={"x": [1, 2, 3]})
def _bk_echo(*, seed, x):
    return {"x": x, "seed_mod": seed % 1000, "squared": x * x}


@scenario("bk-sleepy", params=[ParamSpec("delay", float, 5.0)])
def _bk_sleepy(*, seed, delay):
    time.sleep(delay)
    return {"slept": delay}


@scenario("bk-crash", params=[ParamSpec("x", int, 1)])
def _bk_crash(*, seed, x):
    os.kill(os.getpid(), signal.SIGKILL)
    return {"unreachable": True}  # pragma: no cover


@scenario("bk-exit", params=[ParamSpec("x", int, 1)])
def _bk_exit(*, seed, x):
    sys.exit(3)


@scenario("bk-unjson", params=[ParamSpec("x", int, 1)])
def _bk_unjson(*, seed, x):
    return {"x": x, "bad": object()}


@scenario("bk-raise", params=[ParamSpec("x", int, 1)])
def _bk_raise(*, seed, x):
    raise ValueError("bk-raise always fails")


@scenario("bk-interrupt", params=[ParamSpec("x", int, 1)])
def _bk_interrupt(*, seed, x):
    raise KeyboardInterrupt


@scenario("bk-gc-view", params=[ParamSpec("x", int, 1)])
def _bk_gc_view(*, seed, x):
    return {"frozen": gc.get_freeze_count(), "threshold": list(gc.get_threshold())}


class _Node:
    pass


#: Seeds of the ``bk-cycle`` points whose dropped cycle has been freed.
_FREED: list[int] = []


@scenario("bk-cycle", params=[ParamSpec("x", int, 1)])
def _bk_cycle(*, seed, x):
    node = _Node()
    node.me = node  # only the cyclic collector frees this
    weakref.finalize(node, _FREED.append, seed)
    return {"x": x}


def _comparable(record) -> dict:
    data = asdict(record)
    data.pop("duration_s")
    return data


class TestCrossBackendEquivalence:
    def test_same_sweep_identical_records_across_backends(self, monkeypatch):
        """Acceptance: serial and pool produce field-identical records
        (modulo duration_s)."""
        monkeypatch.setattr(pool_backend, "DEFAULT_START_METHOD", "fork")
        points = expand_grid(get_scenario("bk-echo"), {"x": [1, 2, 3, 4]})
        serial = run_sweep(points, store=None, backend="serial")
        pool = run_sweep(points, store=None, backend="pool", workers=2)
        assert serial.ok and pool.ok
        serial_records = [_comparable(r) for r in serial.records]
        assert [_comparable(r) for r in pool.records] == serial_records

    def test_default_backend_follows_the_worker_count(self):
        """``None`` (the CLI default) picks serial for one worker and a
        pool for more."""
        assert isinstance(resolve_backend(None, workers=1, n_tasks=4), SerialBackend)
        backend = resolve_backend(None, workers=2, n_tasks=4)
        try:
            assert isinstance(backend, ProcessPoolBackend)
        finally:
            backend.shutdown()
        for spec in ("auto", "bogus"):
            with pytest.raises(ValueError, match="unknown backend"):
                resolve_backend(spec)


#: Runs one pool sweep and prints what came back.  A backend that never
#: resolves a lost task hangs, so tests run this under a timeout.
_POOL_SWEEP = """
import json, sys
from repro.experiments import expand_grid, get_scenario, run_sweep
from repro.experiments.backends import pool
import tests.test_backends

args = json.loads(sys.argv[1])
pool.DEFAULT_START_METHOD = args["start_method"]
pool.MAX_TASKS_PER_CHILD = args.get("max_tasks_per_child", pool.MAX_TASKS_PER_CHILD)
report = run_sweep(
    expand_grid(get_scenario(args["scenario"]), args["grid"]),
    store=None,
    backend="pool",
    workers=args["workers"],
)
print(json.dumps([[r.status, r.error] for r in report.records]))
"""


def _run_python(code: str, *argv: str, cwd=_ROOT, env=_SUBPROCESS_ENV) -> str:
    """Stdout of ``code`` run in a fresh interpreter that must exit 0 within
    60 s."""
    out = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def _bounded_pool_sweep(**args) -> list[list]:
    return json.loads(_run_python(_POOL_SWEEP, json.dumps(args)).splitlines()[-1])


class TestPoolWorkerCrash:
    @pytest.mark.parametrize("start_method", ["fork", "spawn", "forkserver"])
    def test_worker_crash_mid_task_becomes_error_record(self, start_method):
        """A worker SIGKILLed mid-task becomes an `error` record; the
        sweep neither hangs nor waits for a timeout.  (A forkserver worker
        is the server's child: the server reaps it, not this process.)"""
        records = _bounded_pool_sweep(
            scenario="bk-crash", grid={"x": [1, 2]}, workers=2, start_method=start_method
        )
        assert len(records) == 2
        for status, error in records:
            assert status == "error"
            assert "died without reporting" in error

    def test_worker_exit_mid_task_becomes_error_record(self):
        """``sys.exit`` in a scenario ends the worker past ``execute_point``;
        the task never reports a finish, so it is caught like a crash."""
        records = _bounded_pool_sweep(
            scenario="bk-exit", grid={"x": [1]}, workers=1, start_method="fork"
        )
        assert records[0][0] == "error"
        assert "died without reporting" in records[0][1]

    def test_recycled_workers_are_not_mistaken_for_crashes(self):
        """Stress: more workers than cores, each recycled after every task;
        crash detection must take none of those exits for a crash."""
        records = _bounded_pool_sweep(
            scenario="bk-echo",
            grid={"x": list(range(12))},
            workers=4,
            start_method="fork",
            max_tasks_per_child=1,
        )
        assert [status for status, _ in records] == ["ok"] * 12

    def test_worker_reports_start_and_finish(self, monkeypatch):
        """The finish report goes out before the result, so a worker that
        exits while its result is still in transit is not a crash."""
        reports = []
        monkeypatch.setattr(pool_backend, "_events", SimpleNamespace(put=reports.append))
        point = expand_grid(get_scenario("bk-echo"), {"x": [1]})[0]
        outcome = pool_backend._run_task(point.index, point.scenario, point.params, point.seed)
        assert outcome["status"] == "ok"
        assert reports == [(point.index, os.getpid()), (point.index, None)]

    def test_task_writes_its_trace_where_its_arguments_say(self, monkeypatch, tmp_path):
        """A task writes its trace into the directory its arguments name,
        and none without one, whatever the worker's environment holds."""
        monkeypatch.setattr(pool_backend, "_events", SimpleNamespace(put=lambda _report: None))
        point = expand_grid(get_scenario("bk-echo"), {"x": [1]})[0]
        args = (point.scenario, point.params, point.seed, ())
        stale, wanted = tmp_path / "stale", tmp_path / "wanted"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(stale))
        assert pool_backend._run_task(point.index, *args, None)["status"] == "ok"
        assert pool_backend._run_task(point.index, *args, str(wanted))["status"] == "ok"
        assert not stale.exists()
        assert len(list(wanted.glob("task-*.jsonl"))) == 1

    def test_finish_report_racing_the_worker_exit_is_not_a_crash(self, monkeypatch):
        """poll() checks liveness before it drains the reports, so a worker
        that reports a finish and exits in between (a recycled worker) is
        never taken for a crash."""
        monkeypatch.setattr(pool_backend, "DEFAULT_START_METHOD", "fork")
        backend = ProcessPoolBackend(1, ("tests.test_backends",), None)
        try:
            point = expand_grid(get_scenario("bk-sleepy"), {"delay": [30.0]})[0]
            backend.submit(point)
            deadline = time.monotonic() + 30
            while not backend._running:  # wait for the start report
                assert backend.poll() == []
                assert time.monotonic() < deadline
                time.sleep(0.01)

            def finish_then_exit(pid):
                backend._events.put((point.index, None))
                return False

            monkeypatch.setattr(pool_backend, "_pid_alive", finish_then_exit)
            assert backend.poll() == []
        finally:
            backend.shutdown()

    def test_shutdown_abandons_outstanding_tasks(self, monkeypatch):
        """Nobody reads an outstanding task's result after shutdown, so the
        pool is terminated rather than joined behind it."""
        monkeypatch.setattr(pool_backend, "DEFAULT_START_METHOD", "fork")
        backend = ProcessPoolBackend(1, ("tests.test_backends",), None)
        point = expand_grid(get_scenario("bk-sleepy"), {"delay": [30.0]})[0]
        backend.submit(point)
        start = time.monotonic()
        backend.shutdown()
        assert time.monotonic() - start < 10

    def test_interrupt_stops_a_hung_pool_sweep(self, monkeypatch):
        """Ctrl-C is how a hung sweep ends: the interrupt propagates out of
        ``run_sweep`` at once, and the shutdown on its way out terminates
        the pool, so no worker outlives the sweep."""
        monkeypatch.setattr(pool_backend, "DEFAULT_START_METHOD", "fork")
        real_poll = ProcessPoolBackend.poll
        workers = []

        def interrupted_poll(self):
            batch = real_poll(self)
            if self._running:  # the worker reported its start
                workers.extend(self._pool._pool)
                raise KeyboardInterrupt
            return batch

        monkeypatch.setattr(ProcessPoolBackend, "poll", interrupted_poll)
        points = expand_grid(get_scenario("bk-sleepy"), {"delay": [30.0]})
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_sweep(points, store=None, backend="pool", workers=1)
        assert time.monotonic() - start < 10
        assert workers
        assert not set(workers) & set(multiprocessing.active_children())
        assert not any(worker.is_alive() for worker in workers)


#: Puts ``src/`` on ``sys.path`` at run time, as ``perfbench/run.py`` does,
#: and asks a forkserver pool worker whether the scenarios were loaded
#: before it ran anything.  The probe module imports nothing from ``repro``.
_PRELOAD_PROBE = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import probe
from repro.experiments.backends import ProcessPoolBackend, pool

pool.DEFAULT_START_METHOD = "forkserver"
backend = ProcessPoolBackend(1, (), None)
try:
    print(backend._pool.apply(probe.loaded, ("repro.experiments.scenarios",)))
finally:
    backend.shutdown()
"""

#: Builds a pool, never shuts it down, and exits.  ``report`` is registered
#: before ``multiprocessing`` is imported, so it runs after multiprocessing's
#: own exit handler and sees what that left behind.
_LEAKED_POOL = """
import atexit, json, os

def report():
    try:
        os.waitpid(server, os.WNOHANG)
        reaped = False
    except ChildProcessError:
        reaped = True
    alive = []
    for pid in workers:
        try:
            os.kill(pid, 0)
            alive.append(pid)
        except ProcessLookupError:
            pass
    print(json.dumps({"server_reaped": reaped, "workers_alive": alive}), flush=True)

atexit.register(report)

from multiprocessing import forkserver
from repro.experiments.backends import resolve_backend

backend = resolve_backend("pool", workers=2, n_tasks=2)
server = forkserver._forkserver._forkserver_pid
workers = [p.pid for p in backend._pool._pool]
"""


class TestPoolStartUp:
    @pytest.mark.parametrize("start_method", ["forkserver", "spawn", "fork"])
    def test_trace_dir_travels_with_each_task(self, start_method, monkeypatch, tmp_path):
        """An untraced pool sweep, then a traced one, in one process: the
        traced one writes one task trace per point into its ``trace_dir``,
        and neither reads the workers' environment (a forkserver worker
        inherits the server's, from when the server started)."""
        monkeypatch.setattr(pool_backend, "DEFAULT_START_METHOD", start_method)
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "environment"))
        points = expand_grid(get_scenario("bk-echo"), {"x": [1, 2, 3]})
        traces = tmp_path / "traces"
        assert run_sweep(points, store=None, backend="pool", workers=2).ok
        assert run_sweep(points, store=None, backend="pool", workers=2, trace_dir=traces).ok
        assert len(list(traces.glob("task-*.jsonl"))) == len(points)
        assert not (tmp_path / "environment").exists()

    def test_cli_trace_reaches_pool_workers(self, monkeypatch, tmp_path):
        """``run --trace DIR`` on the pool writes one task trace per point
        into DIR and nothing else, and nothing where the environment
        points."""
        monkeypatch.setattr(pool_backend, "DEFAULT_START_METHOD", "fork")
        elsewhere, traces = tmp_path / "elsewhere", tmp_path / "traces"
        monkeypatch.setenv("REPRO_TRACE_DIR", str(elsewhere))
        points = expand_grid(get_scenario("bk-echo"), {"x": [1, 2, 3]})
        argv = ["run", "bk-echo", "--set", "x=1,2,3", "--workers", "2", "--no-store"]
        assert cli_main([*argv, "--trace", str(traces)]) == 0
        expected = {task_trace_path(traces, p.scenario, p.seed) for p in points}
        assert set(traces.iterdir()) == expected
        assert not elsewhere.exists()

    def test_preload_loads_when_src_is_added_at_run_time(self, tmp_path):
        """The forkserver ignores the ``sys.path`` it is handed; the pool
        starts it with ``src/`` on its ``PYTHONPATH``, so the preload still
        loads when no ``PYTHONPATH`` names ``src/``."""
        (tmp_path / "probe.py").write_text(
            "import sys\n\n\ndef loaded(name):\n    return name in sys.modules\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        out = _run_python(_PRELOAD_PROBE, str(_SRC), str(tmp_path), cwd=tmp_path, env=env)
        assert out.split() == ["True"]

    @pytest.mark.skipif(
        pool_backend.DEFAULT_START_METHOD != "forkserver",
        reason="the platform's default start method is spawn",
    )
    def test_pool_left_open_exits_cleanly(self):
        """A pool never shut down does not hang the exit, and the exit
        reaps the forkserver and the workers."""
        assert json.loads(_run_python(_LEAKED_POOL).splitlines()[-1]) == {
            "server_reaped": True,
            "workers_alive": [],
        }


class TestResultIntegrity:
    def test_non_serializable_result_fails_point_with_clear_error(self, tmp_path):
        store = ResultStore(tmp_path)
        points = expand_grid(get_scenario("bk-unjson"), {"x": [1]})
        report = run_sweep(points, store=store)
        record = report.records[0]
        assert record.status == "error" and not report.ok
        assert "non-JSON-serializable" in record.error
        # The persisted failure replays identically: still an error, still
        # failing report.ok -- never a repr-stringified "success".
        replay = run_sweep(points, store=store)
        assert (replay.cached, replay.executed) == (1, 0)
        assert not replay.ok
        assert _comparable(replay.records[0]) == _comparable(record)

    def test_to_json_is_strict(self):
        record = ResultRecord(
            key="k", scenario="s", params={"x": 1}, seed=0, replicate=0,
            status="ok", result={"bad": object()},
        )
        with pytest.raises(TypeError):
            record.to_json()



def _execute(name: str) -> dict:
    """``execute_point`` on the ``x=1`` point of ``name``."""
    point = expand_grid(get_scenario(name), {"x": [1]})[0]
    return execute_point(point.scenario, point.params, point.seed)


def _collector_state() -> tuple:
    return gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()


#: Prints the collector's state as JSON, after running ``sys.argv[1]``.
_GC_STATE = """
import gc, json, sys
exec(sys.argv[1])
print(json.dumps([gc.get_threshold(), gc.get_freeze_count(), gc.isenabled()]))
"""


class TestCollectorScope:
    @pytest.fixture()
    def odd_threshold(self):
        """A caller threshold no code sets by default, restored afterwards."""
        saved = gc.get_threshold()
        gc.set_threshold(701, 11, 12)
        yield
        gc.set_threshold(*saved)

    @pytest.mark.parametrize("name, status", [("bk-echo", "ok"), ("bk-raise", "error")])
    def test_point_leaves_the_collector_as_it_found_it(self, odd_threshold, name, status):
        before = _collector_state()
        outcome = _execute(name)
        assert outcome["status"] == status
        assert _collector_state() == before

    def test_interrupted_point_leaves_the_collector_as_it_found_it(self, odd_threshold):
        """``execute_point`` lets a ``KeyboardInterrupt`` through, and still
        closes the scope on the way out."""
        before = _collector_state()
        with pytest.raises(KeyboardInterrupt):
            _execute("bk-interrupt")
        assert _collector_state() == before

    def test_exit_collection_frees_the_point_garbage(self):
        """With automatic collection off, only the exit collection can free
        the cycle the point dropped, and it has by the time the point
        returns."""
        _FREED.clear()
        enabled = gc.isenabled()
        gc.disable()
        try:
            outcome = _execute("bk-cycle")
            freed = list(_FREED)
        finally:
            if enabled:
                gc.enable()
        assert outcome["status"] == "ok"
        assert len(freed) == 1

    @pytest.mark.parametrize(
        "backend, start_method", [("serial", None), ("pool", "forkserver"), ("pool", "spawn")]
    )
    def test_point_runs_frozen_with_the_raised_threshold(
        self, backend, start_method, monkeypatch
    ):
        if start_method is not None:
            monkeypatch.setattr(pool_backend, "DEFAULT_START_METHOD", start_method)
        points = expand_grid(get_scenario("bk-gc-view"), {"x": [1]})
        report = run_sweep(points, store=None, backend=backend)
        (record,) = report.records
        assert record.status == "ok", record.error
        assert record.result["frozen"] > 0
        assert record.result["threshold"][0] == POINT_GC_THRESHOLD

    def test_traced_points_report_what_the_collector_did(self, tmp_path, capsys):
        """One ``gc`` event per task trace; its gen-2 count includes the
        exit collection, and the summary totals the events."""
        points = expand_grid(get_scenario("bk-cycle"), {"x": [1, 2]})
        assert run_sweep(points, store=None, backend="serial", trace_dir=tmp_path).ok
        traces = [read_trace(f) for f in sorted(tmp_path.glob("task-bk-cycle-*.jsonl"))]
        assert len(traces) == 2
        gc_events = []
        for events in traces:
            (event,) = [e for e in events if e["kind"] == "event" and e["name"] == "gc"]
            assert event["collections"][-1] >= 1
            assert event["collected"] >= 1
            assert event["exit_s"] >= 0.0
            gc_events.append(event)
        totals = summarize_trace(traces[0] + traces[1])["gc"]
        assert totals == {
            "points": 2,
            "collections": [sum(gen) for gen in zip(*(e["collections"] for e in gc_events))],
            "collected": sum(e["collected"] for e in gc_events),
            "exit_s": sum(e["exit_s"] for e in gc_events),
        }
        assert cli_main(["trace", "summarize", str(tmp_path)]) == 0
        assert capsys.readouterr().out.count("  gc: points=1 ") == 2

    def test_import_leaves_the_collector_alone(self):
        """Importing the package and loading the built-in scenarios in a
        fresh interpreter changes none of the collector's settings."""
        bare = _run_python(_GC_STATE, "")
        loaded = _run_python(
            _GC_STATE,
            "import repro, repro.experiments, repro.experiments.cli\n"
            "from repro.experiments.registry import load_builtin_scenarios\n"
            "load_builtin_scenarios()",
        )
        assert json.loads(loaded) == json.loads(bare)

    def test_cli_run_leaves_the_collector_as_it_found_it(self, odd_threshold, capsys):
        before = _collector_state()
        assert cli_main(["run", "bk-echo", "--no-store"]) == 0
        assert _collector_state() == before
