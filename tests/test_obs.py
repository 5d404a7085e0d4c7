"""Telemetry subsystem tests: tracer overhead, trace schema, exactness.

Three contracts pin the observability layer down:

1. the default null tracer must cost nothing -- the engine hot path with
   tracing off allocates nothing inside ``repro.obs.trace``;
2. JSONL traces are schema-valid and deterministic modulo clock fields,
   so archived CI traces diff cleanly;
3. trace accounting is *exact*, not approximate -- per-round sent-bit
   samples sum to ``RunResult.total_bits`` on every engine, and the
   per-task meta block the sweep runner persists agrees with the trace.
"""

import gc
import json
import tracemalloc
from pathlib import Path

import pytest

from repro.algorithms.paths import run_refreshing_bellman_ford
from repro.congest.network import CongestNetwork
from repro.experiments import expand_grid, get_scenario, run_sweep
from repro.experiments.cli import main as cli_main
from repro.experiments.reporting import render_timeline_page
from repro.experiments.reporting.timeline import load_traces
from repro.obs.trace import (
    TRACE_SCHEMA,
    CollectingTracer,
    Tracer,
    TraceWriter,
    read_trace,
    summarize_trace,
    task_trace_path,
    trace_files,
    use_tracer,
)
from tests.reference_transport import ReferenceEventEngine

#: Clock-derived trace fields ignored when comparing runs for determinism.
VOLATILE = {"ts", "dur_s", "unix_time", "pid", "duration_s"}


def _graph(n=18, seed=3):
    from repro.graphs.generators import random_connected_graph

    graph = random_connected_graph(n, extra_edge_prob=0.15, seed=seed)
    for i, (u, v) in enumerate(sorted(graph.edges())):
        graph.edges[u, v]["weight"] = float(i + 1)
    return graph


def _bellman_ford(graph, engine="event"):
    """The refreshing Bellman-Ford from the smallest node, to a horizon past
    the hop depth of every ``_graph`` (the program never quiesces).  The
    horizon ends one round after a refresh round (every 4th), so every
    send has been delivered by then."""
    return run_refreshing_bellman_ford(graph, min(graph.nodes()), max_rounds=41, engine=engine)


def _write_trace(path, **meta):
    """Run :func:`_bellman_ford` on ``_graph()`` into a JSONL trace at ``path``."""
    tracer = TraceWriter(path, source="test", **meta)
    try:
        with use_tracer(tracer):
            _, result = _bellman_ford(_graph())
    finally:
        tracer.close()
    return result


class TestNullTracer:
    def test_network_defaults_to_disabled_tracer(self):
        net = CongestNetwork(_graph(6), program_factory=lambda: None)
        assert isinstance(net.trace, Tracer)
        assert net.trace.enabled is False

    def test_network_and_fault_wrapper_take_the_ambient_tracer(self):
        from repro.congest.faults import FaultPlan

        tracer = CollectingTracer()
        with use_tracer(tracer):
            net = CongestNetwork(_graph(6), lambda: None, faults=FaultPlan(drop_prob=0.1))
        assert net.trace is tracer and net.transport.trace is tracer
        # The tracer is the one in effect when the network is built.
        later = CongestNetwork(_graph(6), lambda: None, faults=FaultPlan(drop_prob=0.1))
        assert later.trace.enabled is False and later.transport.trace is later.trace

    def test_hot_path_allocates_nothing(self):
        tracer = Tracer()
        # Warm up method binding and any lazy module state first.
        tracer.emit("round", round=0)
        trace_file = str(Path(Tracer.__module__.replace(".", "/")))
        filters = [tracemalloc.Filter(True, f"*{trace_file}*")]
        tracemalloc.start()
        try:
            # CPython parks freed dicts, dict keys and tuples on free lists,
            # and a full collection empties those lists.  Without the two
            # collections, a kwargs dict the loop frees would still count as
            # live at its trace.py line whenever the lists happened to be
            # empty when the loop began (e.g. the baseline snapshot's own
            # allocations set off a full collection).  Memory the hot path
            # really keeps survives gc.collect() and still fails the test.
            gc.collect()
            before = tracemalloc.take_snapshot().filter_traces(filters)
            for i in range(500):
                tracer.emit("round", round=i, active=3, sent_bits=64)
                tracer.event("messages", count=2)
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(filters)
        finally:
            tracemalloc.stop()
        stats = after.compare_to(before, "filename")
        assert sum(s.size_diff for s in stats) == 0, stats


class TestTraceWriter:
    def _run_traced(self, path):
        return _write_trace(path, scenario="bf")

    def test_lines_schema_valid(self, tmp_path):
        path = tmp_path / "t.jsonl"
        self._run_traced(path)
        events = read_trace(path)
        assert events, "trace is empty"
        meta = events[0]
        assert meta["kind"] == "meta"
        assert meta["schema"] == TRACE_SCHEMA
        assert meta["source"] == "test"
        for event in events:
            assert isinstance(event["kind"], str)
            assert isinstance(event["ts"], float)
            assert event["ts"] >= 0.0
        kinds = {e["kind"] for e in events}
        assert "round" in kinds
        assert "run" in kinds

    def test_deterministic_modulo_clock_fields(self, tmp_path):
        self._run_traced(tmp_path / "a.jsonl")
        self._run_traced(tmp_path / "b.jsonl")

        def stripped(path):
            return [
                {k: v for k, v in event.items() if k not in VOLATILE}
                for event in read_trace(path)
            ]

        assert stripped(tmp_path / "a.jsonl") == stripped(tmp_path / "b.jsonl")

    def test_read_trace_tolerates_torn_tail(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        self._run_traced(path)
        whole = read_trace(path)
        with open(path, "a") as fh:
            fh.write('{"kind": "round", "ts"')  # no newline: a torn write
        assert read_trace(path) == whole


class TestExactAccounting:
    @pytest.mark.parametrize("engine", ["dense", "event", "reference-event"])
    def test_round_bit_samples_sum_to_run_result(self, engine):
        graph = _graph(seed=7)
        if engine == "reference-event":
            engine = ReferenceEventEngine()
        tracer = CollectingTracer()
        with use_tracer(tracer):
            dist, result = _bellman_ford(graph, engine=engine)
        summary = summarize_trace(tracer.events)
        assert summary["sent_bits"] == result.total_bits
        assert summary["sent_messages"] == result.total_messages
        assert summary["moved_bits"] == result.total_bits
        (run,) = summary["runs"]
        assert run["total_bits"] == result.total_bits
        assert run["rounds"] == result.rounds
        assert run["halted"] == result.halted

    def test_engines_agree_on_counter_totals(self):
        graph = _graph(seed=11)
        totals = {}
        for name in ("dense", "event"):
            tracer = CollectingTracer()
            with use_tracer(tracer):
                _bellman_ford(graph, engine=name)
            summary = summarize_trace(tracer.events)
            totals[name] = (
                summary["sent_bits"],
                summary["sent_messages"],
                summary["moved_bits"],
            )
        assert totals["event"] == totals["dense"]


class TestSweepTraces:
    def _points(self):
        scenario = get_scenario("spanner-skeleton")
        return expand_grid(scenario, {"n": [24]})

    def test_task_trace_matches_persisted_meta(self, tmp_path):
        report = run_sweep(self._points(), store=None, trace_dir=tmp_path)
        (record,) = report.records
        assert record.status == "ok"
        meta = record.meta
        assert meta["congest_runs"] >= 1
        task_files = sorted(tmp_path.glob("task-spanner-skeleton-*.jsonl"))
        assert len(task_files) == 1
        summary = summarize_trace(read_trace(task_files[0]))
        assert summary["source"] == "task"
        assert len(summary["runs"]) == meta["congest_runs"]
        assert sum(r["total_bits"] for r in summary["runs"]) == meta["engine_total_bits"]
        assert sum(r["rounds"] for r in summary["runs"]) == meta["engine_rounds"]
        assert summary["sent_bits"] == meta["engine_total_bits"]
        events = read_trace(task_files[0])
        results = [e for e in events if e["kind"] == "event" and e.get("name") == "task_result"]
        assert len(results) == 1 and results[0]["status"] == "ok"

    def test_meta_block_uniform_across_backends(self, tmp_path):
        metas = {}
        for backend in ("serial", "pool"):
            report = run_sweep(
                self._points(), store=None, backend=backend, workers=2
            )
            (record,) = report.records
            assert record.duration_s > 0.0
            metas[backend] = record.meta
        assert metas["serial"] == metas["pool"]
        assert set(metas["serial"]) >= {
            "congest_runs",
            "engine_rounds",
            "engine_skipped_rounds",
            "engine_node_steps",
            "engine_total_bits",
            "engines",
        }


class TestTraceCli:
    @pytest.fixture()
    def trace_dir(self, tmp_path):
        out = tmp_path / "traces"
        argv = [
            "run",
            "spanner-skeleton",
            "--set",
            "n=24",
            "--no-store",
            "--trace",
            str(out),
        ]
        assert cli_main(argv) == 0
        return out

    def test_run_writes_one_task_trace_per_executed_point(self, tmp_path):
        """DIR holds one ``task-*.jsonl`` per executed point and nothing
        else; a cached rerun writes nothing."""
        points = expand_grid(get_scenario("spanner-skeleton"), {"n": [16, 20]})
        store, traces = tmp_path / "store", tmp_path / "traces"
        argv = ["run", "spanner-skeleton", "--set", "n=16,20", "--store", str(store)]
        assert cli_main([*argv, "--trace", str(traces)]) == 0
        expected = {task_trace_path(traces, p.scenario, p.seed) for p in points}
        assert set(traces.iterdir()) == expected
        rerun = tmp_path / "rerun"
        assert cli_main([*argv, "--trace", str(rerun)]) == 0
        assert not rerun.exists() or not any(rerun.iterdir())

    def test_summarize_text_and_json(self, trace_dir, capsys):
        assert cli_main(["trace", "summarize", str(trace_dir)]) == 0
        text = capsys.readouterr().out
        assert "rounds" in text
        assert "tasks:" not in text
        assert cli_main(["trace", "summarize", str(trace_dir), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload, "empty JSON summary"

    def test_timeline_renders_svg_page(self, trace_dir, tmp_path):
        out = tmp_path / "timeline.html"
        assert cli_main(["trace", "timeline", str(trace_dir), "--out", str(out)]) == 0
        html = out.read_text()
        assert "<svg" in html
        assert "Round activity" in html

    def test_timeline_creates_missing_parent_directories(self, trace_dir, tmp_path):
        out = tmp_path / "a" / "b" / "t.html"
        assert cli_main(["trace", "timeline", str(trace_dir), "--out", str(out)]) == 0
        assert out.is_file()

    def test_missing_traces_is_an_error(self, tmp_path):
        assert cli_main(["trace", "summarize", str(tmp_path / "nope")]) == 1


class TestOldTraces:
    """Schema-1 traces with lines nothing writes any more still read.

    Archived traces may hold ``span`` lines, and a sweep trace ``task``
    lines and a ``sweep_start`` event; readers skip the kinds, so such a
    trace reads like the same trace without those lines (the event is
    counted as any named event is).
    """

    @pytest.fixture()
    def traces(self, tmp_path):
        """``(current, old)``: one run's trace, and a copy with span lines,
        a task line and a sweep_start event."""
        current = tmp_path / "current" / "t.jsonl"
        old = tmp_path / "old" / "t.jsonl"
        current.parent.mkdir()
        old.parent.mkdir()
        _write_trace(current)
        meta, *rest = current.read_text().splitlines()
        spans = [
            json.dumps({"kind": "span", "ts": 0.5, "name": "step", "dur_s": 0.25, "i": i})
            for i in range(2)
        ]
        sweep = [
            json.dumps({"kind": "event", "ts": 0.0, "name": "sweep_start", "points": 1}),
            json.dumps({"kind": "task", "ts": 0.1, "state": "submitted", "index": 0}),
        ]
        old.write_text("\n".join([meta, *sweep, spans[0], *rest, spans[1]]) + "\n")
        return current, old

    def test_summary_ignores_span_lines(self, traces):
        current, old = (summarize_trace(read_trace(p)) for p in traces)
        assert old.pop("lines") == current.pop("lines") + 4
        assert old["events"].pop("sweep_start") == 1
        assert old == current
        assert "spans" not in old and "task_states" not in old

    def test_summarize_cli_reads_old_trace(self, traces, capsys):
        _, old = traces
        assert cli_main(["trace", "summarize", str(old)]) == 0
        text = capsys.readouterr().out
        assert "run[event]" in text
        assert "span" not in text and "tasks:" not in text

    def test_timeline_of_old_trace_matches_current(self, traces, tmp_path):
        pages = []
        for path in traces:
            out = tmp_path / f"{path.parent.name}.html"
            assert cli_main(["trace", "timeline", str(path), "--out", str(out)]) == 0
            pages.append(out.read_text())
        current, old = pages
        lines = len(read_trace(traces[0]))
        row = "<td>lines</td><td>{}</td>"
        assert row.format(lines) in current
        assert old == current.replace(row.format(lines), row.format(lines + 4))
        assert "<svg" in old


class TestReportPages:
    def test_timeline_page_from_loaded_traces(self, tmp_path):
        _write_trace(tmp_path / "t.jsonl")
        traces = load_traces([tmp_path])
        html = render_timeline_page(traces)
        assert "<svg" in html
        assert "Bits per round" in html

    def test_trace_files_rejects_nothing_silently(self, tmp_path):
        assert trace_files(tmp_path) == []

