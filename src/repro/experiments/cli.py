"""``python -m repro.experiments`` -- list, run, report, trace.

Examples::

    python -m repro.experiments list
    python -m repro.experiments run fig3-mst-tradeoff --workers 4
    python -m repro.experiments run chsh-gamma2 --set restarts=1,4,16 --replicates 3
    python -m repro.experiments run boruvka-mst-sweep --set engine=dense
    python -m repro.experiments run mst-under-faults --set fault_seed=7
    python -m repro.experiments report fig3-mst-tradeoff
    python -m repro.experiments report --format json | jq '.[].result'
    python -m repro.experiments report --html report-site

Telemetry (see ``docs/observability.md``)::

    python -m repro.experiments run spanner-skeleton --trace traces/
    python -m repro.experiments trace summarize traces/
    python -m repro.experiments trace timeline traces/ --out timeline.html
    python -m repro.experiments report --html report-site --trace traces/

Every scenario parameter, the CONGEST ``engine`` and the fault plan's
``fault_seed`` included, is set through ``--set``; giving the same key
twice is an error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from repro.experiments.backends import BACKEND_NAMES
from repro.experiments.registry import ScenarioNotFound, get_scenario, list_scenarios
from repro.experiments.runner import run_sweep
from repro.experiments.store import DEFAULT_STORE, ResultStore
from repro.experiments.sweep import expand_grid, parse_axis_overrides
from repro.obs.trace import read_trace, summarize_trace, trace_files


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Experiment harness: scenario registry, sweep runner, result store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show the scenario catalog")

    run = sub.add_parser("run", help="expand a sweep and run it")
    run.add_argument("scenario", help="scenario name (see `list`)")
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=V1[,V2,...]",
        help="grid axis override; repeatable; multiple values sweep that axis",
    )
    run.add_argument("--workers", type=int, default=1, help="pool size (1 = serial by default)")
    run.add_argument("--replicates", type=int, default=1, help="seeded replicates per grid point")
    run.add_argument("--base-seed", type=int, default=0, help="base seed for per-point derivation")
    run.add_argument("--store", default=str(DEFAULT_STORE), help="result-store directory")
    run.add_argument("--no-store", action="store_true", help="run without persisting results")
    run.add_argument("--force", action="store_true", help="ignore cached records and re-run")
    run.add_argument(
        "--backend",
        choices=BACKEND_NAMES,
        default=None,
        help="execution backend (default: pool when --workers > 1, else serial)",
    )
    run.add_argument(
        "--trace",
        dest="trace_dir",
        metavar="DIR",
        default=None,
        help="write one JSONL telemetry trace per executed point into DIR",
    )

    report = sub.add_parser(
        "report", help="summarise stored records (text, json, or an HTML site)"
    )
    report.add_argument("scenario", nargs="?", default=None, help="restrict to one scenario")
    report.add_argument("--store", default=str(DEFAULT_STORE), help="result-store directory")
    report.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="text summary (default) or raw records as JSON",
    )
    report.add_argument(
        "--html",
        dest="html_dir",
        metavar="OUT_DIR",
        default=None,
        help="render a static HTML site into OUT_DIR instead",
    )
    report.add_argument(
        "--trace",
        action="append",
        default=[],
        metavar="PATH",
        help="JSONL trace files or directories rendered as a timeline page "
        "in the HTML site; repeatable",
    )

    trace = sub.add_parser("trace", help="inspect JSONL telemetry traces")
    trace.add_argument(
        "action", choices=("summarize", "timeline"), help="what to do with the traces"
    )
    trace.add_argument(
        "paths", nargs="+", help="trace files, or directories of *.jsonl traces"
    )
    trace.add_argument(
        "--out",
        default="timeline.html",
        help="output HTML file for `timeline` (default ./timeline.html)",
    )
    trace.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="summary output format for `summarize`",
    )
    return parser


def _cmd_list() -> int:
    print(f"{'scenario':26s} {'params':44s} description")
    print("-" * 110)
    for scn in list_scenarios():
        axes = ", ".join(
            f"{p.name}={scn.default_grid[p.name]}" if p.name in scn.default_grid
            else f"{p.name}={p.default}"
            for p in scn.params
        )
        print(f"{scn.name:26s} {axes:44s} {scn.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    if args.backend == "serial" and args.workers > 1:
        raise ValueError(f"--backend serial runs one worker, got --workers {args.workers}")
    scn = get_scenario(args.scenario)
    grid = parse_axis_overrides(args.overrides)
    points = expand_grid(scn, grid, replicates=args.replicates, base_seed=args.base_seed)
    store = None if args.no_store else ResultStore(args.store)
    backend = "" if args.backend is None else f"backend={args.backend}, "
    print(
        f"sweep {scn.name}: {len(points)} point(s), {backend}"
        f"workers={args.workers}, store={'<none>' if store is None else store.root}"
    )
    report = run_sweep(
        points,
        store=store,
        workers=args.workers,
        force=args.force,
        progress=print,
        backend=args.backend,
        trace_dir=args.trace_dir,
    )
    if args.trace_dir is not None:
        print(f"traces: {args.trace_dir}")
    print(
        f"done: {report.cached} cached, {report.executed} executed, {report.failed} failed"
    )
    for record in report.records:
        if record.status == "ok":
            print(f"  #{record.replicate} {record.params} -> {record.result}")
        else:
            print(f"  #{record.replicate} {record.params} -> {record.status.upper()}")
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    files = [f for spec in args.paths for f in trace_files(spec)]
    if not files:
        print("no trace files found", file=sys.stderr)
        return 1
    if args.action == "timeline":
        from repro.experiments.reporting.timeline import render_timeline_page

        traces = [(f.name, read_trace(f)) for f in files]
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(render_timeline_page(traces), encoding="utf-8")
        print(f"timeline: {out}")
        return 0
    summaries = {str(f): summarize_trace(read_trace(f)) for f in files}
    if args.format == "json":
        print(json.dumps(summaries, sort_keys=True, indent=2))
        return 0
    for name in sorted(summaries):
        s = summaries[name]
        print(f"== {name} ==")
        print(
            f"  source={s['source']} lines={s['lines']} "
            f"rounds={s['rounds_sampled']} (+{s['rounds_skipped']} skipped)"
        )
        print(
            f"  sent: {s['sent_messages']} msg / {s['sent_bits']} bits; "
            f"moved: {s['moved_bits']} bits; node steps: {s['active_steps']}"
        )
        for run in s["runs"]:
            print(
                f"  run[{run['engine']}]: rounds={run['rounds']} "
                f"skipped={run['skipped_rounds']} steps={run['node_steps']} "
                f"bits={run['total_bits']} halted={run['halted']}"
            )
        if s["gc"]["points"]:
            g = s["gc"]
            gens = "/".join(str(n) for n in g["collections"])
            print(
                f"  gc: points={g['points']} collections(gen0/gen1/gen2)={gens} "
                f"collected={g['collected']} exit={g['exit_s']:.4f}s"
            )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    records = list(store.iter_records(args.scenario))
    if not records:
        # Same outcome (exit 1, not a usage error) for every format.
        print(f"no records in {store.root}" + (f" for {args.scenario!r}" if args.scenario else ""))
        return 1
    if args.html_dir is not None:
        from repro.experiments.reporting import build_site

        index = build_site(
            store,
            args.html_dir,
            scenario=args.scenario,
            trace_paths=list(args.trace),
        )
        print(f"report site: {index}")
        return 0
    if args.format == "json":
        print(json.dumps([asdict(r) for r in records], sort_keys=True, indent=2))
        return 0
    print(f"{len(records)} record(s) in {store.root}")
    by_scenario: dict[str, list] = {}
    for record in records:
        by_scenario.setdefault(record.scenario, []).append(record)
    for name in sorted(by_scenario):
        group = by_scenario[name]
        ok = sum(1 for r in group if r.status == "ok")
        print(f"\n== {name}: {len(group)} record(s), {ok} ok ==")
        for record in group:
            status = "" if record.status == "ok" else f"  [{record.status.upper()}]"
            if record.status == "ok":
                payload = record.result
            else:
                error_lines = (record.error or "").strip().splitlines()
                payload = error_lines[-1] if error_lines else record.status
            print(f"  {record.params} seed={record.seed}{status}")
            print(f"    -> {payload}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code (0 ok, 1 failed sweep/empty report, 2 usage)."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "trace":
            return _cmd_trace(args)
        return _cmd_report(args)
    except BrokenPipeError:
        # Output piped into e.g. `head`; not an error.
        return 0
    except (ScenarioNotFound, KeyError, ValueError) as exc:
        # Bad scenario name, unknown axis, malformed --set, ...: a clean
        # one-line error beats a traceback at the command line.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
