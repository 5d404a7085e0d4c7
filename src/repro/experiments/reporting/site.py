"""Static-site assembly: one index + one page per scenario, on disk.

:func:`build_site` is the single entry behind ``python -m
repro.experiments report --html OUT_DIR``: it reads every record from a
:class:`~repro.experiments.store.ResultStore`, builds the
:class:`~repro.experiments.reporting.model.ScenarioReport` model, renders
each scenario to ``OUT_DIR/<scenario>.html`` and the cross-scenario
summary to ``OUT_DIR/index.html``, and returns the index path.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.reporting.html import (
    page_name,
    render_index,
    render_scenario_page,
)
from repro.experiments.reporting.model import build_reports
from repro.experiments.store import ResultStore, atomic_write_text


def build_site(
    store: ResultStore,
    out_dir: str | Path,
    scenario: str | None = None,
    trace_paths: list[str | Path] | None = None,
) -> Path:
    """Render the full HTML report site; returns the index page path.

    ``scenario`` restricts the site to one scenario (the index still
    links only what was rendered).  Raises ``ValueError`` when the store
    holds no matching records -- an empty site would silently hide a
    mis-typed ``--store``.

    ``trace_paths`` (JSONL trace files or directories of them) add a
    ``timeline.html`` page, linked from the index.
    """
    records = list(store.iter_records(scenario))
    if not records:
        where = f" for scenario {scenario!r}" if scenario else ""
        raise ValueError(f"no records in {store.root}{where}; nothing to report")
    reports = build_reports(records)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for report in reports:
        atomic_write_text(out / page_name(report.name), render_scenario_page(report))
    extra_pages: list[tuple[str, str]] = []
    if trace_paths:
        from repro.experiments.reporting.timeline import load_traces, render_timeline_page

        traces = load_traces(list(trace_paths))
        if traces:
            atomic_write_text(
                out / "timeline.html", render_timeline_page(traces, back_link=True)
            )
            extra_pages.append(("timeline.html", "trace timeline"))
    index = out / "index.html"
    atomic_write_text(index, render_index(reports, extra_pages=extra_pages))
    return index
