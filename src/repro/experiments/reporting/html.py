"""HTML rendering for the report site: self-contained pages, inline SVG.

Every page is a single file with one inline ``<style>`` block and its
charts embedded as inline ``<svg>`` -- no scripts, no external assets, no
network fetches -- so a page archived from a CI artifact keeps rendering
forever.  :func:`render_scenario_page` emits one scenario's parameter
table, status tally, plots and per-record metric table;
:func:`render_index` the cross-scenario summary plus any benchmark
charts the site builder passes in.

Rendering is pure string assembly over the already-sorted
:class:`~repro.experiments.reporting.model.ScenarioReport` model, keeping
the byte-determinism guarantee trivial to audit.
"""

from __future__ import annotations

import html as _html
import math
from numbers import Real
from typing import Any

from repro.experiments.reporting.model import ScenarioReport, plot_series
from repro.experiments.reporting.svg import render_bar_chart, render_plot
from repro.experiments.store import ResultRecord

#: Shared inline stylesheet (kept small; every page embeds it).
STYLE = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 2rem auto; max-width: 72rem; padding: 0 1rem; color: #111827; }
h1 { font-size: 1.5rem; border-bottom: 2px solid #e5e7eb; padding-bottom: .4rem; }
h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; font-size: .85rem; margin: .75rem 0; }
th, td { border: 1px solid #d1d5db; padding: .3rem .55rem; text-align: left; }
th { background: #f3f4f6; }
tr:nth-child(even) td { background: #fafafa; }
code { background: #f3f4f6; padding: .1rem .3rem; border-radius: 3px; font-size: .85em; }
a { color: #2563eb; text-decoration: none; }
a:hover { text-decoration: underline; }
.status-ok { color: #059669; font-weight: 600; }
.status-error { color: #dc2626; font-weight: 600; }
.plot { margin: 1rem 0; border: 1px solid #e5e7eb; }
.muted { color: #6b7280; font-size: .85rem; }
.plots { display: flex; flex-wrap: wrap; gap: 1rem; }
""".strip()


def escape(text: Any) -> str:
    """HTML-escape any value's string form (stdlib escaping, quotes too)."""
    return _html.escape(str(text), quote=True)


def fmt_value(value: Any) -> str:
    """Compact, deterministic cell text for params and metrics."""
    if isinstance(value, bool) or value is None:
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            return str(value)  # "nan" / "inf" / "-inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.6g}"
    if isinstance(value, Real):
        return str(value)
    text = str(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8"/>\n'
        f"<title>{escape(title)}</title>\n"
        f"<style>\n{STYLE}\n</style>\n</head>\n<body>\n{body}\n</body>\n</html>\n"
    )


def _status_cell(record: ResultRecord) -> str:
    return f'<td class="status-{record.status}">{escape(record.status)}</td>'


def _params_table(report: ScenarioReport) -> str:
    rows = []
    for name, values in report.axes.items():
        shown = ", ".join(fmt_value(v) for v in values)
        rows.append(
            f"<tr><td><code>{escape(name)}</code></td><td>axis</td><td>{escape(shown)}</td></tr>"
        )
    for name, value in report.fixed.items():
        rows.append(
            f"<tr><td><code>{escape(name)}</code></td><td>fixed</td>"
            f"<td>{escape(fmt_value(value))}</td></tr>"
        )
    if not rows:
        return '<p class="muted">no parameters recorded</p>'
    return (
        "<table><thead><tr><th>parameter</th><th>role</th><th>value(s)</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )


def _count_cell(count: int, status: str) -> str:
    attr = f' class="status-{status}"' if count else ""
    return f"<td{attr}>{count}</td>"


def _summary_table(report: ScenarioReport) -> str:
    return (
        "<table><thead><tr><th>records</th><th>ok</th><th>error</th>"
        "<th>total compute</th></tr></thead><tbody><tr>"
        f"<td>{report.total}</td>"
        f'<td class="status-ok">{report.n_ok}</td>'
        f"{_count_cell(report.n_error, 'error')}"
        f"<td>{report.duration_s:.2f}s</td>"
        "</tr></tbody></table>"
    )


def _records_table(report: ScenarioReport) -> str:
    axis_names = list(report.axes)
    columns = axis_names + ["seed", "status"] + report.result_keys
    head = "".join(f"<th>{escape(c)}</th>" for c in columns)
    rows = []
    for record in report.records:
        cells = [f"<td>{escape(fmt_value(record.params.get(a)))}</td>" for a in axis_names]
        cells.append(f"<td>{record.seed % 10**8}</td>")
        cells.append(_status_cell(record))
        for key in report.result_keys:
            if record.status == "ok" and record.result:
                cells.append(f"<td>{escape(fmt_value(record.result.get(key)))}</td>")
            else:
                error_lines = (record.error or "").strip().splitlines()
                note = error_lines[-1] if error_lines else record.status
                cells.append(f'<td class="muted">{escape(fmt_value(note))}</td>')
                cells.extend("<td></td>" for _ in report.result_keys[1:])
                break
        rows.append(f"<tr>{''.join(cells)}</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def render_plots(report: ScenarioReport) -> list[str]:
    """All of a report's plot specs rendered to inline SVG strings."""
    charts = []
    for spec in report.plot_specs():
        series, categories = plot_series(report, spec)
        if spec.kind == "bar":
            charts.append(
                render_bar_chart(
                    spec.title,
                    categories,
                    series,
                    logy=spec.logy,
                    x_label=spec.x_label or spec.x,
                    y_label=spec.y_label,
                )
            )
        else:
            charts.append(
                render_plot(
                    spec.title,
                    series,
                    kind=spec.kind,
                    logx=spec.logx,
                    logy=spec.logy,
                    x_label=spec.x_label or spec.x,
                    y_label=spec.y_label,
                )
            )
    return charts


def render_scenario_page(report: ScenarioReport) -> str:
    """One scenario's self-contained report page."""
    parts = [f"<h1>{escape(report.name)}</h1>"]
    if report.scenario is not None and report.scenario.description:
        parts.append(f"<p>{escape(report.scenario.description)}</p>")
    if report.scenario is not None and report.scenario.tags:
        tags = " ".join(f"<code>{escape(t)}</code>" for t in report.scenario.tags)
        parts.append(f'<p class="muted">tags: {tags}</p>')
    parts.append('<p><a href="index.html">&larr; all scenarios</a></p>')

    parts.append("<h2>Summary</h2>")
    parts.append(_summary_table(report))

    parts.append("<h2>Parameters</h2>")
    parts.append(_params_table(report))

    charts = render_plots(report)
    if charts:
        parts.append("<h2>Plots</h2>")
        parts.append('<div class="plots">')
        parts.extend(charts)
        parts.append("</div>")

    parts.append("<h2>Records</h2>")
    parts.append(_records_table(report))
    return _page(f"{report.name} — experiment report", "\n".join(parts))


def render_index(
    reports: list[ScenarioReport],
    extra_pages: list[tuple[str, str]] | None = None,
) -> str:
    """The cross-scenario index page.

    ``extra_pages`` are ``(href, label)`` links to companion pages the
    site builder rendered alongside (the trace timeline).
    """
    parts = ["<h1>Experiment report</h1>"]
    total = sum(r.total for r in reports)
    ok = sum(r.n_ok for r in reports)
    parts.append(
        f"<p>{len(reports)} scenario(s), {total} record(s), "
        f'<span class="status-ok">{ok} ok</span>, {total - ok} failed.</p>'
    )
    rows = []
    for report in reports:
        axes = ", ".join(
            f"{name}({len(values)})" for name, values in report.axes.items()
        ) or "—"
        description = (
            report.scenario.description if report.scenario is not None else ""
        )
        rows.append(
            "<tr>"
            f'<td><a href="{escape(page_name(report.name))}">{escape(report.name)}</a></td>'
            f"<td>{report.total}</td>"
            f'<td class="status-ok">{report.n_ok}</td>'
            f"{_count_cell(report.n_error, 'error')}"
            f"<td>{escape(axes)}</td>"
            f"<td>{escape(description)}</td>"
            "</tr>"
        )
    parts.append(
        "<table><thead><tr><th>scenario</th><th>records</th><th>ok</th><th>error</th>"
        "<th>swept axes</th><th>description</th></tr></thead>"
        f"<tbody>{''.join(rows)}</tbody></table>"
    )
    if extra_pages:
        links = " · ".join(
            f'<a href="{escape(href)}">{escape(label)}</a>' for href, label in extra_pages
        )
        parts.append(f"<p>Telemetry: {links}</p>")
    return _page("Experiment report", "\n".join(parts))


def page_name(scenario_name: str) -> str:
    """Filesystem-safe page filename for one scenario."""
    slug = "".join(c if c.isalnum() or c in "-_" else "-" for c in scenario_name)
    return f"{slug}.html"
