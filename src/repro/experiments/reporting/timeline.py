"""Timeline pages: render JSONL traces into round-activity charts.

Turns the traces the :mod:`repro.obs` subsystem writes (engine ``round``
samples and ``skip`` stretches, one trace per executed sweep point) into a
self-contained HTML page on the existing SVG chart kit:

- **round activity** -- active-set size and delivered messages per round,
  the profile that distinguishes a dense phase from a quiet tail;
- **bits per round** -- sent vs moved bits, the CONGEST cost profile the
  paper's spanner constructions are evaluated by.

Lines of a kind it does not chart (an archived sweep trace's ``task``
lines, say) are skipped.

Used by ``python -m repro.experiments trace timeline`` and by
:func:`~repro.experiments.reporting.site.build_site` when trace files are
passed to ``report --html``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.experiments.reporting.html import _page, escape, fmt_value
from repro.experiments.reporting.svg import Series, render_plot
from repro.obs.trace import read_trace, summarize_trace, trace_files


def round_charts(label: str, events: list[dict[str, Any]]) -> list[str]:
    """Round-activity and bits-per-round charts for one trace's samples."""
    rounds = [e for e in events if e.get("kind") == "round"]
    if not rounds:
        return []
    charts = [
        render_plot(
            f"Round activity — {label}",
            [
                Series.of("active nodes", [(e["round"], e.get("active", 0)) for e in rounds]),
                Series.of(
                    "delivered msgs", [(e["round"], e.get("delivered", 0)) for e in rounds]
                ),
            ],
            x_label="round",
            y_label="count",
        ),
        render_plot(
            f"Bits per round — {label}",
            [
                Series.of("sent bits", [(e["round"], e.get("sent_bits", 0)) for e in rounds]),
                Series.of(
                    "moved bits", [(e["round"], e.get("moved_bits", 0)) for e in rounds]
                ),
            ],
            x_label="round",
            y_label="bits",
        ),
    ]
    return charts


def _summary_rows(summary: dict[str, Any]) -> str:
    cells = [
        ("source", summary.get("source")),
        ("lines", summary.get("lines")),
        ("rounds sampled", summary.get("rounds_sampled")),
        ("rounds skipped", summary.get("rounds_skipped")),
        ("node steps", summary.get("active_steps")),
        ("sent bits", summary.get("sent_bits")),
        ("moved bits", summary.get("moved_bits")),
        ("sent messages", summary.get("sent_messages")),
    ]
    return "".join(
        f"<tr><td>{escape(name)}</td><td>{escape(fmt_value(value))}</td></tr>"
        for name, value in cells
    )


def trace_section(label: str, events: list[dict[str, Any]]) -> str:
    """One trace's section: summary table plus every applicable chart."""
    summary = summarize_trace(events)
    parts = [f"<h2>{escape(label)}</h2>"]
    parts.append(
        "<table><thead><tr><th>metric</th><th>value</th></tr></thead>"
        f"<tbody>{_summary_rows(summary)}</tbody></table>"
    )
    if summary["runs"]:
        rows = "".join(
            "<tr>"
            + "".join(
                f"<td>{escape(fmt_value(run.get(k)))}</td>"
                for k in ("engine", "rounds", "skipped_rounds", "node_steps", "total_bits")
            )
            + "</tr>"
            for run in summary["runs"]
        )
        parts.append(
            "<table><thead><tr><th>engine</th><th>rounds</th><th>skipped</th>"
            f"<th>node steps</th><th>total bits</th></tr></thead><tbody>{rows}</tbody></table>"
        )
    charts = round_charts(label, events)
    if charts:
        parts.append('<div class="plots">')
        parts.extend(charts)
        parts.append("</div>")
    elif not summary["runs"]:
        parts.append('<p class="muted">no plottable trace lines</p>')
    return "\n".join(parts)


def render_timeline_page(
    traces: list[tuple[str, list[dict[str, Any]]]], back_link: bool = False
) -> str:
    """The full timeline page over one or more (label, events) traces."""
    parts = ["<h1>Trace timeline</h1>"]
    if back_link:
        parts.append('<p><a href="index.html">&larr; all scenarios</a></p>')
    if not traces:
        parts.append('<p class="muted">no traces given</p>')
    for label, events in traces:
        parts.append(trace_section(label, events))
    return _page("Trace timeline", "\n".join(parts))


def load_traces(paths: list[str | Path]) -> list[tuple[str, list[dict[str, Any]]]]:
    """Resolve files/directories into (label, parsed events) pairs."""
    traces = []
    for spec in paths:
        for path in trace_files(spec):
            traces.append((path.name, read_trace(path)))
    return traces
