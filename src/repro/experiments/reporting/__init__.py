"""HTML report subsystem: a dependency-free static-site generator.

``python -m repro.experiments report --html OUT_DIR`` turns the JSON
records of a :class:`~repro.experiments.store.ResultStore` into a
browsable site -- one self-contained page per scenario (parameter tables,
pass/fail tallies, per-record metric tables, inline SVG plots)
plus a cross-scenario index.  Zero third-party dependencies and
byte-level determinism for a fixed store are part of the contract.

Layers, bottom up:

- :mod:`~repro.experiments.reporting.svg` -- the chart kit (line /
  scatter / bar, optional log axes) emitting deterministic ``<svg>``;
- :mod:`~repro.experiments.reporting.model` -- records grouped into
  :class:`ScenarioReport` summaries and plot-ready series, driven by the
  :class:`~repro.experiments.registry.PlotSpec` declarations scenarios
  attach via ``@scenario(plots=...)``;
- :mod:`~repro.experiments.reporting.html` -- page rendering (inline
  CSS, inline SVG, no scripts);
- :mod:`~repro.experiments.reporting.site` -- :func:`build_site`, the
  directory-level assembly used by the CLI, CI and the example;
- :mod:`~repro.experiments.reporting.timeline` -- the telemetry page:
  JSONL trace timelines;
- :mod:`~repro.experiments.reporting.docs` -- the generated-checked
  ``docs/scenarios.md`` catalog.  The package does not import it, so
  ``python -m repro.experiments.reporting.docs`` runs it without a runpy
  warning.
"""

from repro.experiments.reporting.html import (
    page_name,
    render_index,
    render_scenario_page,
)
from repro.experiments.reporting.model import ScenarioReport, build_reports, plot_series
from repro.experiments.reporting.site import build_site
from repro.experiments.reporting.svg import (
    Series,
    render_bar_chart,
    render_plot,
)
from repro.experiments.reporting.timeline import load_traces, render_timeline_page

__all__ = [
    "ScenarioReport",
    "Series",
    "build_reports",
    "build_site",
    "load_traces",
    "page_name",
    "plot_series",
    "render_bar_chart",
    "render_index",
    "render_plot",
    "render_scenario_page",
    "render_timeline_page",
]
