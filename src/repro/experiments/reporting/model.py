"""Report model: stored records grouped into per-scenario summaries.

The HTML renderer never touches :class:`~repro.experiments.store.ResultStore`
directly; this module turns its flat record stream into
:class:`ScenarioReport` objects that already answer the questions a page
needs -- which grid axes actually varied, which params were fixed, what
the status tally is, which result keys are numeric metrics -- and into
plot-ready :class:`~repro.experiments.reporting.svg.Series` lists for the
scenario's declared (or synthesised) :class:`~repro.experiments.registry.PlotSpec`\\ s.

Everything here sorts: records by canonical params then seed, axis values
by type-stable keys, metric columns lexicographically -- so the rendered
site is deterministic for a fixed store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Real
from typing import Any

from repro.experiments.registry import PlotSpec, Scenario, ScenarioNotFound, get_scenario
from repro.experiments.reporting.svg import Series
from repro.experiments.store import ResultRecord
from repro.experiments.sweep import canonical_json

#: Cap on synthesised default-plot series, so a scenario returning dozens
#: of numeric keys still renders a readable chart.
MAX_DEFAULT_SERIES = 4


def _sort_key(value: Any) -> tuple:
    """Type-stable ordering for mixed axis values (ints before strings)."""
    if isinstance(value, bool):
        return (1, "", int(value))
    if isinstance(value, Real):
        return (0, "", float(value))
    return (2, str(value), 0.0)


def _is_metric(value: Any) -> bool:
    """Numeric, plottable result values (bools are verdicts, not metrics)."""
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass
class ScenarioReport:
    """Everything one scenario's report page needs, precomputed."""

    name: str
    records: list[ResultRecord]
    #: Params taking more than one distinct value across the records.
    axes: dict[str, list] = field(default_factory=dict)
    #: Params constant across every record.
    fixed: dict[str, Any] = field(default_factory=dict)
    n_ok: int = 0
    #: Records that are not ok (a ``timeout`` record of an older store too).
    n_error: int = 0
    #: Sorted union of result keys over ok records (all types).
    result_keys: list[str] = field(default_factory=list)
    #: The numeric subset of ``result_keys``.
    metric_keys: list[str] = field(default_factory=list)
    #: Registry entry, when the scenario is still registered (a store can
    #: outlive a scenario rename; pages degrade gracefully).
    scenario: Scenario | None = None

    @property
    def total(self) -> int:
        """Number of records, all statuses."""
        return len(self.records)

    @property
    def duration_s(self) -> float:
        """Total recorded compute time across the records."""
        return sum(r.duration_s for r in self.records)

    def plot_specs(self) -> tuple[PlotSpec, ...]:
        """Declared specs, or one synthesised metrics-vs-first-axis plot."""
        if self.scenario is not None and self.scenario.plots:
            return self.scenario.plots
        return self._default_specs()

    def _default_specs(self) -> tuple[PlotSpec, ...]:
        if not self.metric_keys:
            return ()
        numeric_axes = [a for a in self.axes if all(_is_metric(v) for v in self.axes[a])]
        ys = tuple(self.metric_keys[:MAX_DEFAULT_SERIES])
        if numeric_axes:
            x = numeric_axes[0]
            return (
                PlotSpec(
                    name="default",
                    title=f"{self.name}: metrics vs {x}",
                    x=x,
                    ys=ys,
                    kind="line",
                    x_label=x,
                ),
            )
        if self.axes:
            x = next(iter(self.axes))
            return (
                PlotSpec(
                    name="default",
                    title=f"{self.name}: metrics by {x}",
                    x=x,
                    ys=ys,
                    kind="bar",
                    x_label=x,
                ),
            )
        return ()


def lookup(record: ResultRecord, key: str) -> Any:
    """Resolve a plot key against the result payload, then the params."""
    if record.result and key in record.result:
        return record.result[key]
    return record.params.get(key)


def build_reports(records: list[ResultRecord]) -> list[ScenarioReport]:
    """Group a record stream into sorted, fully-summarised scenario reports."""
    by_scenario: dict[str, list[ResultRecord]] = {}
    for record in records:
        by_scenario.setdefault(record.scenario, []).append(record)

    reports = []
    for name in sorted(by_scenario):
        group = sorted(
            by_scenario[name], key=lambda r: (canonical_json(r.params), r.seed, r.key)
        )
        values: dict[str, list] = {}
        for record in group:
            for param, value in record.params.items():
                bucket = values.setdefault(param, [])
                if value not in bucket:
                    bucket.append(value)
        axes = {
            p: sorted(vals, key=_sort_key) for p, vals in sorted(values.items()) if len(vals) > 1
        }
        fixed = {p: vals[0] for p, vals in sorted(values.items()) if len(vals) == 1}
        result_keys = sorted(
            {k for r in group if r.status == "ok" and r.result for k in r.result}
        )
        metric_keys = [
            k
            for k in result_keys
            if any(
                _is_metric(r.result.get(k))
                for r in group
                if r.status == "ok" and r.result
            )
        ]
        try:
            scenario = get_scenario(name)
        except ScenarioNotFound:
            scenario = None
        reports.append(
            ScenarioReport(
                name=name,
                records=group,
                axes=axes,
                fixed=fixed,
                n_ok=sum(1 for r in group if r.status == "ok"),
                n_error=sum(1 for r in group if r.status != "ok"),
                result_keys=result_keys,
                metric_keys=metric_keys,
                scenario=scenario,
            )
        )
    return reports


def plot_series(
    report: ScenarioReport, spec: PlotSpec
) -> tuple[list[Series], list[str]]:
    """Resolve one :class:`PlotSpec` into SVG series over the ok records.

    Returns ``(series, categories)``: for ``bar`` specs the x values are
    treated as sorted categories and each point carries its category
    index; for ``line``/``scatter`` the categories list is empty.  Line
    series average y over records sharing an x (replicates would otherwise
    zigzag); scatter keeps every record as its own mark.
    """
    ok = [r for r in report.records if r.status == "ok" and r.result]

    def groups() -> list[tuple[str, list[ResultRecord]]]:
        if spec.group_by is None:
            return [("", ok)]
        split: dict[Any, list[ResultRecord]] = {}
        for record in ok:
            split.setdefault(lookup(record, spec.group_by), []).append(record)
        return [
            (f"{spec.group_by}={value}", split[value])
            for value in sorted(split, key=_sort_key)
        ]

    if spec.kind == "bar":
        categories = sorted(
            {str(lookup(r, spec.x)) for r in ok if lookup(r, spec.x) is not None}
        )
        index = {c: i for i, c in enumerate(categories)}
        series = []
        for y_key in spec.ys:
            for suffix, recs in groups():
                label = f"{y_key} {suffix}".strip()
                sums: dict[int, list[float]] = {}
                for record in recs:
                    x_val, y_val = lookup(record, spec.x), lookup(record, y_key)
                    if x_val is None or not _is_metric(y_val):
                        continue
                    sums.setdefault(index[str(x_val)], []).append(float(y_val))
                points = [(i, sum(vs) / len(vs)) for i, vs in sorted(sums.items())]
                if points:
                    series.append(Series.of(label, points))
        return series, categories

    series = []
    for y_key in spec.ys:
        for suffix, recs in groups():
            label = f"{y_key} {suffix}".strip()
            raw: list[tuple[float, float]] = []
            for record in recs:
                x_val, y_val = lookup(record, spec.x), lookup(record, y_key)
                if not _is_metric(x_val) or not _is_metric(y_val):
                    continue
                raw.append((float(x_val), float(y_val)))
            if spec.kind == "line":
                buckets: dict[float, list[float]] = {}
                for x, y in raw:
                    buckets.setdefault(x, []).append(y)
                raw = [(x, sum(ys) / len(ys)) for x, ys in sorted(buckets.items())]
            if raw:
                series.append(Series.of(label, raw))
    return series, []
