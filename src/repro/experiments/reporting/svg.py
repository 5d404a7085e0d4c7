"""Dependency-free SVG plotting for the HTML report subsystem.

A deliberately small chart kit -- line, scatter and bar charts with
optional log axes -- that emits deterministic standalone ``<svg>``
fragments: no third-party plotting library, no randomness, no
timestamps, and all coordinates formatted to a fixed precision, so a
rebuilt site is byte-identical for the same store (asserted by
``tests/test_reporting.py``).

The unit of work is a :class:`Series` (a label plus ``(x, y)`` points);
:func:`render_plot` lays out axes, ticks, grid lines, marks and a legend
around any number of them.  Categorical charts go through
:func:`render_bar_chart` instead, which takes string categories and one
or more value series.
"""

from __future__ import annotations

import html as _html
import math
from dataclasses import dataclass, field

#: Categorical series palette (colour-blind-safe ordering).
PALETTE = (
    "#2563eb",  # blue
    "#dc2626",  # red
    "#059669",  # green
    "#9333ea",  # purple
    "#ea580c",  # orange
    "#0891b2",  # cyan
    "#4b5563",  # slate
    "#ca8a04",  # amber
)

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 66
MARGIN_RIGHT = 18
MARGIN_TOP = 34
MARGIN_BOTTOM = 52


def _num(value: float) -> str:
    """Fixed-precision coordinate formatting (deterministic across hosts)."""
    text = f"{value:.2f}"
    # Avoid the two spellings of zero ("-0.00" vs "0.00").
    return "0.00" if text == "-0.00" else text


def tick_label(value: float) -> str:
    """Human-readable axis label for a tick value."""
    if value == 0:
        return "0"
    magnitude = abs(value)
    if magnitude >= 1e5 or magnitude < 1e-3:
        exponent = math.floor(math.log10(magnitude))
        mantissa = value / 10**exponent
        if abs(abs(mantissa) - 1.0) < 1e-9:
            sign = "-" if value < 0 else ""
            return f"{sign}1e{exponent}"
        return f"{mantissa:.3g}e{exponent}"
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.4g}"


def _escape(text: str) -> str:
    """XML-escape text/attribute content (stdlib escaping, quotes too)."""
    return _html.escape(text, quote=True)


@dataclass(frozen=True)
class Series:
    """One plotted series: a legend label plus ``(x, y)`` data points."""

    label: str
    points: tuple[tuple[float, float], ...]

    @staticmethod
    def of(label: str, points) -> "Series":
        """Build a series from any iterable of ``(x, y)`` pairs."""
        return Series(label, tuple((float(x), float(y)) for x, y in points))


def linear_ticks(lo: float, hi: float) -> list[float]:
    """About five nice linear tick positions covering ``[lo, hi]`` (1/2/5
    steps)."""
    if hi <= lo:
        hi = lo + (abs(lo) if lo else 1.0)
    span = hi - lo
    raw_step = span / 5
    magnitude = 10 ** math.floor(math.log10(raw_step))
    for multiple in (1.0, 2.0, 5.0, 10.0):
        step = multiple * magnitude
        if span / step <= 5.5:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        # Snap near-zero accumulation error so labels render as "0".
        ticks.append(0.0 if abs(value) < step * 1e-9 else value)
        value += step
    return ticks or [lo, hi]


def log_ticks(lo: float, hi: float) -> list[float]:
    """Powers of 10 covering the positive range ``[lo, hi]``."""
    lo = max(lo, 1e-12)
    hi = max(hi, lo)
    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0**e for e in range(first, last + 1)]


@dataclass
class _Axis:
    """Resolved axis: data range, scale transform, tick positions."""

    lo: float
    hi: float
    log: bool
    ticks: list[float] = field(default_factory=list)

    def fraction(self, value: float) -> float:
        """Map a data value to [0, 1] along the axis."""
        if self.log:
            lo, hi = math.log10(self.lo), math.log10(self.hi)
            v = math.log10(max(value, 1e-300))
        else:
            lo, hi, v = self.lo, self.hi, value
        if hi <= lo:
            return 0.5
        return (v - lo) / (hi - lo)


def _resolve_axis(values: list[float], log: bool) -> _Axis:
    if log:
        positive = [v for v in values if v > 0]
        lo = min(positive) if positive else 1.0
        hi = max(positive) if positive else 10.0
        ticks = log_ticks(lo, hi)
        return _Axis(lo=min(lo, ticks[0]), hi=max(hi, ticks[-1]), log=True, ticks=ticks)
    lo = min(values) if values else 0.0
    hi = max(values) if values else 1.0
    if lo == hi:
        pad = abs(lo) * 0.5 or 1.0
        lo, hi = lo - pad, hi + pad
    ticks = linear_ticks(lo, hi)
    return _Axis(lo=min(lo, ticks[0]), hi=max(hi, ticks[-1]), log=False, ticks=ticks)


def _chrome(title: str, x_label: str, y_label: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} {HEIGHT}" '
        f'width="{WIDTH}" height="{HEIGHT}" role="img" class="plot">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-size="14" '
        f'font-weight="bold" fill="#111827">{_escape(title)}</text>',
    ]
    if x_label:
        parts.append(
            f'<text x="{(MARGIN_LEFT + WIDTH - MARGIN_RIGHT) // 2}" y="{HEIGHT - 8}" '
            f'text-anchor="middle" font-size="11" fill="#374151">{_escape(x_label)}</text>'
        )
    if y_label:
        cy = (MARGIN_TOP + HEIGHT - MARGIN_BOTTOM) // 2
        parts.append(
            f'<text x="14" y="{cy}" text-anchor="middle" font-size="11" fill="#374151" '
            f'transform="rotate(-90 14 {cy})">{_escape(y_label)}</text>'
        )
    return parts


def _legend(labels: list[str]) -> list[str]:
    parts = []
    for i, label in enumerate(labels):
        color = PALETTE[i % len(PALETTE)]
        y = MARGIN_TOP + 6 + 15 * i
        x = WIDTH - MARGIN_RIGHT - 150
        parts.append(f'<rect x="{x}" y="{y - 8}" width="10" height="10" fill="{color}"/>')
        parts.append(
            f'<text x="{x + 14}" y="{y + 1}" font-size="11" fill="#111827">'
            f"{_escape(label)}</text>"
        )
    return parts


def render_plot(
    title: str,
    series: list[Series],
    *,
    kind: str = "line",
    logx: bool = False,
    logy: bool = False,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render line/scatter series into a standalone ``<svg>`` string.

    ``kind`` is ``"line"`` (polyline + markers) or ``"scatter"`` (markers
    only).  Log axes silently drop non-positive points, since they have
    no position on the scale.
    """
    if kind not in ("line", "scatter"):
        raise ValueError(f"unknown plot kind {kind!r}; known: line, scatter")
    cleaned: list[Series] = []
    for s in series:
        pts = [
            (x, y)
            for x, y in s.points
            if math.isfinite(x) and math.isfinite(y)
            and (not logx or x > 0)
            and (not logy or y > 0)
        ]
        if pts:
            cleaned.append(Series(s.label, tuple(sorted(pts))))
    if not cleaned:
        return empty_plot(title)

    xs = [x for s in cleaned for x, _ in s.points]
    ys = [y for s in cleaned for _, y in s.points]
    ax_x = _resolve_axis(xs, logx)
    ax_y = _resolve_axis(ys, logy)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x: float) -> float:
        return MARGIN_LEFT + ax_x.fraction(x) * plot_w

    def py(y: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - ax_y.fraction(y) * plot_h

    parts = _chrome(title, x_label, y_label)
    # Grid + ticks.
    for t in ax_x.ticks:
        if not ax_x.lo <= t <= ax_x.hi:
            continue
        x = px(t)
        parts.append(
            f'<line x1="{_num(x)}" y1="{MARGIN_TOP}" x2="{_num(x)}" '
            f'y2="{HEIGHT - MARGIN_BOTTOM}" stroke="#e5e7eb" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_num(x)}" y="{HEIGHT - MARGIN_BOTTOM + 16}" text-anchor="middle" '
            f'font-size="10" fill="#374151">{_escape(tick_label(t))}</text>'
        )
    for t in ax_y.ticks:
        if not ax_y.lo <= t <= ax_y.hi:
            continue
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_num(y)}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{_num(y)}" stroke="#e5e7eb" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{_num(y + 3)}" text-anchor="end" '
            f'font-size="10" fill="#374151">{_escape(tick_label(t))}</text>'
        )
    # Frame.
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#9ca3af" stroke-width="1"/>'
    )
    # Marks.
    for i, s in enumerate(cleaned):
        color = PALETTE[i % len(PALETTE)]
        if kind == "line" and len(s.points) > 1:
            coords = " ".join(f"{_num(px(x))},{_num(py(y))}" for x, y in s.points)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
            )
        radius = "3.00" if kind == "scatter" else "2.50"
        for x, y in s.points:
            parts.append(
                f'<circle cx="{_num(px(x))}" cy="{_num(py(y))}" r="{radius}" fill="{color}"/>'
            )
    parts.extend(_legend([s.label for s in cleaned]))
    parts.append("</svg>")
    return "\n".join(parts)


def render_bar_chart(
    title: str,
    categories: list[str],
    series: list[Series],
    *,
    logy: bool = False,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render grouped vertical bars over string categories.

    Each :class:`Series` supplies one bar per category via the point's
    ``x`` index (``points[i] = (i, value)``); missing indices simply skip
    the bar.  Used for categorical axes (verifier names, engine pairs).
    """
    values = [y for s in series for _, y in s.points if math.isfinite(y) and (not logy or y > 0)]
    if not categories or not values:
        return empty_plot(title)
    ax_y = _resolve_axis(values + ([] if logy else [0.0]), logy)

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
    slot = plot_w / len(categories)
    band = slot * 0.72
    bar_w = band / max(1, len(series))

    def py(y: float) -> float:
        return HEIGHT - MARGIN_BOTTOM - ax_y.fraction(y) * plot_h

    parts = _chrome(title, x_label, y_label)
    for t in ax_y.ticks:
        if not ax_y.lo <= t <= ax_y.hi:
            continue
        y = py(t)
        parts.append(
            f'<line x1="{MARGIN_LEFT}" y1="{_num(y)}" x2="{WIDTH - MARGIN_RIGHT}" '
            f'y2="{_num(y)}" stroke="#e5e7eb" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{MARGIN_LEFT - 6}" y="{_num(y + 3)}" text-anchor="end" '
            f'font-size="10" fill="#374151">{_escape(tick_label(t))}</text>'
        )
    baseline = py(ax_y.lo if logy else max(ax_y.lo, 0.0))
    for ci, label in enumerate(categories):
        cx = MARGIN_LEFT + slot * ci + slot / 2
        shown = label if len(label) <= 18 else label[:17] + "…"
        parts.append(
            f'<text x="{_num(cx)}" y="{HEIGHT - MARGIN_BOTTOM + 16}" text-anchor="middle" '
            f'font-size="10" fill="#374151">{_escape(shown)}</text>'
        )
    for si, s in enumerate(series):
        color = PALETTE[si % len(PALETTE)]
        for x, value in s.points:
            ci = int(x)
            if not 0 <= ci < len(categories):
                continue
            if not math.isfinite(value) or (logy and value <= 0):
                continue
            left = MARGIN_LEFT + slot * ci + (slot - band) / 2 + bar_w * si
            top = py(value)
            height = baseline - top
            if height < 0:  # negative values on a linear axis grow downward
                top, height = baseline, -height
            parts.append(
                f'<rect x="{_num(left)}" y="{_num(top)}" width="{_num(bar_w)}" '
                f'height="{_num(height)}" fill="{color}"/>'
            )
    parts.append(
        f'<rect x="{MARGIN_LEFT}" y="{MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#9ca3af" stroke-width="1"/>'
    )
    if len(series) > 1 or (series and series[0].label):
        parts.extend(_legend([s.label for s in series]))
    parts.append("</svg>")
    return "\n".join(parts)


def empty_plot(title: str) -> str:
    """Placeholder ``<svg>`` for a plot whose data is absent or unusable."""
    return "\n".join(
        [
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {WIDTH} 120" '
            f'width="{WIDTH}" height="120" role="img" class="plot plot-empty">',
            f'<rect width="{WIDTH}" height="120" fill="#f9fafb"/>',
            f'<text x="{WIDTH // 2}" y="52" text-anchor="middle" font-size="13" '
            f'fill="#6b7280">{_escape(title)}</text>',
            f'<text x="{WIDTH // 2}" y="76" text-anchor="middle" font-size="11" '
            f'fill="#9ca3af">no plottable data</text>',
            "</svg>",
        ]
    )
