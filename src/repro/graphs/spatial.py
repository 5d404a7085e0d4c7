"""Spatial indexes for geometric instance generators.

The kNN-geometric and component-bridging steps of the Boruvka sweep
instances used to be all-pairs O(n^2) scans; :class:`GridIndex` answers
the same queries from a stdlib uniform-grid bucketing in ~O(k) expected
per query, so topology construction is ~O(n * k).

Determinism contract: a query returns candidates ordered by
``(distance, rank)`` where ``rank`` is the point's insertion order (or a
caller-supplied rank map) -- exactly the order a stable
``sorted(candidates, key=distance)`` over insertion-ordered candidates
produces.  The generators rely on this to stay byte-identical to the
brute-force scans they replaced; the property tests in
``tests/test_graphs_spatial.py`` pin it down.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterable, Mapping

Point = tuple[float, float]


class GridIndex:
    """Uniform-grid bucketing over labelled 2D points.

    Cells are square with side ``cell`` = spread / sqrt(n), about one
    point per cell for uniform data.  :meth:`nearest` runs an
    expanding ring search: after scanning rings ``0..r``, every unscanned
    point is farther than ``r * cell`` from the query point, so the
    search stops as soon as the k-th best found distance is within that
    bound -- the result is exact, including tie order.
    """

    def __init__(self, points: Mapping[Hashable, Point]):
        self._points: dict[Hashable, Point] = dict(points)
        self._rank = {label: i for i, label in enumerate(self._points)}
        coords = list(self._points.values())
        if coords:
            xs = [p[0] for p in coords]
            ys = [p[1] for p in coords]
            spread = max(max(xs) - min(xs), max(ys) - min(ys))
        else:
            spread = 0.0
        cell = max(spread, 1e-9) / max(1.0, math.sqrt(max(1, len(coords))))
        self.cell = cell
        self._buckets: dict[tuple[int, int], list[Hashable]] = {}
        for label, (x, y) in self._points.items():
            key = (math.floor(x / cell), math.floor(y / cell))
            bucket = self._buckets.get(key)
            if bucket is None:
                self._buckets[key] = [label]
            else:
                bucket.append(label)
        if self._buckets:
            keys = list(self._buckets)
            self._min_bx = min(k[0] for k in keys)
            self._max_bx = max(k[0] for k in keys)
            self._min_by = min(k[1] for k in keys)
            self._max_by = max(k[1] for k in keys)

    def nearest(
        self,
        origin: Hashable,
        k: int = 1,
        rank: Mapping[Hashable, int] | None = None,
    ) -> list[Hashable]:
        """The ``k`` points nearest to ``origin`` (itself excluded), ordered
        by ``(distance, rank)``.

        Candidates missing from a caller-supplied ``rank`` map are dropped,
        so a rank map doubles as a candidate filter.
        """
        return self.nearest_point(self._points[origin], k, exclude={origin}, rank=rank)

    def nearest_point(
        self,
        point: Point,
        k: int = 1,
        exclude: Iterable[Hashable] = (),
        rank: Mapping[Hashable, int] | None = None,
    ) -> list[Hashable]:
        """:meth:`nearest` for an arbitrary query location."""
        if k < 1 or not self._buckets:
            return []
        excluded = exclude if isinstance(exclude, (set, frozenset)) else set(exclude)
        ranks: Mapping[Hashable, int] = self._rank if rank is None else rank
        x, y = point
        cell = self.cell
        cx = math.floor(x / cell)
        cy = math.floor(y / cell)
        max_r = max(
            abs(cx - self._min_bx),
            abs(cx - self._max_bx),
            abs(cy - self._min_by),
            abs(cy - self._max_by),
        )
        points = self._points
        buckets = self._buckets
        found: list[tuple[float, int, Hashable]] = []
        for r in range(max_r + 1):
            for key in _ring(cx, cy, r):
                for label in buckets.get(key, ()):
                    if label in excluded:
                        continue
                    candidate_rank = ranks.get(label)
                    if candidate_rank is None:
                        continue
                    # math.dist, not hypot: bit-identical to the brute-force
                    # scans these queries replaced, so tie order is too.
                    found.append((math.dist(point, points[label]), candidate_rank, label))
            if len(found) >= k:
                found.sort()
                # Unscanned cells are > r * cell away; nothing out there
                # can beat (or tie) the current k-th best.
                if found[k - 1][0] <= r * cell:
                    return [label for _, _, label in found[:k]]
        found.sort()
        return [label for _, _, label in found[:k]]


def _ring(cx: int, cy: int, r: int) -> Iterable[tuple[int, int]]:
    """Bucket keys at Chebyshev distance exactly ``r`` from ``(cx, cy)``."""
    if r == 0:
        yield (cx, cy)
        return
    for bx in range(cx - r, cx + r + 1):
        yield (bx, cy - r)
        yield (bx, cy + r)
    for by in range(cy - r + 1, cy + r):
        yield (cx - r, by)
        yield (cx + r, by)

