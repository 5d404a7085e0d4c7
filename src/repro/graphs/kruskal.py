"""Kruskal's minimum spanning forest, the centralised MST of the package.

:func:`minimum_spanning_forest` computes the exact MSTs that
``gkp-cap-ablation`` and ``mst-under-faults`` check their distributed runs
against, the quantised weight Elkin's runner returns and the Section 9.2
weight gadget.  Ties break in the order the edges are given, as networkx's
Kruskal breaks them, so fed ``graph.edges(data="weight")`` it picks the
tree networkx picks; tests hold it against networkx.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable, Iterable


def minimum_spanning_forest(
    edges: Iterable[tuple[float, Hashable, Hashable]],
) -> tuple[float, list[tuple[Hashable, Hashable]]]:
    """Kruskal over ``(weight, u, v)`` edges: the minimum spanning forest's
    weight and its edges, in the order Kruskal takes them.

    The sort is stable, so equal weights keep the order given, and the
    weight is summed in that order.  The union-find halves paths.
    """
    parent: dict[Hashable, Hashable] = {}

    def find(v: Hashable) -> Hashable:
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    weight = 0.0
    forest = []
    for w, u, v in sorted(edges, key=itemgetter(0)):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            weight += w
            forest.append((u, v))
    return weight, forest
