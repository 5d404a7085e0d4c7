"""Instance generators for the scenarios and tests.

These produce the concrete workloads on which the paper's predicates,
algorithms and bound formulas are exercised: random connected graphs, weighted
graphs with a prescribed aspect ratio, kNN-geometric graphs (grid-indexed,
~O(n * k) construction), and pairs of perfect matchings whose union has a
given number of cycles (Server-model Ham inputs).
"""

from __future__ import annotations

import math
import random
from typing import Hashable, Mapping

import networkx as nx

from repro.graphs.spatial import GridIndex

Edge = tuple[Hashable, Hashable]
Point = tuple[float, float]


def knn_geometric_graph(
    pos: Mapping[Hashable, Point], k: int = 3, index: GridIndex | None = None
) -> nx.Graph:
    """The k-nearest-neighbour graph of labelled planar points.

    Built from a :class:`~repro.graphs.spatial.GridIndex` in ~O(n * k)
    expected instead of the all-pairs O(n^2) scan, but byte-identical to
    it: nodes are added in ``pos`` iteration order, each node's edges in
    its brute-force candidate order (distance, then ``pos`` order on
    ties), so node order, edge orientation and edge insertion order all
    match ``sorted(others, key=distance)[:k]`` exactly.
    """
    if index is None:
        index = GridIndex(pos)
    graph = nx.Graph()
    graph.add_nodes_from(pos)
    for u in pos:
        for v in index.nearest(u, k):
            graph.add_edge(u, v)
    return graph


def connect_nearest_components(
    graph: nx.Graph, pos: Mapping[Hashable, Point], index: GridIndex | None = None
) -> None:
    """Bridge ``graph``'s components with their closest cross-pairs, in place.

    Repeats the classic kNN-graph repair -- join the first component to
    whichever other component has the closest point pair -- until the
    graph is connected, with each candidate pair found by a grid query
    instead of a component x component distance scan.  Tie-breaking
    reproduces the brute-force ``min`` over ``(a in comp0, b in later
    components)`` iteration order exactly.
    """
    if index is None:
        index = GridIndex(pos)
    while not nx.is_connected(graph):
        components = [sorted(c) for c in nx.connected_components(graph)]
        # Candidate rank = b's position in the brute-force iteration order
        # (components after the first, each ascending); doubles as the
        # "not in component 0" filter.
        b_rank: dict[Hashable, int] = {}
        for component in components[1:]:
            for b in component:
                b_rank[b] = len(b_rank)
        best = None
        for a_rank, a in enumerate(components[0]):
            hits = index.nearest(a, 1, rank=b_rank)
            if not hits:
                continue
            b = hits[0]
            key = (math.dist(pos[a], pos[b]), a_rank, b_rank[b])
            if best is None or key < best[0]:
                best = (key, a, b)
        assert best is not None, "disconnected graph with no cross-component pair"
        graph.add_edge(best[1], best[2])


def random_connected_graph(n: int, extra_edge_prob: float = 0.15, seed: int | None = None) -> nx.Graph:
    """A random connected graph: a random spanning tree plus random extra edges."""
    rng = random.Random(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    nodes = list(range(n))
    rng.shuffle(nodes)
    for i in range(1, n):
        graph.add_edge(nodes[i], nodes[rng.randrange(i)])
    for u in range(n):
        for v in range(u + 1, n):
            if not graph.has_edge(u, v) and rng.random() < extra_edge_prob:
                graph.add_edge(u, v)
    return graph


def random_weighted_graph(
    n: int,
    aspect_ratio: float = 10.0,
    extra_edge_prob: float = 0.15,
    seed: int | None = None,
) -> nx.Graph:
    """Random connected graph whose weights realise the given aspect ratio.

    Edge weights are drawn uniformly from ``[1, W]`` and one edge each is
    pinned to the extremes so the realised aspect ratio is exactly ``W``.
    """
    if aspect_ratio < 1:
        raise ValueError("aspect ratio must be at least 1")
    rng = random.Random(seed)
    graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=seed)
    edges = list(graph.edges())
    for u, v in edges:
        graph.edges[u, v]["weight"] = rng.uniform(1.0, aspect_ratio)
    if len(edges) >= 2:
        graph.edges[edges[0]]["weight"] = 1.0
        graph.edges[edges[-1]]["weight"] = float(aspect_ratio)
    return graph


def matching_pair_for_cycles(n: int, n_cycles: int, seed: int | None = None) -> tuple[list[Edge], list[Edge]]:
    """Two perfect matchings on ``n`` nodes whose union is ``n_cycles`` cycles.

    This is the Server-model Hamiltonian input format (Definition 3.3, where
    Carol's and David's edge sets are both perfect matchings): the union of two
    perfect matchings is always a disjoint union of even cycles; we control the
    number of cycles to produce 1-inputs (Hamiltonian) or far inputs.
    """
    if n % 2 != 0 or n < 4 * n_cycles:
        raise ValueError("need even n >= 4 * n_cycles")
    rng = random.Random(seed)
    nodes = list(range(n))
    rng.shuffle(nodes)
    sizes = [4] * n_cycles
    remaining = (n - 4 * n_cycles) // 2
    for _ in range(remaining):
        sizes[rng.randrange(n_cycles)] += 2
    carol: list[Edge] = []
    david: list[Edge] = []
    start = 0
    for size in sizes:
        cycle = nodes[start : start + size]
        for i in range(0, size, 2):
            carol.append((cycle[i], cycle[i + 1]))
            david.append((cycle[i + 1], cycle[(i + 2) % size]))
        start += size
    return carol, david
