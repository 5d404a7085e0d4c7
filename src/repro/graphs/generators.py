"""Instance generators for the scenarios and tests.

These produce the concrete workloads on which the paper's predicates,
algorithms and bound formulas are exercised: random connected graphs, weighted
graphs with a prescribed aspect ratio, kNN-geometric graphs (all-pairs
scans), and pairs of perfect matchings whose union has a given number of
cycles (Server-model Ham inputs).
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Hashable, Mapping

import networkx as nx

Edge = tuple[Hashable, Hashable]
Point = tuple[float, float]


def knn_geometric_graph(pos: Mapping[Hashable, Point], k: int = 3) -> nx.Graph:
    """The k-nearest-neighbour graph of labelled planar points.

    Nodes are added in ``pos`` iteration order and each node's edges in
    order of distance, ties broken by ``pos`` order, so node order, edge
    orientation and edge insertion order all match
    ``sorted(others, key=distance)[:k]``.
    """
    order = {v: i for i, v in enumerate(pos)}
    graph = nx.Graph()
    graph.add_nodes_from(pos)
    for u, pu in pos.items():
        nearest = heapq.nsmallest(
            k, ((math.dist(pu, pv), order[v], v) for v, pv in pos.items() if v != u)
        )
        for _, _, v in nearest:
            graph.add_edge(u, v)
    return graph


def connect_nearest_components(graph: nx.Graph, pos: Mapping[Hashable, Point]) -> None:
    """Bridge ``graph``'s components with their closest cross-pairs, in place.

    Repeats the classic kNN-graph repair -- join the first component to
    whichever other component has the closest point pair -- until the
    graph is connected.  Ties go to the earlier ``a`` in the first
    component, then to the earlier ``b`` in the later components, each
    component taken in ascending label order.
    """
    while not nx.is_connected(graph):
        first, *rest = [sorted(c) for c in nx.connected_components(graph)]
        later = [b for component in rest for b in component]
        _, _, _, a, b = min(
            (math.dist(pos[a], pos[b]), i, j, a, b)
            for i, a in enumerate(first)
            for j, b in enumerate(later)
        )
        graph.add_edge(a, b)


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
