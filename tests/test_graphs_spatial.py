"""Spatial index property tests: the grid must equal the brute-force scan.

The generators replaced their all-pairs O(n^2) scans with
:class:`~repro.graphs.spatial.GridIndex` queries on the promise of
byte-identical output; these tests check the promise directly -- every
query result, including tie order, equals the stable
``sorted(candidates, key=(distance, rank))`` reference -- and then check
the two generator entry points end to end against their brute-force
re-implementations.
"""

import math
import random

import networkx as nx
import pytest

from repro.graphs.generators import connect_nearest_components, knn_geometric_graph
from repro.graphs.spatial import GridIndex


def _points(seed, n, spread=10.0):
    rng = random.Random(seed)
    return {i: (rng.random() * spread, rng.random() * spread) for i in range(n)}


def _brute_nearest(points, origin, k, exclude=(), rank=None):
    """The reference semantics: stable sort by (distance, rank)."""
    ranks = {label: i for i, label in enumerate(points)} if rank is None else rank
    excluded = {origin, *exclude}
    candidates = [
        (math.dist(points[origin], points[label]), ranks[label], label)
        for label in points
        if label not in excluded and label in ranks
    ]
    candidates.sort()
    return [label for _, _, label in candidates[:k]]


class TestGridIndexProperties:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_knn_equals_brute_force(self, seed, n):
        points = _points(seed, n)
        index = GridIndex(points)
        rng = random.Random(seed + 1000)
        for origin in points:
            for k in (1, 3, n):
                assert index.nearest(origin, k) == _brute_nearest(points, origin, k)
            exclude = {v for v in points if rng.random() < 0.25}
            assert index.nearest_point(
                points[origin], 2, exclude={origin, *exclude}
            ) == _brute_nearest(points, origin, 2, exclude=exclude)

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_map_filters_and_orders(self, seed):
        points = _points(seed, 30)
        rng = random.Random(seed + 7)
        members = [v for v in points if rng.random() < 0.4]
        rank = {v: i for i, v in enumerate(reversed(members))}
        index = GridIndex(points)
        for origin in points:
            got = index.nearest(origin, 3, rank=rank)
            assert got == _brute_nearest(points, origin, 3, rank=rank)
            assert all(v in rank for v in got)

    def test_exact_ties_follow_insertion_rank(self):
        # Four corners equidistant from the centre: order must be the
        # points' insertion order, exactly like a stable sorted() scan.
        points = {"c": (0.0, 0.0), "e": (1.0, 0.0), "n": (0.0, 1.0), "w": (-1.0, 0.0), "s": (0.0, -1.0)}
        index = GridIndex(points)
        assert index.nearest("c", 4) == ["e", "n", "w", "s"]

    def test_duplicate_coordinates(self):
        points = {0: (1.0, 1.0), 1: (1.0, 1.0), 2: (1.0, 1.0), 3: (5.0, 5.0)}
        index = GridIndex(points)
        assert index.nearest(1, 3) == [0, 2, 3]

    def test_k_larger_than_population_and_empty(self):
        points = {0: (0.0, 0.0), 1: (1.0, 0.0)}
        index = GridIndex(points)
        assert index.nearest(0, 10) == [1]
        assert index.nearest(0, 0) == []
        assert GridIndex({}).nearest_point((0.0, 0.0), 3) == []


class TestGeneratorsMatchBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [5, 20, 60])
    def test_knn_graph_identical_to_all_pairs_scan(self, seed, n):
        rng = random.Random(seed)
        pos = {v: (rng.random() * 10, rng.random() * 10) for v in range(n)}
        k = 3
        reference = nx.Graph()
        reference.add_nodes_from(pos)
        for u in pos:
            others = [v for v in pos if v != u]
            others.sort(key=lambda v: math.dist(pos[u], pos[v]))
            for v in others[:k]:
                reference.add_edge(u, v)
        graph = knn_geometric_graph(pos, k=k)
        assert list(graph.nodes()) == list(reference.nodes())
        # Edge *insertion order and orientation*, not just the edge set:
        # downstream weight assignment iterates edges() in insertion order.
        assert list(graph.edges()) == list(reference.edges())

    @pytest.mark.parametrize("seed", range(6))
    def test_component_bridging_identical_to_brute_force(self, seed):
        rng = random.Random(seed)
        # Three clusters far apart: the kNN graph is disconnected.
        pos = {}
        for c, (cx, cy) in enumerate([(0, 0), (40, 0), (0, 40)]):
            for i in range(7):
                pos[7 * c + i] = (cx + rng.random(), cy + rng.random())
        base = knn_geometric_graph(pos, k=2)
        assert not nx.is_connected(base)

        brute = base.copy()
        while not nx.is_connected(brute):
            components = [sorted(c) for c in nx.connected_components(brute)]
            best = min(
                (math.dist(pos[a], pos[b]), a, b)
                for a in components[0]
                for comp in components[1:]
                for b in comp
            )
            brute.add_edge(best[1], best[2])

        indexed = base.copy()
        connect_nearest_components(indexed, pos)
        assert nx.is_connected(indexed)
        assert list(indexed.edges()) == list(brute.edges())

