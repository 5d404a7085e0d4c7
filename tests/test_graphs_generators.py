"""Tests for the instance generators.

The geometric generators are checked against the all-pairs definitions
they implement: a stable sort of every other point by distance for the
kNN graph, and a brute-force ``min`` over cross-component pairs for the
bridging, down to edge order, orientation and tie order.
"""

import math
import random

import networkx as nx
import pytest

from repro.graphs import generators as gen


class TestGenerators:
    def test_random_connected(self):
        for seed in range(5):
            g = gen.random_connected_graph(20, seed=seed)
            assert nx.is_connected(g)
            assert g.number_of_nodes() == 20

    def test_weighted_aspect_ratio(self):
        g = gen.random_weighted_graph(15, aspect_ratio=50.0, seed=3)
        weights = [w for _, _, w in g.edges(data="weight")]
        assert max(weights) / min(weights) == pytest.approx(50.0)

    def test_matching_pair_cycle_count(self):
        for n_cycles in (1, 2, 3):
            carol, david = gen.matching_pair_for_cycles(16, n_cycles, seed=7)
            union = nx.Graph()
            union.add_edges_from(carol)
            union.add_edges_from(david)
            assert nx.number_connected_components(union) == n_cycles
            assert all(d == 2 for _, d in union.degree())

    def test_matching_pair_rejects_odd(self):
        with pytest.raises(ValueError):
            gen.matching_pair_for_cycles(10, 3)

    @pytest.mark.parametrize("n_cycles", [1, 2, 3])
    def test_matching_pair_sides_are_perfect_matchings(self, n_cycles):
        carol, david = gen.matching_pair_for_cycles(20, n_cycles, seed=n_cycles)
        for side in (carol, david):
            assert len(side) == 10
            assert sorted(v for edge in side for v in edge) == list(range(20))
        assert not {frozenset(e) for e in carol} & {frozenset(e) for e in david}

    def test_weighted_rejects_aspect_ratio_below_one(self):
        with pytest.raises(ValueError):
            gen.random_weighted_graph(10, aspect_ratio=0.5)


def _points(seed, n):
    rng = random.Random(seed)
    return {i: (rng.random() * 10, rng.random() * 10) for i in range(n)}


def _knn_reference(pos, k):
    """The kNN definition: each node's first ``k`` others by a stable sort on
    distance, so ties keep ``pos`` order."""
    reference = nx.Graph()
    reference.add_nodes_from(pos)
    for u in pos:
        others = sorted((v for v in pos if v != u), key=lambda v: math.dist(pos[u], pos[v]))
        for v in others[:k]:
            reference.add_edge(u, v)
    return reference


def _bridged_reference(graph, pos):
    """A copy of ``graph`` joined by the closest cross pair from its first
    component to the later ones until connected; ties go to the first pair
    in ``(a in component 0, b in later components)`` iteration order."""
    graph = graph.copy()
    while not nx.is_connected(graph):
        first, *rest = [sorted(c) for c in nx.connected_components(graph)]
        a, b = min(
            ((a, b) for a in first for component in rest for b in component),
            key=lambda pair: math.dist(pos[pair[0]], pos[pair[1]]),
        )
        graph.add_edge(a, b)
    return graph


def _assert_same_graph(graph, reference):
    assert list(graph.nodes()) == list(reference.nodes())
    # Edge *insertion order and orientation*, not just the edge set:
    # downstream weight assignment iterates edges() in insertion order.
    assert list(graph.edges()) == list(reference.edges())


class TestKnnGraphDefinition:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_equals_stable_sort_reference(self, seed, n):
        pos = _points(seed, n)
        for k in (1, 3, n):
            _assert_same_graph(gen.knn_geometric_graph(pos, k), _knn_reference(pos, k))

    def test_exact_ties_follow_pos_order(self):
        # Four corners equidistant from the centre: the centre's edges come
        # in the points' insertion order, exactly like a stable sort.
        pos = {"c": (0.0, 0.0), "e": (1.0, 0.0), "n": (0.0, 1.0), "w": (-1.0, 0.0), "s": (0.0, -1.0)}
        graph = gen.knn_geometric_graph(pos, 4)
        assert list(graph["c"]) == ["e", "n", "w", "s"]
        _assert_same_graph(graph, _knn_reference(pos, 4))

    def test_duplicate_coordinates(self):
        pos = {0: (1.0, 1.0), 1: (1.0, 1.0), 2: (1.0, 1.0), 3: (5.0, 5.0)}
        graph = gen.knn_geometric_graph(pos, 3)
        assert list(graph[1]) == [0, 2, 3]
        _assert_same_graph(graph, _knn_reference(pos, 3))

    def test_k_above_population(self):
        pos = {0: (0.0, 0.0), 1: (1.0, 0.0)}
        assert list(gen.knn_geometric_graph(pos, 10).edges()) == [(0, 1)]
        assert list(gen.knn_geometric_graph(pos, 0).edges()) == []

    def test_empty_pos(self):
        graph = gen.knn_geometric_graph({}, 3)
        assert graph.number_of_nodes() == 0


class TestGeneratorsMatchBruteForce:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [5, 20, 60, 96])
    def test_knn_graph_identical_to_all_pairs_scan(self, seed, n):
        pos = _points(seed, n)
        _assert_same_graph(gen.knn_geometric_graph(pos, k=3), _knn_reference(pos, 3))

    @pytest.mark.parametrize("seed", range(6))
    def test_component_bridging_identical_to_brute_force(self, seed):
        rng = random.Random(seed)
        # Three clusters far apart: the kNN graph is disconnected.
        pos = {}
        for c, (cx, cy) in enumerate([(0, 0), (40, 0), (0, 40)]):
            for i in range(7):
                pos[7 * c + i] = (cx + rng.random(), cy + rng.random())
        base = gen.knn_geometric_graph(pos, k=2)
        assert not nx.is_connected(base)
        bridged = base.copy()
        gen.connect_nearest_components(bridged, pos)
        assert nx.is_connected(bridged)
        _assert_same_graph(bridged, _bridged_reference(base, pos))

    # Uniform points whose kNN-3 graph falls apart into 2-4 components, as
    # the geometric Borůvka instances (n = 64 and 96) sometimes do.
    @pytest.mark.parametrize(
        "n, seed", [(64, 3), (64, 4), (64, 15), (64, 26), (96, 0), (96, 15), (96, 18), (96, 22)]
    )
    def test_bridging_random_points(self, n, seed):
        pos = _points(seed, n)
        base = gen.knn_geometric_graph(pos, k=3)
        assert not nx.is_connected(base)
        bridged = base.copy()
        gen.connect_nearest_components(bridged, pos)
        assert nx.is_connected(bridged)
        _assert_same_graph(bridged, _bridged_reference(base, pos))

    def test_bridging_ties_follow_component_order(self):
        # Node 0 is 3 away from both 5 (second component) and 2 (third):
        # the earlier component wins although 2 < 5.
        pos = {0: (0.0, 0.0), 1: (0.0, 1.0), 5: (3.0, 0.0), 6: (3.0, 0.5), 2: (-3.0, 0.0), 3: (-3.0, -0.5)}
        base = gen.knn_geometric_graph(pos, k=1)
        bridged = base.copy()
        gen.connect_nearest_components(bridged, pos)
        assert list(bridged[0]) == [1, 5, 2]
        _assert_same_graph(bridged, _bridged_reference(base, pos))
