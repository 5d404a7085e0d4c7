"""Tests for the greedy linear-size spanner, its oracles and its distributed runner."""

import math
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.spanning_structures import (
    greedy_spanner,
    run_linear_size_spanner,
    spanner_max_stretch,
)
from repro.graphs.generators import random_connected_graph


def weighted(n: int, seed: int, extra: float = 0.3) -> nx.Graph:
    graph = random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rng = random.Random(seed + 100)
    for u, v in graph.edges():
        graph.edges[u, v]["weight"] = rng.uniform(1.0, 10.0)
    return graph


class TestGreedySpanner:
    @pytest.mark.parametrize("seed,k", [(0, 2), (1, 3), (2, 2)])
    def test_stretch_guarantee(self, seed, k):
        graph = weighted(20, seed, extra=0.4)
        spanner = greedy_spanner(graph, k)
        assert set(spanner.nodes()) == set(graph.nodes())
        assert nx.is_connected(spanner)
        assert spanner_max_stretch(graph, spanner) <= 2 * k - 1 + 1e-9

    def test_linear_size_at_log_k(self):
        import math

        n = 60
        graph = weighted(n, 3, extra=0.5)
        k = math.ceil(math.log2(n))
        spanner = greedy_spanner(graph, k)
        # Girth > 2k forces O(n) edges at k = ceil(log2 n); the constant
        # here is generous (the greedy spanner is usually near a tree).
        assert spanner.number_of_edges() < 2 * n
        assert spanner.number_of_edges() < graph.number_of_edges()

    def test_k1_keeps_shortest_path_metric(self):
        # Stretch 1: the spanner must preserve every pairwise distance.
        graph = weighted(10, 4, extra=0.6)
        spanner = greedy_spanner(graph, 1)
        assert spanner_max_stretch(graph, spanner) == pytest.approx(1.0)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            greedy_spanner(weighted(8, 5), 0)

    def test_distributed_runner(self):
        graph = weighted(14, 6)
        summary, result = run_linear_size_spanner(graph, 2)
        assert result.halted
        assert summary["spanner_edges"] <= summary["m"]
        assert summary["max_stretch"] <= 3.0 + 1e-9


# -- networkx references: one Dijkstra per edge --------------------------------


def reference_greedy_spanner(graph, stretch_k, weight="weight"):
    t = 2 * stretch_k - 1
    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes())
    for u, v, data in sorted(graph.edges(data=True), key=lambda e: (e[2][weight], repr(e[:2]))):
        w = data[weight]
        try:
            current = nx.dijkstra_path_length(spanner, u, v, weight=weight)
        except nx.NetworkXNoPath:
            current = float("inf")
        if current > t * w:
            spanner.add_edge(u, v, **{weight: w})
    return spanner


def reference_spanner_max_stretch(graph, spanner, weight="weight"):
    worst = 1.0
    for u, v, data in graph.edges(data=True):
        d = nx.dijkstra_path_length(spanner, u, v, weight=weight)
        worst = max(worst, d / data[weight])
    return worst


WEIGHTS = {
    "float": st.floats(min_value=1e-3, max_value=1e3),
    # Tenths: path sums land on or next to other weights, and round
    # differently in different orders (0.1 + 0.2 != 0.3).
    "float-ties": st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]),
    "int-ties": st.integers(min_value=1, max_value=3),
}


@st.composite
def spanner_cases(draw):
    """A random connected weighted graph (node insertion order shuffled, so
    edge orientation varies), with int or repr-string labels, and a k."""
    n = draw(st.integers(min_value=2, max_value=14))
    label = draw(st.sampled_from([int, repr]))
    weights = WEIGHTS[draw(st.sampled_from(sorted(WEIGHTS)))]
    order = draw(st.permutations(range(n)))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges |= {(a, b) for a, b in draw(st.lists(pairs, max_size=2 * n)) if a != b}
    graph = nx.Graph()
    graph.add_nodes_from(label(node) for node in order)
    for a, b in sorted(edges):
        graph.add_edge(label(a), label(b), weight=draw(weights))
    k = draw(st.sampled_from([1, 2, max(1, math.ceil(math.log2(n)))]))
    return graph, k


class TestSpannerOraclesMatchNetworkx:
    @given(spanner_cases())
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_reference(self, case):
        graph, k = case
        spanner = greedy_spanner(graph, k)
        reference = reference_greedy_spanner(graph, k)
        assert list(spanner.nodes()) == list(reference.nodes())
        assert list(spanner.edges(data=True)) == list(reference.edges(data=True))
        assert spanner_max_stretch(graph, spanner) == reference_spanner_max_stretch(
            graph, reference
        )

    @pytest.mark.parametrize(
        "order,chord_kept", [((0, 1, 2, 3, 4, 5), False), ((4, 3, 2, 1, 0, 5), True)]
    )
    def test_distances_are_summed_from_the_edge_source(self, order, chord_kept):
        # Along the path 0-1-2-3-4, 0.1 + 0.2 + 0.1 + 0.3 == 0.7 summed from
        # node 0 but exceeds 0.7 summed from node 4, so at k = 1 the chord
        # 0-4 (weight 0.7) is kept iff graph.edges() lists it from 4.  Edge
        # 0-5 makes node 0 search, and cache its row, before the chord.
        graph = nx.Graph()
        graph.add_nodes_from(order)
        for a, b, w in [(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.1), (3, 4, 0.3), (0, 5, 0.5), (0, 4, 0.7)]:
            graph.add_edge(a, b, weight=w)
        spanner = greedy_spanner(graph, 1)
        assert spanner.has_edge(0, 4) == chord_kept
        reference = reference_greedy_spanner(graph, 1)
        assert list(spanner.edges(data=True)) == list(reference.edges(data=True))
        assert spanner_max_stretch(graph, spanner) == reference_spanner_max_stretch(graph, spanner)

    def test_unconnected_or_missing_endpoint_raises(self):
        graph = nx.path_graph(3)
        nx.set_edge_attributes(graph, 1.0, "weight")
        spanner = nx.Graph()
        spanner.add_nodes_from(graph.nodes())
        spanner.add_edge(0, 1, weight=1.0)
        for oracle in (spanner_max_stretch, reference_spanner_max_stretch):
            with pytest.raises(nx.NetworkXNoPath):
                oracle(graph, spanner)
            # Edge (0, 1) searches from node 0, which this spanner lacks.
            with pytest.raises(nx.NodeNotFound):
                oracle(graph, nx.Graph([(1, 2)]))

