"""Tests for the distributed MST algorithms against networkx ground truth."""

import math
import random

import networkx as nx
import pytest

from repro.algorithms.mst import (
    _min_outgoing,
    collect_tree_edges,
    edge_key,
    run_boruvka_mst,
    run_gkp_mst,
    tree_weight,
)
from repro.congest.network import CongestNetwork
from repro.congest.node import NodeProgram
from repro.graphs.generators import random_connected_graph


def weighted_graph(n: int, seed: int, extra: float = 0.3) -> nx.Graph:
    graph = random_connected_graph(n, extra_edge_prob=extra, seed=seed)
    rng = random.Random(seed + 1)
    weights = rng.sample(range(1, 10 * graph.number_of_edges() + 1), graph.number_of_edges())
    for (u, v), w in zip(graph.edges(), weights):
        graph.edges[u, v]["weight"] = float(w)
    return graph


def reference_mst_weight(graph: nx.Graph) -> float:
    tree = nx.minimum_spanning_tree(graph, weight="weight")
    return sum(d["weight"] for _, _, d in tree.edges(data=True))


class TestEdgeKey:
    def test_symmetric(self):
        assert edge_key(3.0, "a", "b") == edge_key(3.0, "b", "a")

    def test_weight_dominates(self):
        assert edge_key(1.0, "z", "z2") < edge_key(2.0, "a", "b")


class TestFragmentMinimumScan:
    """The per-neighbour scan both MST programs use to find a node's
    lightest edge out of its fragment, against a brute-force minimum."""

    @staticmethod
    def _tied_weights(n, seed):
        # Few distinct weights, so the edge-key tie-break decides often.
        graph = random_connected_graph(n, extra_edge_prob=0.3, seed=seed)
        rng = random.Random(seed + 100)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = float(rng.randrange(1, 50))
        return graph

    @staticmethod
    def _brute_force(graph, u, label_of, my_label):
        return min(
            (
                (edge_key(graph.edges[u, v]["weight"], u, v), u, v)
                for v in graph.neighbors(u)
                if label_of.get(repr(v), my_label) != my_label
            ),
            default=None,
        )

    @pytest.mark.parametrize("seed", [1, 9])
    def test_min_outgoing_matches_brute_force(self, seed):
        graph = self._tied_weights(14, seed)
        network = CongestNetwork(graph, NodeProgram)
        rng = random.Random(seed)
        # A neighbour with no label yet counts as the node's own fragment.
        label_of = {repr(v): rng.randrange(3) for v in graph.nodes() if rng.random() < 0.9}
        for u, node in network.nodes.items():
            my_label = label_of.get(repr(u), 0)
            expected = self._brute_force(graph, u, label_of, my_label)
            assert _min_outgoing(node, label_of, my_label) == expected


class TestBoruvka:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_networkx(self, seed):
        graph = weighted_graph(12, seed)
        edges, result = run_boruvka_mst(graph, bandwidth=128)
        assert result.halted
        assert len(edges) == graph.number_of_nodes() - 1
        assert tree_weight(graph, edges) == pytest.approx(reference_mst_weight(graph))

    def test_on_path_graph(self):
        graph = nx.path_graph(8)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = float(u + 1)
        edges, _ = run_boruvka_mst(graph, bandwidth=128)
        assert len(edges) == 7  # the path itself

    def test_single_fragment_label(self):
        graph = weighted_graph(10, 7)
        _, result = run_boruvka_mst(graph, bandwidth=128)
        labels = {repr(out["label"]) for out in result.outputs.values()}
        assert len(labels) == 1

    def test_tree_is_acyclic_and_spanning(self):
        graph = weighted_graph(15, 9)
        edges, _ = run_boruvka_mst(graph, bandwidth=128)
        tree = nx.Graph()
        tree.add_nodes_from(graph.nodes())
        tree.add_edges_from(tuple(e) for e in edges)
        assert nx.is_connected(tree)
        assert tree.number_of_edges() == 14


class TestGKP:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_networkx(self, seed):
        graph = weighted_graph(14, seed)
        edges, result = run_gkp_mst(graph, bandwidth=128)
        assert result.halted
        assert len(edges) == graph.number_of_nodes() - 1
        assert tree_weight(graph, edges) == pytest.approx(reference_mst_weight(graph))

    def test_larger_instance(self):
        graph = weighted_graph(30, 11, extra=0.15)
        edges, result = run_gkp_mst(graph, bandwidth=128)
        assert tree_weight(graph, edges) == pytest.approx(reference_mst_weight(graph))

    def test_round_shape_sublinear_vs_boruvka(self):
        # Boruvka runs (merge iterations + 1) iterations of about
        # 2(n + 1) + 4 rounds each, so its rounds grow about linearly in n;
        # the two-phase algorithm's grow more slowly: the ratio must
        # improve with n.
        small = weighted_graph(20, 13, extra=0.2)
        large = weighted_graph(120, 13, extra=0.03)
        _, gkp_small = run_gkp_mst(small, bandwidth=128)
        _, bor_small = run_boruvka_mst(small, bandwidth=128)
        _, gkp_large = run_gkp_mst(large, bandwidth=128)
        _, bor_large = run_boruvka_mst(large, bandwidth=128)
        ratio_small = gkp_small.rounds / bor_small.rounds
        ratio_large = gkp_large.rounds / bor_large.rounds
        assert ratio_large < ratio_small

    def test_dense_graph(self):
        graph = weighted_graph(12, 17, extra=0.9)
        edges, _ = run_gkp_mst(graph, bandwidth=128)
        assert tree_weight(graph, edges) == pytest.approx(reference_mst_weight(graph))
