"""Tests for shortest paths, the verification suite, Elkin approx-MST
and distributed Disjointness."""

import math
import random

import networkx as nx
import pytest

pytest.importorskip("numpy")  # the verification stack is numpy-bound

from repro.algorithms.disjointness import (
    run_classical_disjointness,
    run_quantum_disjointness,
)
from repro.algorithms.elkin import quantise_weights, run_elkin_approx_mst
from repro.algorithms.paths import run_refreshing_bellman_ford
from repro.algorithms.verification import VERIFIERS, run_verification
from repro.congest.topology import dumbbell_graph
from repro.experiments.registry import get_scenario
from repro.experiments.scenarios import _fig3_graph
from repro.experiments.sweep import expand_grid
from repro.graphs import properties as props
from repro.graphs.generators import random_connected_graph
from repro.graphs.kruskal import minimum_spanning_forest


def weighted(graph: nx.Graph, seed: int = 0) -> nx.Graph:
    rng = random.Random(seed)
    for u, v in graph.edges():
        graph.edges[u, v]["weight"] = rng.uniform(1.0, 10.0)
    return graph


#: A fixed horizon past every instance's hop depth: the refreshing
#: Bellman-Ford never quiesces.
HORIZON = 60


class TestShortestPaths:
    def test_bfs_distances_match_networkx(self):
        graph = random_connected_graph(20, seed=1)
        distances, result = run_refreshing_bellman_ford(
            graph, 0, weighted=False, max_rounds=HORIZON
        )
        expected = nx.single_source_shortest_path_length(graph, 0)
        assert {k: int(v) for k, v in distances.items()} == dict(expected)

    def test_bellman_ford_weighted(self):
        graph = weighted(random_connected_graph(15, seed=2), seed=3)
        distances, _ = run_refreshing_bellman_ford(graph, 0, max_rounds=HORIZON)
        expected = nx.single_source_dijkstra_path_length(graph, 0)
        for node, dist in expected.items():
            assert distances[node] == pytest.approx(dist)

    def test_rounds_scale_with_hop_depth(self):
        path = nx.path_graph(25)
        _, result = run_refreshing_bellman_ford(path, 0, weighted=False, max_rounds=HORIZON)
        assert 24 <= max(out[2] for out in result.outputs.values()) <= 30

    def test_tree_edges_form_spanning_tree(self):
        graph = weighted(random_connected_graph(12, seed=5), seed=6)
        _, result = run_refreshing_bellman_ford(graph, 0, max_rounds=HORIZON)
        edges = {
            frozenset((node, parent))
            for node, (_dist, parent, _changed) in result.outputs.items()
            if parent is not None
        }
        tree = nx.Graph()
        tree.add_nodes_from(graph.nodes())
        tree.add_edges_from(tuple(e) for e in edges)
        assert nx.is_connected(tree)
        assert tree.number_of_edges() == 11

    @pytest.mark.parametrize(
        "graph, source",
        [
            pytest.param(nx.cycle_graph(15), 7, id="cycle"),
            pytest.param(nx.convert_node_labels_to_integers(nx.grid_2d_graph(5, 5)), 12, id="grid"),
            pytest.param(nx.star_graph(12), 5, id="star-leaf"),
            pytest.param(dumbbell_graph(4, 6), ("L", 0), id="dumbbell"),
        ],
    )
    def test_hop_distances_and_parents_on_each_family(self, graph, source):
        distances, result = run_refreshing_bellman_ford(
            graph, source, weighted=False, max_rounds=HORIZON
        )
        expected = nx.single_source_shortest_path_length(graph, source)
        assert {k: int(v) for k, v in distances.items()} == dict(expected)
        for node, (_dist, parent, _changed) in result.outputs.items():
            if node == source:
                assert parent is None
            else:  # each parent is a neighbour one hop closer to the source
                assert graph.has_edge(node, parent)
                assert expected[parent] == expected[node] - 1

    @pytest.mark.parametrize("refresh_every", [1, 4, 9])
    def test_weighted_distances_for_each_refresh_period(self, refresh_every):
        graph = weighted(random_connected_graph(18, seed=4), seed=8)
        distances, _ = run_refreshing_bellman_ford(
            graph, 3, max_rounds=HORIZON, refresh_every=refresh_every
        )
        expected = nx.single_source_dijkstra_path_length(graph, 3)
        assert distances == pytest.approx(dict(expected))


class TestVerificationSuite:
    def setup_method(self):
        self.graph = random_connected_graph(14, extra_edge_prob=0.3, seed=4)
        weighted(self.graph, seed=4)

    def _check(self, problem, m_edges, expected, **kwargs):
        verdict, result = run_verification(problem, self.graph, m_edges, **kwargs)
        assert verdict == expected, f"{problem}: expected {expected}"
        assert result.halted

    def test_connectivity_positive(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("connectivity", tree, True)

    def test_connectivity_negative(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("connectivity", tree[:-2], False)

    def test_spanning_tree(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("spanning tree", tree, True)
        cycle_edge = next(e for e in self.graph.edges() if frozenset(e) not in {frozenset(t) for t in tree})
        self._check("spanning tree", tree + [cycle_edge], False)

    @staticmethod
    def _cycles(order, sizes):
        """Disjoint cycles through consecutive runs of ``order``."""
        edges, start = [], 0
        for size in sizes:
            run = order[start : start + size]
            edges += [(run[i], run[(i + 1) % size]) for i in range(size)]
            start += size
        return edges

    def test_hamiltonian_cycle(self):
        # K_8 with the identity order, and K_18 with the gap-Hamiltonian
        # pair of a shuffled order: one cycle through all 18 nodes, or
        # three disjoint cycles of 7, 6 and 5 nodes.
        shuffled = list(range(18))
        random.Random(5).shuffle(shuffled)
        for order, cover in ((list(range(8)), (4, 4)), (shuffled, (7, 6, 5))):
            complete = nx.complete_graph(len(order))
            ham = self._cycles(order, (len(order),))
            verdict, _ = run_verification("hamiltonian cycle", complete, ham)
            assert verdict is True
            verdict, _ = run_verification("hamiltonian cycle", complete, self._cycles(order, cover))
            assert verdict is False

    def test_bipartiteness(self):
        even = nx.cycle_graph(8)
        verdict, _ = run_verification("bipartiteness", even, list(even.edges()))
        assert verdict is True
        odd = nx.cycle_graph(7)
        verdict, _ = run_verification("bipartiteness", odd, list(odd.edges()))
        assert verdict is False

    def test_cycle_containment(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("cycle containment", tree, False)
        extra = next(e for e in self.graph.edges() if frozenset(e) not in {frozenset(t) for t in tree})
        self._check("cycle containment", tree + [extra], True)

    def test_st_connectivity(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("s-t connectivity", tree, True, s=0, t=5)
        self._check("s-t connectivity", [], False, s=0, t=5)

    def test_cut(self):
        # All edges of N form a cut (removing them disconnects N).
        self._check("cut", list(self.graph.edges()), True)
        self._check("cut", [], False)

    def test_st_cut(self):
        path = nx.path_graph(6)
        verdict, _ = run_verification("s-t cut", path, [(2, 3)], s=0, t=5)
        assert verdict is True
        verdict, _ = run_verification("s-t cut", path, [(0, 1)], s=2, t=5)
        assert verdict is False

    def test_e_cycle(self):
        cycle = nx.cycle_graph(6)
        m = list(cycle.edges())
        verdict, _ = run_verification("e-cycle containment", cycle, m, special_edge=(0, 1))
        assert verdict is True
        verdict, _ = run_verification("e-cycle containment", cycle, m[:-1], special_edge=(0, 1))
        assert verdict is False

    def test_edge_on_all_paths(self):
        path = nx.path_graph(5)
        m = list(path.edges())
        verdict, _ = run_verification("edge on all paths", path, m, s=0, t=4, special_edge=(2, 3))
        assert verdict is True
        diamond = nx.cycle_graph(4)
        verdict, _ = run_verification(
            "edge on all paths", diamond, list(diamond.edges()), s=0, t=2, special_edge=(0, 1)
        )
        assert verdict is False

    def test_simple_path(self):
        path_m = [(i, i + 1) for i in range(4)]
        complete = nx.complete_graph(8)
        verdict, _ = run_verification("simple path", complete, path_m)
        assert verdict is True
        verdict, _ = run_verification("simple path", complete, [(0, 1), (2, 3), (3, 4)])
        assert verdict is False

    def test_connected_spanning_subgraph(self):
        tree = list(nx.minimum_spanning_tree(self.graph).edges())
        self._check("connected spanning subgraph", tree, True)

    def test_all_verifiers_against_ground_truth(self):
        # Cross-validate every marks-mode verifier against the centralised
        # predicates on random subnetworks.
        rng = random.Random(0)
        checkers = {
            "connectivity": props.is_subgraph_connected,
            "connected spanning subgraph": props.is_connected_spanning_subgraph,
            "spanning tree": props.is_spanning_tree,
            "hamiltonian cycle": props.is_hamiltonian_cycle,
            "cycle containment": props.contains_cycle,
            "bipartiteness": props.is_bipartite_subgraph,
        }
        for trial in range(4):
            edges = [e for e in self.graph.edges() if rng.random() < 0.6]
            for problem, checker in checkers.items():
                expected = checker(self.graph, edges)
                verdict, _ = run_verification(problem, self.graph, edges)
                assert verdict == expected, (problem, trial)


def kruskal_weight(graph: nx.Graph) -> float:
    weight, _ = minimum_spanning_forest((w, u, v) for u, v, w in graph.edges(data="weight"))
    return weight


def _within_factor_cases() -> list:
    """(graph, alpha, bandwidth): three n = 15 graphs, then fig3-mst-tradeoff's
    default grid at base seeds 1-3, each graph drawn from its point's seed
    as a sweep draws it.  On the Fig. 3 points the ratio to the exact weight
    falls from about 1.7 at W = 2 to under 1.001 at W = 8192."""
    cases = [
        pytest.param(weighted(random_connected_graph(15, seed=s), seed=s), 2.0, 64, id=f"n15-{s}")
        for s in (1, 2, 3)
    ]
    for base_seed in (1, 2, 3):
        for point in expand_grid(get_scenario("fig3-mst-tradeoff"), base_seed=base_seed):
            p = point.params
            graph = _fig3_graph(
                point.seed, p["n"], p["aspect_ratio"], p["extra_edge_prob"], p["graph_seed"]
            )
            case_id = f"fig3-W{p['aspect_ratio']:g}-{base_seed}"
            cases.append(pytest.param(graph, p["alpha"], p["bandwidth"], id=case_id))
    return cases


class TestElkin:
    def test_quantisation_classes(self):
        graph = weighted(random_connected_graph(10, seed=13), seed=13)
        classes, n_classes = quantise_weights(graph, alpha=2.0)
        assert n_classes >= 1
        assert all(c >= 1 for c in classes.values())

    @pytest.mark.parametrize("graph, alpha, bandwidth", _within_factor_cases())
    def test_weight_within_factor(self, graph, alpha, bandwidth):
        approx, _ = run_elkin_approx_mst(graph, alpha=alpha, bandwidth=bandwidth)
        exact = kruskal_weight(graph)
        assert exact - 1e-9 <= approx <= (1 + alpha) * exact + 1e-9

    def test_rounds_grow_with_class_count(self):
        graph = random_connected_graph(20, extra_edge_prob=0.2, seed=14)
        rng = random.Random(14)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = rng.uniform(1.0, 400.0)
        _, coarse = run_elkin_approx_mst(graph, alpha=100.0)
        _, fine = run_elkin_approx_mst(graph, alpha=4.0)
        assert fine.rounds > coarse.rounds  # more classes -> more rounds

    # The identity MST = sum_t (components(class < t) - 1), which the Elkin
    # module gives as the reason the nodes could compute its weight, against
    # the Kruskal weight the runner returns.  Both agree on connected graphs
    # only (the runner's); a disconnected graph adds its extra components to
    # the identity at every threshold.

    @staticmethod
    def _recount(graph, n_classes):
        """The identity evaluated threshold by threshold: the components of
        the subgraph of classes below ``t``, recounted for every ``t``."""
        total = 0
        for t in range(1, n_classes + 1):
            below = nx.Graph()
            below.add_nodes_from(graph)
            below.add_edges_from((u, v) for u, v, w in graph.edges(data="weight") if w < t)
            total += nx.number_connected_components(below) - 1
        return total

    def test_component_identity(self):
        quantised = nx.Graph()
        quantised.add_edge(0, 1, weight=1)
        quantised.add_edge(1, 2, weight=3)
        quantised.add_edge(0, 2, weight=2)
        # MST = {1, 2}: total 3.
        assert self._recount(quantised, 3) == kruskal_weight(quantised) == 3

    def test_component_identity_matches_kruskal(self):
        rng = random.Random(2014)
        for _ in range(200):
            n_classes = rng.randint(1, 11)
            graph = random_connected_graph(
                rng.randint(2, 39), extra_edge_prob=rng.random() / 2, seed=rng.randrange(10**6)
            )
            for u, v in graph.edges():
                graph.edges[u, v]["weight"] = rng.randint(1, n_classes)
            assert kruskal_weight(graph) == self._recount(graph, n_classes)

    @pytest.mark.parametrize("seed", [0, 9])
    def test_component_identity_with_unused_classes(self, seed):
        # Twelve classes, of which the edges use only the odd ones.
        graph = random_connected_graph(40, extra_edge_prob=0.2, seed=seed)
        rng = random.Random(seed)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = rng.randrange(1, 12, 2)
        assert kruskal_weight(graph) == self._recount(graph, 12)

    @pytest.mark.parametrize("seed", [3, 41])
    def test_component_identity_with_far_more_classes_than_edges(self, seed):
        # C = 2000 against 14 and 19 edges: nearly every class is empty.
        rng = random.Random(seed)
        graph = random_connected_graph(rng.randint(8, 16), extra_edge_prob=0.1, seed=seed)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = rng.randint(1, 2000)
        assert kruskal_weight(graph) == self._recount(graph, 2000)


class TestDistributedDisjointness:
    def setup_method(self):
        self.graph = dumbbell_graph(3, 6)
        self.u = ("L", 1)
        self.v = ("R", 1)

    def test_classical_correct(self):
        rng = random.Random(0)
        for trial in range(4):
            b = 16
            x = tuple(rng.randrange(2) for _ in range(b))
            y = tuple(rng.randrange(2) for _ in range(b))
            expected = int(all(a * c == 0 for a, c in zip(x, y)))
            verdict, _ = run_classical_disjointness(self.graph, self.u, self.v, x, y)
            assert verdict == expected

    def test_classical_rounds_scale_with_b(self):
        x16 = (1,) + (0,) * 15
        _, r16 = run_classical_disjointness(self.graph, self.u, self.v, x16, x16, bandwidth=8)
        x64 = (1,) + (0,) * 63
        _, r64 = run_classical_disjointness(self.graph, self.u, self.v, x64, x64, bandwidth=8)
        assert r64.rounds > r16.rounds + 4  # pipelining: rounds ~ dist + b/B

    def test_quantum_correct_disjoint(self):
        b = 32
        x = tuple(1 if i % 2 == 0 else 0 for i in range(b))
        y = tuple(1 if i % 2 == 1 else 0 for i in range(b))
        verdict, _, queries = run_quantum_disjointness(self.graph, self.u, self.v, x, y, seed=1)
        assert verdict == 1
        assert queries <= 4 * math.isqrt(b) * 4

    def test_quantum_correct_intersecting(self):
        b = 32
        x = (1,) * b
        y = (1,) + (0,) * (b - 1)
        verdict, _, _ = run_quantum_disjointness(self.graph, self.u, self.v, x, y, seed=2)
        assert verdict == 0

    def test_quantum_rounds_track_queries_times_distance(self):
        b = 64
        x = (0,) * b
        y = (0,) * b
        verdict, result, queries = run_quantum_disjointness(self.graph, self.u, self.v, x, y, seed=3)
        assert verdict == 1
        dist = nx.shortest_path_length(self.graph, self.u, self.v)
        assert result.rounds >= queries * 2  # each query is a round trip
        assert result.rounds <= queries * 2 * dist + 4 * dist + 10
