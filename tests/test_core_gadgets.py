"""Tests for the Section 7 gadget reductions (Theorem 3.4's engine)."""

import itertools

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.fooling import hamming_distance
from repro.core.gadgets import (
    HamInstance,
    gap_eq_to_ham,
    gap_connectivity_weights,
    ham_to_spanning_tree_instance,
    ipmod3_to_ham,
    ipmod3_value,
    mst_weight_threshold,
)
from repro.experiments.scenarios import section9_verdicts
from repro.graphs.generators import matching_pair_for_cycles
from repro.graphs.properties import is_spanning_tree


class TestIPmod3Reduction:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lemma_c3_exhaustive(self, n):
        for x in itertools.product((0, 1), repeat=n):
            for y in itertools.product((0, 1), repeat=n):
                instance = ipmod3_to_ham(x, y)
                is_ham = instance.is_hamiltonian()
                # Ham iff sum x_i y_i != 0 (mod 3) iff IPmod3 outputs 0.
                assert is_ham == (ipmod3_value(x, y) == 0), (x, y)

    def test_size_linear(self):
        instance = ipmod3_to_ham((1,) * 5, (1,) * 5)
        assert instance.n_nodes == 60
        assert instance.union_graph().number_of_nodes() == 60

    def test_both_sides_perfect_matchings(self):
        instance = ipmod3_to_ham((1, 0, 1), (0, 1, 1))
        for edges in (instance.carol_edges, instance.david_edges):
            seen = set()
            for u, v in edges:
                assert u not in seen and v not in seen
                seen.update((u, v))
            assert len(seen) == instance.n_nodes

    def test_union_two_regular(self):
        instance = ipmod3_to_ham((1, 1, 0, 1), (1, 0, 1, 1))
        assert all(d == 2 for _, d in instance.union_graph().degree())

    def test_cycle_count_three_when_divisible(self):
        # sum = 3 = 0 mod 3: three strand-cycles.
        instance = ipmod3_to_ham((1, 1, 1), (1, 1, 1))
        assert instance.cycle_count() == 3

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            ipmod3_to_ham((2,), (0,))
        with pytest.raises(ValueError):
            ipmod3_to_ham((0, 1), (0,))


class TestGapEqReduction:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cycle_structure_exhaustive(self, n):
        for x in itertools.product((0, 1), repeat=n):
            for y in itertools.product((0, 1), repeat=n):
                instance = gap_eq_to_ham(x, y)
                delta = hamming_distance(x, y)
                cycles = instance.cycle_count()
                if delta == 0:
                    assert cycles == 1
                    assert instance.is_hamiltonian()
                else:
                    assert cycles == delta + 1
                    assert not instance.is_hamiltonian()

    def test_size_linear(self):
        instance = gap_eq_to_ham((0, 1, 0), (0, 1, 0))
        assert instance.union_graph().number_of_nodes() == 18

    def test_far_inputs_are_far(self):
        # A Gap-Eq 0-input at distance > delta yields >= delta cycles.
        x = (0, 0, 0, 0, 0, 0)
        y = (1, 1, 1, 0, 0, 0)
        instance = gap_eq_to_ham(x, y)
        assert instance.cycle_count() >= 3


# -- networkx references: the union graph's degrees and components -----------


def reference_is_hamiltonian(instance):
    graph = instance.union_graph()
    return (
        graph.number_of_nodes() == instance.n_nodes
        and all(d == 2 for _, d in graph.degree())
        and nx.is_connected(graph)
    )


def reference_cycle_count(instance):
    graph = instance.union_graph()
    if any(d != 2 for _, d in graph.degree()):
        raise ValueError("union is not a disjoint-cycle cover")
    return nx.number_connected_components(graph)


def count_or_error(count):
    try:
        return count()
    except ValueError:
        return ValueError


NODES = st.integers(0, 7)


@st.composite
def union_cases(draw):
    """``(n_nodes, carol_edges, david_edges)`` on at most 8 nodes.

    Half the draws are arbitrary edge lists (empty ones, repeated edges and
    self-loops included).  The rest cut a node order into cycles -- a
    one-node piece is a self-loop, a two-node piece a doubled edge (degree 1
    in ``nx.Graph``) -- deal the edges to the two players, reverse some and
    repeat some.  ``n_nodes`` may miss the union's node count by one.
    """
    if draw(st.booleans()):
        carol = draw(st.lists(st.tuples(NODES, NODES), max_size=10))
        david = draw(st.lists(st.tuples(NODES, NODES), max_size=10))
        return draw(st.integers(1, 9)), carol, david
    order = draw(st.permutations(range(draw(st.integers(1, 8)))))
    cuts = sorted(draw(st.sets(st.integers(1, len(order)))) | {0, len(order)})
    edges = []
    for lo, hi in zip(cuts, cuts[1:]):
        piece = order[lo:hi]
        edges += [(piece[i], piece[(i + 1) % len(piece)]) for i in range(len(piece))]
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    carol, david = [], []
    for edge in edges:
        (carol if draw(st.booleans()) else david).append(edge)
    n_nodes = draw(st.integers(max(1, len(order) - 1), len(order) + 1))
    return n_nodes, carol, david


class TestCycleCoverCheck:
    """``is_hamiltonian`` and ``cycle_count`` walk the union of the two edge
    lists without networkx; they must agree with ``union_graph()``."""

    @given(union_cases())
    @settings(max_examples=300, deadline=None)
    @example((1, [], []))
    @example((1, [(0, 0)], []))
    @example((2, [(0, 1)], [(1, 0)]))
    @example((4, [(0, 1), (2, 0)], [(1, 2)]))  # one cycle, but node 3 is missing
    @example((3, [(0, 1), (1, 2), (0, 1)], [(2, 0), (1, 0)]))
    @example((6, [(0, 1), (2, 0), (3, 4)], [(1, 2), (4, 5), (5, 3)]))
    def test_matches_networkx_union(self, case):
        instance = HamInstance(*case)
        assert instance.is_hamiltonian() == reference_is_hamiltonian(instance)
        assert count_or_error(instance.cycle_count) == count_or_error(
            lambda: reference_cycle_count(instance)
        )


def reference_ham_to_st(network, m_edges):
    """The reference: the Ham -> ST reduction computed over an ``nx.Graph``
    of ``M``."""
    sub = nx.Graph()
    sub.add_nodes_from(network.nodes())
    sub.add_edges_from(m_edges)
    if any(d != 2 for _, d in sub.degree()):
        return None
    edges = sorted(sub.edges(), key=repr)
    return [e for e in edges if e != edges[0]]


def _network(nodes):
    graph = nx.Graph()
    graph.add_nodes_from(nodes)
    return graph


class TestSection9Reductions:
    @pytest.mark.parametrize(
        "nodes, m_edges, accepted",
        [
            # A repeated edge, either way round, counts once.
            (range(4), [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0), (0, 1)], True),
            # A self-loop adds 2: node 0 closes on itself beside a triangle.
            (range(4), [(0, 0), (1, 2), (2, 3), (3, 1)], True),
            # A node M does not touch has degree 0 and refutes.
            (range(5), [(0, 1), (1, 2), (2, 3), (3, 0)], False),
            # Edges are oriented by the network's node order, not M's.
            ([3, 2, 1, 0], [(0, 1), (1, 2), (2, 3), (3, 0)], True),
        ],
        ids=["repeated-edge", "self-loop", "untouched-node", "node-order"],
    )
    def test_ham_to_st_counts_degrees_like_networkx(self, nodes, m_edges, accepted):
        network = _network(nodes)
        residual = ham_to_spanning_tree_instance(network, m_edges)
        assert (residual is not None) == accepted
        assert residual == reference_ham_to_st(network, m_edges)

    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.permutations(range(n)),
                st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=9),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    @example(([0, 1, 2], [(0, 1), (1, 2), (2, 0)]))
    @example(([0, 1, 2], [(0, 1), (1, 2), (2, 3), (3, 0)]))  # node 3 outside the network
    def test_ham_to_st_matches_the_networkx_formulation(self, case):
        nodes, m_edges = case
        network = _network(nodes)
        assert ham_to_spanning_tree_instance(network, m_edges) == reference_ham_to_st(
            network, m_edges
        )

    def test_ham_to_st_on_cycle(self):
        graph = nx.cycle_graph(8)
        residual = ham_to_spanning_tree_instance(graph, list(graph.edges()))
        assert residual is not None
        assert is_spanning_tree(graph, residual)

    def test_ham_to_st_rejects_wrong_degrees(self):
        graph = nx.complete_graph(5)
        assert ham_to_spanning_tree_instance(graph, [(0, 1), (1, 2)]) is None

    def test_ham_to_st_on_two_cycles(self):
        graph = nx.Graph()
        nx.add_cycle(graph, [0, 1, 2])
        nx.add_cycle(graph, [3, 4, 5])
        graph.add_edge(2, 3)
        m = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        residual = ham_to_spanning_tree_instance(graph, m)
        assert residual is not None  # degrees fine...
        assert not is_spanning_tree(graph, residual)  # ...but not a tree

    def test_gap_weights(self):
        graph = nx.complete_graph(4)
        m = [(0, 1), (1, 2), (2, 3), (3, 0)]
        weights = gap_connectivity_weights(graph, m, high_weight=100.0)
        assert weights[frozenset((0, 1))] == 1.0
        assert weights[frozenset((0, 2))] == 100.0

    def test_threshold(self):
        assert mst_weight_threshold(10, 2.0) == 18.0

    def test_both_reductions_refute_two_disjoint_cycles(self):
        # Carol's and David's matchings close two 4-cycles, 0-1-2-3 and 4-5-6-7.
        two_cycles = HamInstance(
            8, [(0, 1), (2, 3), (4, 5), (6, 7)], [(1, 2), (3, 0), (5, 6), (7, 4)]
        )
        assert not two_cycles.is_hamiltonian()
        assert section9_verdicts(two_cycles) == (False, False)
        # Re-pairing David's edges joins them into one Hamiltonian cycle.
        one_cycle = HamInstance(
            8, [(0, 1), (2, 3), (4, 5), (6, 7)], [(1, 2), (3, 4), (5, 6), (7, 0)]
        )
        assert one_cycle.is_hamiltonian()
        assert section9_verdicts(one_cycle) == (True, True)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_section9_verdicts_match_hamiltonicity_exhaustively(self, n):
        for x in itertools.product((0, 1), repeat=n):
            for y in itertools.product((0, 1), repeat=n):
                instance = ipmod3_to_ham(x, y)
                hamiltonian = instance.is_hamiltonian()
                assert section9_verdicts(instance) == (hamiltonian, hamiltonian), (x, y)

    @pytest.mark.parametrize("n_cycles", [1, 2, 3, 4])
    def test_verdicts_accept_exactly_one_cycle(self, n_cycles):
        # A gap-Ham input: two perfect matchings whose union is n_cycles cycles.
        carol, david = matching_pair_for_cycles(32, n_cycles, seed=n_cycles)
        instance = HamInstance(32, carol, david)
        assert instance.cycle_count() == n_cycles
        assert section9_verdicts(instance) == (n_cycles == 1, n_cycles == 1)
