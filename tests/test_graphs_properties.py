"""Unit tests for the Appendix A.2 verification predicates."""

import networkx as nx
import pytest

from repro.graphs import properties as props


@pytest.fixture
def cycle6():
    return nx.cycle_graph(6)


@pytest.fixture
def complete5():
    return nx.complete_graph(5)


class TestHamiltonianCycle:
    def test_cycle_is_hamiltonian(self, cycle6):
        assert props.is_hamiltonian_cycle(cycle6, cycle6.edges())

    def test_path_is_not(self, cycle6):
        edges = list(cycle6.edges())[:-1]
        assert not props.is_hamiltonian_cycle(cycle6, edges)

    def test_two_triangles_are_not(self, complete5):
        graph = nx.complete_graph(6)
        m = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        assert not props.is_hamiltonian_cycle(graph, m)

    def test_hamiltonian_in_complete_graph(self, complete5):
        m = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        assert props.is_hamiltonian_cycle(complete5, m)

    def test_rejects_non_network_edge(self, cycle6):
        with pytest.raises(ValueError):
            props.subgraph_from_edges(cycle6, [(0, 3)])


class TestSpanningTree:
    def test_star_is_spanning_tree(self, complete5):
        m = [(0, i) for i in range(1, 5)]
        assert props.is_spanning_tree(complete5, m)

    def test_cycle_is_not(self, cycle6):
        assert not props.is_spanning_tree(cycle6, cycle6.edges())

    def test_disconnected_forest_is_not(self, complete5):
        assert not props.is_spanning_tree(complete5, [(0, 1), (2, 3)])

    def test_hamiltonian_minus_edge_is_spanning_tree(self, cycle6):
        # The Theorem 3.6 reduction's core fact.
        edges = list(cycle6.edges())[:-1]
        assert props.is_spanning_tree(cycle6, edges)


class TestConnectivityFamily:
    def test_connected(self, complete5):
        assert props.is_subgraph_connected(complete5, [(0, 1), (1, 2), (2, 3), (3, 4)])

    def test_disconnected(self, complete5):
        assert not props.is_subgraph_connected(complete5, [(0, 1), (2, 3)])

    def test_spanning_connected_needs_coverage(self, complete5):
        m = [(0, 1), (1, 2), (2, 3)]  # node 4 isolated
        assert not props.is_connected_spanning_subgraph(complete5, m)
        m.append((3, 4))
        assert props.is_connected_spanning_subgraph(complete5, m)

    def test_st_connected(self, complete5):
        m = [(0, 1), (1, 2)]
        assert props.st_connected(complete5, m, 0, 2)
        assert not props.st_connected(complete5, m, 0, 4)


class TestCycleChecks:
    def test_tree_has_no_cycle(self, complete5):
        assert not props.contains_cycle(complete5, [(0, 1), (1, 2), (2, 3)])

    def test_triangle_has_cycle(self, complete5):
        assert props.contains_cycle(complete5, [(0, 1), (1, 2), (2, 0)])

    def test_cycle_through_edge(self, complete5):
        m = [(0, 1), (1, 2), (2, 0), (3, 4)]
        assert props.contains_cycle_through_edge(complete5, m, (0, 1))
        assert not props.contains_cycle_through_edge(complete5, m, (3, 4))

    def test_cycle_through_absent_edge(self, complete5):
        m = [(0, 1), (1, 2), (2, 0)]
        assert not props.contains_cycle_through_edge(complete5, m, (3, 4))


class TestBipartiteAndCuts:
    def test_even_cycle_bipartite(self, cycle6):
        assert props.is_bipartite_subgraph(cycle6, cycle6.edges())

    def test_odd_cycle_not_bipartite(self):
        graph = nx.cycle_graph(5)
        assert not props.is_bipartite_subgraph(graph, graph.edges())

    def test_cut(self):
        graph = nx.path_graph(4)
        assert props.is_cut(graph, [(1, 2)])
        assert not props.is_cut(nx.complete_graph(4), [(1, 2)])

    def test_st_cut(self):
        graph = nx.path_graph(4)
        assert props.is_st_cut(graph, [(1, 2)], 0, 3)
        assert not props.is_st_cut(graph, [(0, 1)], 2, 3)

    def test_edge_on_all_paths(self):
        graph = nx.path_graph(4)
        m = list(graph.edges())
        assert props.edge_on_all_paths(graph, m, 0, 3, (1, 2))
        diamond = nx.cycle_graph(4)
        assert not props.edge_on_all_paths(diamond, diamond.edges(), 0, 2, (0, 1))


class TestSimplePath:
    def test_path_accepted(self, complete5):
        assert props.is_simple_path(complete5, [(0, 1), (1, 2), (2, 3)])

    def test_cycle_rejected(self, cycle6):
        assert not props.is_simple_path(cycle6, cycle6.edges())

    def test_two_paths_rejected(self):
        graph = nx.complete_graph(6)
        assert not props.is_simple_path(graph, [(0, 1), (2, 3), (3, 4)])

    def test_high_degree_rejected(self, complete5):
        assert not props.is_simple_path(complete5, [(0, 1), (0, 2), (0, 3)])

