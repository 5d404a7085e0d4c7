"""Tests for the network families, especially the Theorem 3.5 network."""

import math

import networkx as nx
import pytest

from repro.congest.topology import (
    boundary_nodes,
    dumbbell_graph,
    highway_positions,
    simulation_network,
    simulation_network_parameters,
)


class TestParameters:
    def test_normalisation(self):
        assert simulation_network_parameters(5) == (5, 2)
        assert simulation_network_parameters(9) == (9, 3)
        assert simulation_network_parameters(6) == (9, 3)  # rounded up to 2^i + 1

    def test_highway_positions(self):
        assert highway_positions(1, 9) == [1, 3, 5, 7, 9]
        assert highway_positions(3, 9) == [1, 9]

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            simulation_network_parameters(2)


class TestSimulationNetwork:
    def test_node_count_theta_gamma_l(self):
        gamma, length = 4, 17
        graph = simulation_network(gamma, length)
        n_path = gamma * length
        n_highway = sum(len(highway_positions(i, length)) for i in range(1, 5))
        assert graph.number_of_nodes() == n_path + n_highway

    def test_diameter_logarithmic(self):
        # Theorem 3.5: diameter Theta(log L) regardless of Gamma * L.
        for length in (9, 17, 33, 65):
            graph = simulation_network(3, length)
            diameter = nx.diameter(graph)
            assert diameter <= 4 * math.log2(length) + 6, (length, diameter)

    def test_paths_are_paths(self):
        graph = simulation_network(2, 9)
        for j in range(1, 9):
            assert graph.has_edge(("v", 1, j), ("v", 1, j + 1))

    def test_boundary_cliques(self):
        graph = simulation_network(3, 9)
        left = boundary_nodes(3, 9, "left")
        assert len(left) == 3 + 3  # Gamma paths + k highways
        for i in range(len(left)):
            for j in range(i + 1, len(left)):
                assert graph.has_edge(left[i], left[j])

    def test_highway_connects_to_paths(self):
        graph = simulation_network(2, 9)
        for j in (1, 3, 5, 7, 9):
            assert graph.has_edge(("h", 1, j), ("v", 1, j))
            assert graph.has_edge(("h", 1, j), ("v", 2, j))

    def test_inter_highway_links(self):
        graph = simulation_network(2, 9)
        assert graph.has_edge(("h", 2, 1), ("h", 1, 1))
        assert graph.has_edge(("h", 3, 9), ("h", 2, 9))

    def test_connected(self):
        assert nx.is_connected(simulation_network(3, 17))


class TestOtherFamilies:
    def test_dumbbell(self):
        graph = dumbbell_graph(4, 6)
        assert nx.is_connected(graph)
        dist = nx.shortest_path_length(graph, ("L", 0), ("R", 0))
        assert dist == 7


class TestAdjacency:
    def test_build_adjacency_sorted(self):
        from repro.congest.topology import build_adjacency

        graph = nx.Graph([(3, 1), (1, 2), (2, 3), (0, 3)])
        order, adjacency = build_adjacency(graph)
        assert order == tuple(sorted(graph.nodes(), key=repr))
        for node, neighbors in adjacency.items():
            assert isinstance(neighbors, tuple)
            assert list(neighbors) == sorted(graph.neighbors(node), key=repr)

    def test_add_clique(self):
        from repro.congest.topology import add_clique

        graph = nx.Graph()
        add_clique(graph, ["a", "b", "c", "d"])
        assert graph.number_of_edges() == 6
        assert all(graph.has_edge(u, v) for u in "abcd" for v in "abcd" if u != v)
