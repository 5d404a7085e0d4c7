"""Tests for the instance generators."""

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
