"""Kruskal's minimum spanning forest against networkx's, the reference."""

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.kruskal import minimum_spanning_forest


@st.composite
def weighted_graphs(draw):
    """Graphs on 1 to 12 nodes, often disconnected or with isolated nodes,
    whose integer weights come from 1..4, so ties are common.  The edges
    go in in the drawn order, which sets the order ties break in."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u, v in edges:
        graph.add_edge(u, v, weight=draw(st.integers(1, 4)))
    return graph


class TestMinimumSpanningForest:
    @given(weighted_graphs())
    @settings(max_examples=300, deadline=None)
    def test_matches_networkx(self, graph):
        weight, forest = minimum_spanning_forest(
            (w, u, v) for u, v, w in graph.edges(data="weight")
        )
        reference = nx.minimum_spanning_tree(graph)
        assert weight == reference.size(weight="weight")
        assert {frozenset(e) for e in forest} == {frozenset(e) for e in reference.edges()}
        assert len(forest) == graph.number_of_nodes() - nx.number_connected_components(graph)
