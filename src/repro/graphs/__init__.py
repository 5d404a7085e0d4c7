"""Graph substrate: property checkers, generators, Kruskal.

This package implements the graph-theoretic vocabulary of the paper:

- every verification predicate of Appendix A.2, the centralised truth the
  distributed verifiers are tested against (:mod:`repro.graphs.properties`),
- graph/instance generators used by the scenarios and tests
  (:mod:`repro.graphs.generators`),
- Kruskal's minimum spanning forest, the MSTs the package computes
  centrally (:mod:`repro.graphs.kruskal`).
"""

from repro.graphs.properties import (
    contains_cycle,
    contains_cycle_through_edge,
    edge_on_all_paths,
    is_bipartite_subgraph,
    is_connected_spanning_subgraph,
    is_cut,
    is_hamiltonian_cycle,
    is_simple_path,
    is_spanning_tree,
    is_st_cut,
    is_subgraph_connected,
    st_connected,
)

__all__ = [
    "is_hamiltonian_cycle",
    "is_spanning_tree",
    "is_connected_spanning_subgraph",
    "is_subgraph_connected",
    "contains_cycle",
    "contains_cycle_through_edge",
    "is_bipartite_subgraph",
    "st_connected",
    "is_cut",
    "is_st_cut",
    "edge_on_all_paths",
    "is_simple_path",
]
