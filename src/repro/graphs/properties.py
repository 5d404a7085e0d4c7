"""Verification predicates of Appendix A.2.

Every distributed verification problem in the paper asks whether a marked
subnetwork ``M`` of the network ``N`` satisfies some property.  This module
provides the centralised ground-truth checkers; the distributed algorithms in
:mod:`repro.algorithms.verification` are tested against them.

Subnetworks are represented as an edge collection (iterable of 2-tuples) over
the node set of ``N``.  Following Section 2.2, ``M`` always spans the node set
``V(N)`` (a node may simply have no incident ``M``-edge).
"""

from __future__ import annotations

from typing import Hashable, Iterable

import networkx as nx

Edge = tuple[Hashable, Hashable]


def subgraph_from_edges(network: nx.Graph, edges: Iterable[Edge]) -> nx.Graph:
    """Return the subnetwork ``M`` of ``network`` with the given edge set.

    Raises ``ValueError`` if an edge is not present in the network, mirroring
    the consistency requirement on the indicator variables ``x_{u,v}``.
    """
    sub = nx.Graph()
    sub.add_nodes_from(network.nodes())
    for u, v in edges:
        if not network.has_edge(u, v):
            raise ValueError(f"edge {(u, v)!r} is not an edge of the network")
        sub.add_edge(u, v)
    return sub


def _as_subgraph(network: nx.Graph, m: Iterable[Edge] | nx.Graph) -> nx.Graph:
    if isinstance(m, nx.Graph):
        missing = [n for n in network.nodes() if n not in m]
        if missing:
            sub = m.copy()
            sub.add_nodes_from(missing)
            return sub
        return m
    return subgraph_from_edges(network, m)


def is_hamiltonian_cycle(network: nx.Graph, m: Iterable[Edge] | nx.Graph) -> bool:
    """``M`` is a simple cycle of length ``n`` visiting every node of ``N``."""
    sub = _as_subgraph(network, m)
    n = network.number_of_nodes()
    if n < 3 or sub.number_of_edges() != n:
        return False
    if any(d != 2 for _, d in sub.degree()):
        return False
    return nx.is_connected(sub)


def is_spanning_tree(network: nx.Graph, m: Iterable[Edge] | nx.Graph) -> bool:
    """``M`` is a tree spanning all nodes of ``N``."""
    sub = _as_subgraph(network, m)
    n = network.number_of_nodes()
    return sub.number_of_edges() == n - 1 and nx.is_connected(sub)


def is_subgraph_connected(network: nx.Graph, m: Iterable[Edge] | nx.Graph) -> bool:
    """Connectivity verification: is ``M`` (over all of ``V(N)``) connected?"""
    sub = _as_subgraph(network, m)
    return nx.is_connected(sub)


def is_connected_spanning_subgraph(network: nx.Graph, m: Iterable[Edge] | nx.Graph) -> bool:
    """``M`` is connected and every node of ``N`` is incident to an ``M``-edge."""
    sub = _as_subgraph(network, m)
    if any(d == 0 for _, d in sub.degree()):
        return False
    return nx.is_connected(sub)


def contains_cycle(network: nx.Graph, m: Iterable[Edge] | nx.Graph) -> bool:
    """Cycle containment: does ``M`` contain any cycle?"""
    sub = _as_subgraph(network, m)
    n_components = nx.number_connected_components(sub)
    return sub.number_of_edges() > sub.number_of_nodes() - n_components


def contains_cycle_through_edge(
    network: nx.Graph, m: Iterable[Edge] | nx.Graph, e: Edge
) -> bool:
    """e-cycle containment: does ``M`` contain a cycle through edge ``e``?"""
    sub = _as_subgraph(network, m)
    u, v = e
    if not sub.has_edge(u, v):
        return False
    pruned = sub.copy()
    pruned.remove_edge(u, v)
    return nx.has_path(pruned, u, v)


def is_bipartite_subgraph(network: nx.Graph, m: Iterable[Edge] | nx.Graph) -> bool:
    """Bipartiteness verification for ``M``."""
    sub = _as_subgraph(network, m)
    return nx.is_bipartite(sub)


def st_connected(
    network: nx.Graph, m: Iterable[Edge] | nx.Graph, s: Hashable, t: Hashable
) -> bool:
    """s-t connectivity verification: are ``s`` and ``t`` connected in ``M``?"""
    sub = _as_subgraph(network, m)
    return nx.has_path(sub, s, t)


def is_cut(network: nx.Graph, m: Iterable[Edge] | nx.Graph) -> bool:
    """Cut verification: is ``N`` disconnected after removing ``E(M)``?"""
    sub = _as_subgraph(network, m)
    remainder = network.copy()
    remainder.remove_edges_from(sub.edges())
    return not nx.is_connected(remainder)


def is_st_cut(
    network: nx.Graph, m: Iterable[Edge] | nx.Graph, s: Hashable, t: Hashable
) -> bool:
    """s-t cut verification: removing ``E(M)`` from ``N`` separates ``s``, ``t``."""
    sub = _as_subgraph(network, m)
    remainder = network.copy()
    remainder.remove_edges_from(sub.edges())
    return not nx.has_path(remainder, s, t)


def edge_on_all_paths(
    network: nx.Graph, m: Iterable[Edge] | nx.Graph, u: Hashable, v: Hashable, e: Edge
) -> bool:
    """Edge-on-all-paths verification: ``e`` lies on every u-v path in ``M``.

    Equivalently (Appendix A.2): ``e`` is a u-v cut in ``M``.  If ``u`` and
    ``v`` are disconnected in ``M`` the statement is vacuously true.
    """
    sub = _as_subgraph(network, m)
    a, b = e
    if not sub.has_edge(a, b):
        # No path can use a non-edge; the property holds only if u, v are
        # already disconnected.
        return not nx.has_path(sub, u, v)
    pruned = sub.copy()
    pruned.remove_edge(a, b)
    return not nx.has_path(pruned, u, v)


def is_simple_path(network: nx.Graph, m: Iterable[Edge] | nx.Graph) -> bool:
    """``M`` is a simple path: no cycle, degrees in {0, 1, 2}, exactly two
    degree-1 endpoints and a single nontrivial component."""
    sub = _as_subgraph(network, m)
    degrees = dict(sub.degree())
    if any(d > 2 for d in degrees.values()):
        return False
    endpoints = [n for n, d in degrees.items() if d == 1]
    if len(endpoints) != 2:
        return False
    if contains_cycle(network, sub):
        return False
    # All edges must live in one component (isolated nodes are allowed).
    nontrivial = [c for c in nx.connected_components(sub) if len(c) > 1]
    return len(nontrivial) == 1

