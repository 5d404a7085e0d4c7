"""Gadget reductions of Section 7 (Figs. 4-7, 12; Appendix C).

Two reductions drive Theorem 3.4:

1. ``IPmod3_n -> Ham_{O(n)}``: a chain of gadgets ``G_1..G_n``, gadget ``i``
   built from ``(x_i, y_i)``, such that the union graph consists of three
   strands whose end-to-end permutation is the cyclic shift by
   ``sum_i x_i y_i (mod 3)`` (Lemma 7.2); identifying the two boundary
   columns turns the strands into a Hamiltonian cycle **iff** the sum is
   nonzero mod 3 (Lemma C.3).

2. ``(beta n)-Eq -> (beta n)-Ham`` (Fig. 7): a two-strand chain in which each
   position with ``x_i != y_i`` crosses the strands; the union is a single
   Hamiltonian cycle iff ``x = y`` and splits into one cycle per mismatch
   otherwise.

Both reductions have the crucial locality property of Definition 3.3:
Carol's edges depend only on ``x``, David's only on ``y``, and each player's
edge set is a perfect matching.

Our concrete realisation of the Fig. 4 gadget uses four permutation layers
(columns ``v_{i-1} -> p -> q -> r -> v_i``), with Carol controlling layers 1
and 3 and David layers 2 and 4.  With the transpositions

    carol layer: identity if x_i = 0, else (0 2)
    david layer: identity if y_i = 0, else (0 1)

the composed permutation is the identity when ``x_i y_i = 0`` and
``(0 1)(0 2)(0 1)(0 2) = shift by +1`` when ``x_i = y_i = 1`` -- the
non-commutativity of S_3 is what lets two players realise a product
``x_i AND y_i`` neither can see.  (The paper's figures realise the same
three-path structure; Observation 7.1 is checked as a property test.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import networkx as nx

Edge = tuple[Hashable, Hashable]

IDENTITY3 = (0, 1, 2)
SWAP_02 = (2, 1, 0)  # Carol's transposition
SWAP_01 = (1, 0, 2)  # David's transposition


@dataclass
class HamInstance:
    """A Server-model ``Ham`` input produced by a reduction."""

    n_nodes: int
    carol_edges: list[Edge]
    david_edges: list[Edge]

    def union_graph(self) -> nx.Graph:
        graph = nx.Graph()
        graph.add_edges_from(self.carol_edges)
        graph.add_edges_from(self.david_edges)
        return graph

    def is_hamiltonian(self) -> bool:
        nodes, cycles = self._cycle_cover()
        return nodes == self.n_nodes and cycles == 1

    def cycle_count(self) -> int:
        _, cycles = self._cycle_cover()
        if cycles is None:
            raise ValueError("union is not a disjoint-cycle cover")
        return cycles

    def _cycle_cover(self) -> tuple[int, int | None]:
        """Node count of :meth:`union_graph` and its number of cycles, or
        ``None`` for the latter when some node's degree is not 2.

        Degrees follow ``nx.Graph``: a repeated edge counts once and a
        self-loop adds 2, so a node whose only edge is a self-loop is a
        cycle of its own.  Every other component of a 2-regular union is a
        simple cycle, counted by walking it once.
        """
        ids: dict[Hashable, int] = {}
        ends = [
            ids.setdefault(node, len(ids))
            for edges in (self.carol_edges, self.david_edges)
            for edge in edges
            for node in edge
        ]
        n = len(ids)
        adj: list[list[int]] = [[] for _ in range(n)]
        pairs = iter(ends)
        for a, b in zip(pairs, pairs):
            adj[a].append(b)
            adj[b].append(a)
        for node, nbrs in enumerate(adj):
            if len(nbrs) != 2 or nbrs[0] == nbrs[1] or node in nbrs:
                distinct = set(nbrs)
                if len(distinct) + (node in distinct) != 2:
                    return n, None
                adj[node] = list(distinct)
        seen = bytearray(n)
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            seen[start] = 1
            prev, cur = start, adj[start][0]
            while cur != start:
                seen[cur] = 1
                a, b = adj[cur]
                prev, cur = cur, b if a == prev else a
        return n, cycles


# -- IPmod3 -> Ham (Figs. 4-6, 12) -------------------------------------------


def _boundary(i: int, j: int, n: int) -> Hashable:
    """Boundary node ``v_i^j`` with the wrap-around identification
    ``v_n^j = v_0^j`` (Fig. 6's gray edges)."""
    return ("v", i % n, j)


def ipmod3_to_ham(x: Sequence[int], y: Sequence[int]) -> HamInstance:
    """Build the ``Ham`` instance for IPmod3 inputs ``x, y`` (Section 7).

    The graph has ``12 n`` nodes: boundary columns ``v_i^j`` (``3n``, after
    identification) and internal columns ``p, q, r`` (``9n``).  Carol's edges
    (layers ``v -> p`` and ``q -> r``) depend only on ``x``; David's
    (``p -> q`` and ``r -> v``) only on ``y``.  Each side is a perfect
    matching on the ``12 n`` nodes.
    """
    n = len(x)
    if n != len(y) or n < 1:
        raise ValueError("inputs must be equal-length and nonempty")
    carol_edges: list[Edge] = []
    david_edges: list[Edge] = []
    for i in range(1, n + 1):
        xi, yi = x[i - 1], y[i - 1]
        if xi not in (0, 1) or yi not in (0, 1):
            raise ValueError("inputs must be bit strings")
        carol_layer = SWAP_02 if xi else IDENTITY3
        david_layer = SWAP_01 if yi else IDENTITY3
        for j in range(3):
            # Layer 1 (Carol): v_{i-1}^j -- p_i^{carol(j)}.
            carol_edges.append((_boundary(i - 1, j, n), ("p", i, carol_layer[j])))
            # Layer 2 (David): p_i^j -- q_i^{david(j)}.
            david_edges.append((("p", i, j), ("q", i, david_layer[j])))
            # Layer 3 (Carol): q_i^j -- r_i^{carol(j)}.
            carol_edges.append((("q", i, j), ("r", i, carol_layer[j])))
            # Layer 4 (David): r_i^j -- v_i^{david(j)}.
            david_edges.append((("r", i, j), _boundary(i, david_layer[j], n)))
    return HamInstance(12 * n, carol_edges, david_edges)


def ipmod3_value(x: Sequence[int], y: Sequence[int]) -> int:
    """IPmod3 output: 1 iff ``sum x_i y_i = 0 (mod 3)``."""
    return int(sum(a * b for a, b in zip(x, y)) % 3 == 0)


# -- Gap-Eq -> Gap-Ham (Fig. 7) ----------------------------------------------


def _eq_boundary(i: int, j: int, n: int) -> Hashable:
    """Two-strand boundary node with each endpoint column merged to a single
    node: ``v_0^0 = v_0^1`` ("start") and ``v_n^0 = v_n^1`` ("end")."""
    if i == 0:
        return ("w", "start")
    if i == n:
        return ("w", "end")
    return ("v", i, j)


# The Fig.-7-style gadget, realised as a pair of 3-edge matchings per player
# over the column pattern  v_{i-1}^{0,1} | a^{0,1} b^{0,1} | v_i^{0,1}.
# Matching inputs (x_i = y_i) compose to a strand *pass-through*; mismatched
# inputs compose to two *U-turns* (one closing the strands on the left, one
# on the right), so every maximal run between mismatches becomes its own
# cycle.  The four matchings below were found by exhaustive search over all
# pairs of perfect matchings and verified to realise exactly that semantics.
_EQ_CAROL_LAYERS = {
    0: ((("v", 0), ("a", 0)), (("v", 1), ("a", 1)), (("b", 0), ("b", 1))),
    1: ((("v", 0), ("a", 0)), (("v", 1), ("b", 0)), (("a", 1), ("b", 1))),
}
_EQ_DAVID_LAYERS = {
    0: ((("a", 0), ("b", 0)), (("a", 1), ("w", 0)), (("b", 1), ("w", 1))),
    1: ((("a", 0), ("a", 1)), (("b", 0), ("w", 0)), (("b", 1), ("w", 1))),
}


def gap_eq_to_ham(x: Sequence[int], y: Sequence[int]) -> HamInstance:
    """Build the Fig. 7 instance for Gap-Eq inputs.

    Each position contributes a gadget of two internal columns (``6n`` nodes
    total after merging each boundary column to a single node).  Matching
    positions pass the two strands through; mismatched positions U-turn them,
    so the union graph is:

    - a single Hamiltonian cycle iff ``x = y``;
    - a disjoint union of ``delta + 1`` cycles when ``x`` and ``y`` differ in
      ``delta >= 1`` positions (one cycle per maximal run between mismatches;
      the paper counts ``delta`` with a cyclic convention -- either way the
      instance is at least ``delta``-far from Hamiltonian, which is all the
      reduction needs).

    Carol's edges depend only on ``x`` and David's only on ``y``; away from
    the two merged seam nodes each player's edge set is a matching.
    """
    n = len(x)
    if n != len(y) or n < 2:
        raise ValueError("inputs must be equal-length with n >= 2")

    def materialise(i: int, symbolic: Hashable) -> Hashable:
        kind, j = symbolic
        if kind == "v":
            return _eq_boundary(i - 1, j, n)
        if kind == "w":
            return _eq_boundary(i, j, n)
        return (kind, i, j)

    carol_edges: list[Edge] = []
    david_edges: list[Edge] = []
    for i in range(1, n + 1):
        xi, yi = x[i - 1], y[i - 1]
        if xi not in (0, 1) or yi not in (0, 1):
            raise ValueError("inputs must be bit strings")
        for u, v in _EQ_CAROL_LAYERS[xi]:
            carol_edges.append((materialise(i, u), materialise(i, v)))
        for u, v in _EQ_DAVID_LAYERS[yi]:
            david_edges.append((materialise(i, u), materialise(i, v)))
    return HamInstance(6 * n, carol_edges, david_edges)


# -- Section 9 reductions -----------------------------------------------------


def ham_to_spanning_tree_instance(network: nx.Graph, m_edges: list[Edge]) -> list[Edge] | None:
    """The Theorem 3.6 reduction: Ham -> ST.

    Checks degrees are all 2 (an ``O(D)`` distributed step); if so, deletes
    one arbitrary edge and returns the residual edge set, which is a spanning
    tree iff ``M`` was a Hamiltonian cycle.  Returns ``None`` when the degree
    check already refutes.

    Degrees follow ``nx.Graph``'s rules without building one: a repeated
    edge counts once, a self-loop adds 2, and a node of ``network`` that
    ``M`` does not touch has degree 0.  Each edge is oriented from the
    endpoint that comes first in ``network``'s node order (an endpoint
    outside ``network`` comes after every node of it), as ``nx.Graph``
    lists it, so the deleted edge is the one the graph would give.
    """
    rank = {node: i for i, node in enumerate(network.nodes())}
    degree = dict.fromkeys(rank, 0)
    edges = set()
    for u, v in m_edges:
        for node in (u, v):
            if node not in rank:
                rank[node] = len(rank)
                degree[node] = 0
        edge = (u, v) if rank[u] <= rank[v] else (v, u)
        if edge not in edges:
            edges.add(edge)
            degree[u] += 1
            degree[v] += 1
    if any(d != 2 for d in degree.values()):
        return None
    return sorted(edges, key=repr)[1:]


def gap_connectivity_weights(
    network: nx.Graph, m_edges: list[Edge], high_weight: float
) -> dict[frozenset, float]:
    """The Theorem 3.8 reduction weights (Section 9.2): ``M``-edges get
    weight 1, the rest weight ``W``; an alpha-approximate MST of weight
    ``<= alpha (n - 1)`` certifies ``M`` connected, weight ``>= beta Gamma W``
    certifies far-from-connected."""
    marked = {frozenset(e) for e in m_edges}
    return {
        frozenset((u, v)): (1.0 if frozenset((u, v)) in marked else float(high_weight))
        for u, v in network.edges()
    }


def mst_weight_threshold(n: int, alpha: float) -> float:
    """Accept-threshold of the Section 9.2 verifier: ``alpha (n - 1)``."""
    return alpha * (n - 1)
