"""Network families, including the Simulation-Theorem network of Theorem 3.5.

Node naming convention for the simulation network (Figs. 8, 10, 13):

- ``("v", i, j)`` -- node ``v^i_j``: path ``i`` (1-based), position ``j`` in
  ``1..L``.
- ``("h", i, j)`` -- node ``h^i_j``: highway ``i`` in ``1..k``, position ``j``
  (highway ``i`` has nodes at positions ``1 + a * 2^i``).

The leftmost column (all ``v^i_1`` and ``h^i_1``) forms a clique, as does the
rightmost column -- these cliques carry the Server-model input graph ``G`` on
``Gamma + k`` nodes (Section 8).
"""

from __future__ import annotations

import math
from typing import Hashable, Sequence

import networkx as nx

VNode = tuple[str, int, int]


def build_adjacency(
    graph: nx.Graph,
) -> tuple[tuple[Hashable, ...], dict[Hashable, tuple[Hashable, ...]]]:
    """The canonical node order and per-node neighbour tuples of ``graph``.

    Both are sorted by ``repr`` -- the order every engine steps nodes in
    and the order ``Node.neighbors`` (and therefore broadcasts, and the
    transport's staged rounds) iterates.
    """
    node_order = tuple(sorted(graph.nodes(), key=repr))
    adjacency = {
        node: tuple(sorted(graph.neighbors(node), key=repr)) for node in node_order
    }
    return node_order, adjacency


def add_clique(graph: nx.Graph, members: Sequence[Hashable]) -> None:
    """Add all pairwise edges among ``members`` (the one clique builder --
    the simulation network's boundary columns and the dumbbell's end
    cliques previously each open-coded this double loop)."""
    for a in range(len(members)):
        for b in range(a + 1, len(members)):
            graph.add_edge(members[a], members[b])


def highway_positions(level: int, length: int) -> list[int]:
    """Positions ``1 + a * 2^level <= length`` occupied by highway ``level``."""
    step = 1 << level
    return list(range(1, length + 1, step))


def simulation_network_parameters(length: int) -> tuple[int, int]:
    """Normalise ``L`` to the form ``2^i + 1`` and return ``(L, k)``.

    The construction assumes ``L = 2^i + 1`` (Appendix D.1); the number of
    highways is ``k = log2(L - 1)``.
    """
    if length < 3:
        raise ValueError("L must be at least 3")
    i = math.ceil(math.log2(length - 1))
    normalised = (1 << i) + 1
    return normalised, i


def simulation_network(n_paths: int, length: int) -> nx.Graph:
    """Build the network ``N`` of Theorem 3.5 with ``Gamma`` paths of ``L`` nodes.

    ``length`` is rounded up to the nearest ``2^i + 1``.  The graph has
    ``Theta(Gamma * L)`` nodes and diameter ``Theta(log L)``.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    length, k = simulation_network_parameters(length)
    graph = nx.Graph()

    # Paths P^1 .. P^Gamma.
    for i in range(1, n_paths + 1):
        for j in range(1, length + 1):
            graph.add_node(("v", i, j))
        for j in range(1, length):
            graph.add_edge(("v", i, j), ("v", i, j + 1))

    # Highways H^1 .. H^k.
    for level in range(1, k + 1):
        positions = highway_positions(level, length)
        for j in positions:
            graph.add_node(("h", level, j))
        for a in range(len(positions) - 1):
            graph.add_edge(("h", level, positions[a]), ("h", level, positions[a + 1]))
        if level == 1:
            # h^1_j connects to v^i_j on every path.
            for j in positions:
                for i in range(1, n_paths + 1):
                    graph.add_edge(("h", 1, j), ("v", i, j))
        else:
            # h^i_j connects down to h^{i-1}_j.
            for j in positions:
                graph.add_edge(("h", level, j), ("h", level - 1, j))

    # Leftmost / rightmost cliques carrying the Server-model input graph.
    left = boundary_nodes(n_paths, length, side="left")
    right = boundary_nodes(n_paths, length, side="right")
    for column in (left, right):
        add_clique(graph, column)
    return graph


def boundary_nodes(n_paths: int, length: int, side: str) -> list[VNode]:
    """The clique column at the left or right end, ordered as ``u_1..u_{Gamma+k}``.

    Path endpoints come first (``u_1..u_Gamma``), then highway endpoints
    (``u_{Gamma+j} = h^j_1`` or ``h^j_L``), matching Section D.2's convention
    ``v^{Gamma+j}_1 = h^j_1`` and ``v^{Gamma+j}_L = h^j_L``.
    """
    length, k = simulation_network_parameters(length)
    j = 1 if side == "left" else length
    column: list[VNode] = [("v", i, j) for i in range(1, n_paths + 1)]
    column += [("h", level, j) for level in range(1, k + 1)]
    return column


def dumbbell_graph(clique_size: int, path_length: int) -> nx.Graph:
    """Two cliques joined by a path -- the classic limited-sight topology.

    Used for the Example 1.1 setting: two far-apart nodes ``u`` and ``v``
    holding the Disjointness inputs, at distance ``~ path_length``.
    """
    if clique_size < 1 or path_length < 1:
        raise ValueError("sizes must be positive")
    graph = nx.Graph()
    left = [("L", i) for i in range(clique_size)]
    right = [("R", i) for i in range(clique_size)]
    for group in (left, right):
        graph.add_nodes_from(group)
        add_clique(graph, group)
    previous: Hashable = left[0]
    for i in range(path_length):
        node = ("P", i)
        graph.add_edge(previous, node)
        previous = node
    graph.add_edge(previous, right[0])
    return graph

