"""The remaining Corollary 3.9 spanning structures, plus spanners.

- **Shallow-light tree** (Appendix A.3 / [Pel00]): a spanning tree of radius
  at most ``beta * radius(SPT)`` and weight at most ``alpha * weight(MST)``
  -- the classic Khuller-Raghavachari-Young LAST construction.
- **Minimum routing cost spanning tree** ([KKM+08]): the best
  shortest-path tree over all roots is a 2-approximation.
- **Generalized Steiner forest** ([KKM+08]): connect every terminal group;
  here the standard MST-of-metric-closure 2-approximation per group.
- **Shortest s-t path**: distance extraction.
- **Linear-size spanner**: a ``(2k-1)``-spanner via the classic greedy
  construction [ADDJS93]; at ``k = ceil(log2 n)`` its girth bound caps the
  size at ``O(n)`` edges, the "skeleton" regime the Elkin-Matar CONGEST
  constructions (arXiv:1907.10895) target.  Here it is solved centrally.

Each has a pure solver (tested against first principles) and a distributed
runner via the pipelined-centralisation skeleton, whose measured rounds the
benchmarks lay against the Theorem 3.8 bound.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Hashable, Sequence

import networkx as nx

from repro.algorithms.centralised import run_centralised
from repro.congest.faults import FaultPlan
from repro.congest.message import bit_size
from repro.congest.network import RunResult


def shallow_light_tree(
    graph: nx.Graph, root: Hashable, alpha: float = 2.0, weight: str = "weight"
) -> nx.Graph:
    """Khuller-Raghavachari-Young LAST: radius <= (1 + 2/(alpha-1)) * r_SPT
    and weight <= alpha * w(MST).

    Walk an MST in DFS order from the root; whenever the tree-path distance
    to the next vertex exceeds ``alpha`` times its shortest-path distance,
    graft the shortest path instead.  Returns the resulting spanning tree.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    mst = nx.minimum_spanning_tree(graph, weight=weight)
    spt_dist, spt_paths = nx.single_source_dijkstra(graph, root, weight=weight)

    # Relaxed distances along the DFS traversal of the MST.
    parent: dict[Hashable, Hashable] = {root: root}
    dist: dict[Hashable, float] = {node: float("inf") for node in graph.nodes()}
    dist[root] = 0.0

    def relax_path(path: Sequence[Hashable]) -> None:
        for a, b in zip(path, path[1:]):
            w = graph.edges[a, b][weight]
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                parent[b] = a

    order = list(nx.dfs_preorder_nodes(mst, root))
    previous = root
    for node in order:
        if node == root:
            continue
        # Relax along the MST walk from the previous vertex.
        walk = nx.shortest_path(mst, previous, node)
        relax_path(walk)
        if dist[node] > alpha * spt_dist[node]:
            relax_path(spt_paths[node])
        previous = node

    tree = nx.Graph()
    tree.add_nodes_from(graph.nodes())
    for node, par in parent.items():
        if node != par:
            tree.add_edge(node, par, **{weight: graph.edges[node, par][weight]})
    return tree


def routing_cost(graph: nx.Graph, tree: nx.Graph, weight: str = "weight") -> float:
    """Sum over all ordered pairs of tree-path distances ([KKM+08])."""
    total = 0.0
    lengths = dict(nx.all_pairs_dijkstra_path_length(tree, weight=weight))
    for u, v in itertools.permutations(tree.nodes(), 2):
        total += lengths[u][v]
    return total


def min_routing_cost_tree_2approx(graph: nx.Graph, weight: str = "weight") -> tuple[nx.Graph, float]:
    """The best shortest-path tree over all roots: a 2-approximation of the
    minimum routing cost spanning tree."""
    best_tree = None
    best_cost = float("inf")
    for root in graph.nodes():
        preds, _ = nx.dijkstra_predecessor_and_distance(graph, root, weight=weight)
        tree = nx.Graph()
        tree.add_nodes_from(graph.nodes())
        for node, parents in preds.items():
            if parents:
                tree.add_edge(node, parents[0], **{weight: graph.edges[node, parents[0]][weight]})
        cost = routing_cost(graph, tree, weight=weight)
        if cost < best_cost:
            best_cost = cost
            best_tree = tree
    return best_tree, best_cost


def steiner_forest_2approx(
    graph: nx.Graph, groups: Sequence[Sequence[Hashable]], weight: str = "weight"
) -> set[frozenset]:
    """Generalized Steiner forest: per group, the metric-closure MST
    2-approximation (Kou-Markowsky-Berman style); union over groups."""
    chosen: set[frozenset] = set()
    for group in groups:
        terminals = list(group)
        if len(terminals) < 2:
            continue
        closure = nx.Graph()
        paths: dict[tuple, list] = {}
        for a, b in itertools.combinations(terminals, 2):
            length, path = nx.single_source_dijkstra(graph, a, b, weight=weight)
            closure.add_edge(a, b, weight=length)
            paths[(a, b)] = path
        mst = nx.minimum_spanning_tree(closure, weight="weight")
        for a, b in mst.edges():
            path = paths.get((a, b)) or paths[(b, a)]
            for u, v in zip(path, path[1:]):
                chosen.add(frozenset((u, v)))
    return chosen


def forest_weight(graph: nx.Graph, edges: set[frozenset], weight: str = "weight") -> float:
    return sum(graph.edges[tuple(e)][weight] for e in edges)


def _distances(adj: dict, source: Hashable) -> dict:
    """Dijkstra from ``source`` over ``adj = {node: {neighbor: weight}}``.

    Each distance is the least left-to-right sum ``0 + w1 + w2 + ...`` over
    the paths from ``source``.  Float rounding is monotone, so that minimum
    does not depend on the order ties are settled in: it is bit for bit the
    value ``nx.dijkstra_path_length`` returns from the same source.
    """
    dist: dict = {}
    seen = {source: 0}
    tie = itertools.count()
    fringe = [(0, next(tie), source)]
    while fringe:
        d, _, v = heapq.heappop(fringe)
        if v in dist:
            continue
        dist[v] = d
        for u, w in adj[v].items():
            if u in dist:
                continue
            du = d + w
            if u not in seen or du < seen[u]:
                seen[u] = du
                heapq.heappush(fringe, (du, next(tie), u))
    return dist


def greedy_spanner(graph: nx.Graph, stretch_k: int, weight: str = "weight") -> nx.Graph:
    """The greedy ``(2k-1)``-spanner [ADDJS93]: scan edges by increasing
    weight, keep an edge iff the spanner built so far cannot already route
    it within stretch ``2k-1``.

    The kept graph has girth above ``2k``, hence ``O(n^(1 + 1/k))`` edges;
    at ``k = ceil(log2 n)`` that is ``O(n)`` -- a linear-size skeleton.

    Each vertex keeps the distance row of its last search (Farshi-
    Gudmundsson).  The spanner only grows, so a cached distance is an upper
    bound on today's: one within ``(2k-1) w`` drops the edge without a
    search, and only a miss searches again from ``u``.
    """
    if stretch_k < 1:
        raise ValueError("stretch parameter k must be at least 1")
    t = 2 * stretch_k - 1
    spanner = nx.Graph()
    spanner.add_nodes_from(graph.nodes())
    adj: dict = {node: {} for node in graph.nodes()}
    rows: dict = {}
    for u, v, data in sorted(graph.edges(data=True), key=lambda e: (e[2][weight], repr(e[:2]))):
        w = data[weight]
        row = rows.get(u)
        if row is not None and row.get(v, math.inf) <= t * w:
            continue
        row = rows[u] = _distances(adj, u)
        if row.get(v, math.inf) > t * w:
            spanner.add_edge(u, v, **{weight: w})
            adj[u][v] = adj[v][u] = w
    return spanner


def spanner_max_stretch(graph: nx.Graph, spanner: nx.Graph, weight: str = "weight") -> float:
    """Worst stretch over the *edges* of ``graph`` (which bounds the
    stretch over all pairs, since shortest paths concatenate edges).

    One search per source vertex serves all of its edges, which
    ``graph.edges()`` lists together.  Raises ``nx.NetworkXNoPath`` if the
    spanner does not connect an edge's endpoints.
    """
    adj = {
        node: {nbr: d.get(weight, 1) for nbr, d in nbrs.items()}
        for node, nbrs in spanner.adj.items()
    }
    worst = 1.0
    source = row = None  # networkx forbids None as a node
    for u, v, data in graph.edges(data=True):
        if u != source:
            if u not in adj:
                raise nx.NodeNotFound(f"Node {u} not found in graph")
            source, row = u, _distances(adj, u)
        if v not in row:
            raise nx.NetworkXNoPath(f"Node {v} not reachable from {u}")
        worst = max(worst, row[v] / data[weight])
    return worst


# -- distributed runners -------------------------------------------------------


def run_shallow_light_tree(
    graph: nx.Graph, root: Hashable, alpha: float = 2.0, bandwidth: int = 128, engine: str = "event"
) -> tuple[dict, RunResult]:
    """Distributed shallow-light tree via pipelined centralisation; returns
    summary metrics (radius/weight vs the SPT/MST baselines) and the run."""

    def solver(g: nx.Graph) -> dict:
        r = repr(root)
        tree = shallow_light_tree(g, r, alpha=alpha)
        mst_weight = sum(d["weight"] for _, _, d in nx.minimum_spanning_tree(g).edges(data=True))
        spt_radius = max(nx.single_source_dijkstra_path_length(g, r).values())
        return {
            "weight": sum(d["weight"] for _, _, d in tree.edges(data=True)),
            "radius": max(nx.single_source_dijkstra_path_length(tree, r).values()),
            "mst_weight": mst_weight,
            "spt_radius": spt_radius,
        }

    return run_centralised(graph, solver, bandwidth=bandwidth, engine=engine)


def run_min_routing_cost_tree(
    graph: nx.Graph, bandwidth: int = 128, engine: str = "event"
) -> tuple[float, RunResult]:
    """Distributed 2-approximate minimum routing cost spanning tree."""

    def solver(g: nx.Graph) -> float:
        _, cost = min_routing_cost_tree_2approx(g)
        return cost

    return run_centralised(graph, solver, bandwidth=bandwidth, engine=engine)


def run_steiner_forest(
    graph: nx.Graph, groups: Sequence[Sequence[Hashable]], bandwidth: int = 128, engine: str = "event"
) -> tuple[float, RunResult]:
    """Distributed 2-approximate generalized Steiner forest (weight output)."""

    def solver(g: nx.Graph) -> float:
        repr_groups = [[repr(t) for t in group] for group in groups]
        edges = steiner_forest_2approx(g, repr_groups)
        return forest_weight(g, edges)

    return run_centralised(graph, solver, bandwidth=bandwidth, engine=engine)


def run_linear_size_spanner(
    graph: nx.Graph,
    stretch_k: int,
    bandwidth: int = 128,
    engine: str = "event",
    max_rounds: int = 500_000,
    faults: "FaultPlan | None" = None,
    include_edges: bool = False,
) -> tuple[dict, RunResult]:
    """Distributed linear-size spanner via pipelined centralisation.

    Returns summary metrics (edge counts, certified max stretch vs the
    ``2k-1`` guarantee) and the CONGEST run.  The phased skeleton declares
    its long silent stretches, so the event engine charges only the
    traffic -- the mostly-quiet regime the Elkin-Matar constructions live
    in.

    ``include_edges`` adds the spanner's edge list to the broadcast answer
    (costing the extra bits honestly) so recovery checks can compare the
    reconstruction against a recompute.  Under a fault plan the leader's
    snapshot can predate later churn (a stale skeleton) or the run can
    fail outright (answer ``None``); the ``spanner-churn`` scenario checks
    the answer against the post-churn graph and rebuilds when stale.
    """

    def solver(g: nx.Graph) -> dict:
        spanner = greedy_spanner(g, stretch_k)
        summary = {
            "n": g.number_of_nodes(),
            "m": g.number_of_edges(),
            "spanner_edges": spanner.number_of_edges(),
            "spanner_weight": sum(d["weight"] for _, _, d in spanner.edges(data=True)),
            "max_stretch": spanner_max_stretch(g, spanner),
        }
        if include_edges:
            summary["edges"] = sorted((u, v) if u < v else (v, u) for u, v in spanner.edges())
        return summary

    # The broadcast phase's duration is common knowledge, so the answer's
    # size must be bounded before the run: with the edge list included, any
    # spanner edge is an edge of the leader's snapshot, i.e. of the input
    # graph plus the plan's scheduled insertions (whose endpoints are
    # existing nodes), so the longest node name times the edge-count cap
    # bounds the payload.
    broadcast_chunks = 8
    if include_edges:
        longest = max(map(repr, graph.nodes()), key=len, default="")
        cap_edges = graph.number_of_edges()
        if faults is not None:
            cap_edges += sum(1 for ev in faults.topology_events if ev.action == "insert")
        bound_bits = 512 + cap_edges * bit_size((longest, longest))
        broadcast_chunks = max(8, -(-bound_bits // bandwidth) + 1)

    return run_centralised(
        graph,
        solver,
        bandwidth=bandwidth,
        engine=engine,
        max_rounds=max_rounds,
        faults=faults,
        broadcast_chunks=broadcast_chunks,
    )


def run_shortest_st_path(
    graph: nx.Graph, s: Hashable, t: Hashable, bandwidth: int = 128, engine: str = "event"
) -> tuple[float, RunResult]:
    """Distributed shortest s-t path length (via centralisation; the
    Bellman-Ford program in :mod:`repro.algorithms.paths` is the native
    alternative)."""

    def solver(g: nx.Graph) -> float:
        return float(nx.dijkstra_path_length(g, repr(s), repr(t)))

    return run_centralised(graph, solver, bandwidth=bandwidth, engine=engine)
