"""The linear-size spanner skeleton, after Elkin-Matar (arXiv:1907.10895).

A ``(2k-1)``-spanner via the classic greedy construction [ADDJS93]; at
``k = ceil(log2 n)`` its girth bound caps the size at ``O(n)`` edges, the
"skeleton" regime the Elkin-Matar CONGEST constructions target.  The pure
solver (:func:`greedy_spanner`, certified by :func:`spanner_max_stretch`)
runs at the leader of the pipelined-centralisation skeleton
(:func:`repro.algorithms.centralised.run_centralised`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Hashable

import networkx as nx

from repro.algorithms.centralised import run_centralised
from repro.congest.faults import FaultPlan
from repro.congest.message import bit_size
from repro.congest.network import RunResult


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


def greedy_spanner(graph: nx.Graph, stretch_k: int) -> nx.Graph:
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
    for u, v, data in sorted(graph.edges(data=True), key=lambda e: (e[2]["weight"], repr(e[:2]))):
        w = data["weight"]
        row = rows.get(u)
        if row is not None and row.get(v, math.inf) <= t * w:
            continue
        row = rows[u] = _distances(adj, u)
        if row.get(v, math.inf) > t * w:
            spanner.add_edge(u, v, weight=w)
            adj[u][v] = adj[v][u] = w
    return spanner


def spanner_max_stretch(graph: nx.Graph, spanner: nx.Graph) -> float:
    """Worst stretch over the *edges* of ``graph`` (which bounds the
    stretch over all pairs, since shortest paths concatenate edges).

    One search per source vertex serves all of its edges, which
    ``graph.edges()`` lists together.  Raises ``nx.NetworkXNoPath`` if the
    spanner does not connect an edge's endpoints.
    """
    adj = {
        node: {nbr: d.get("weight", 1) for nbr, d in nbrs.items()}
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
        worst = max(worst, row[v] / data["weight"])
    return worst


# -- distributed runner --------------------------------------------------------


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

