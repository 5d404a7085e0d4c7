"""E9 -- Theorem 3.8 / Corollary 3.9: optimization upper bounds vs the bound.

MST (exact and approximate) measured on live networks against
Omega(min(W/alpha, sqrt(n)) / sqrt(B log n)).  Bellman-Ford's s-source
distances are checked per record by ``bfs-restabilization`` (its
``clean_converged`` flag).
"""

import math
import random

import networkx as nx

from repro.algorithms.elkin import run_elkin_approx_mst
from repro.algorithms.mst import run_boruvka_mst, run_gkp_mst, tree_weight
from repro.core.bounds import optimization_lower_bound
from repro.graphs.generators import random_connected_graph

BANDWIDTH = 128
N = 36


def _instance(seed: int = 7, aspect: float = 50.0) -> nx.Graph:
    graph = random_connected_graph(N, extra_edge_prob=0.15, seed=seed)
    rng = random.Random(seed)
    for u, v in graph.edges():
        graph.edges[u, v]["weight"] = rng.uniform(1.0, aspect)
    edges = list(graph.edges())
    graph.edges[edges[0]]["weight"] = 1.0
    graph.edges[edges[-1]]["weight"] = aspect
    return graph


def test_optimization_suite(benchmark):
    def run():
        graph = _instance()
        exact_weight = sum(
            d["weight"] for _, _, d in nx.minimum_spanning_tree(graph).edges(data=True)
        )
        rows = []

        edges, gkp = run_gkp_mst(graph, bandwidth=BANDWIDTH)
        assert abs(tree_weight(graph, edges) - exact_weight) < 1e-6
        rows.append(("MST (GKP exact)", gkp.rounds, tree_weight(graph, edges) / exact_weight))

        edges, boruvka = run_boruvka_mst(graph, bandwidth=BANDWIDTH)
        rows.append(("MST (Boruvka exact)", boruvka.rounds, tree_weight(graph, edges) / exact_weight))

        alpha = 2.0
        approx_weight, elkin = run_elkin_approx_mst(graph, alpha=alpha)
        rows.append((f"MST (Elkin alpha={alpha:.0f})", elkin.rounds, approx_weight / exact_weight))
        assert exact_weight - 1e-9 <= approx_weight <= (1 + alpha) * exact_weight
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    lb = optimization_lower_bound(N, BANDWIDTH, 50.0, 1.0)
    print(f"\n=== Corollary 3.9 optimization suite (n = {N}, B = {BANDWIDTH}, W = 50) ===")
    print(f"lower bound Omega(min(W/a, sqrt(n))/sqrt(B log n)) = {lb:.2f} rounds")
    print(f"{'problem':28s} {'rounds':>7s} {'quality (vs opt)':>17s}")
    for problem, rounds, quality in rows:
        print(f"{problem:28s} {rounds:7d} {quality:17.3f}")
        assert rounds >= lb


def test_mst_round_scaling(benchmark):
    """GKP rounds normalised by sqrt(n) log^2 n stay near-flat."""

    def run():
        rows = []
        for n in (16, 64, 144):
            graph = random_connected_graph(n, extra_edge_prob=max(0.02, 8 / n), seed=n)
            rng = random.Random(n + 1)
            for u, v in graph.edges():
                graph.edges[u, v]["weight"] = rng.uniform(1.0, 10.0)
            _, result = run_gkp_mst(graph, bandwidth=BANDWIDTH)
            rows.append((n, result.rounds, result.rounds / (math.sqrt(n) * math.log2(n) ** 2)))
        return rows

    rows = benchmark.pedantic(run, iterations=1, rounds=1)
    print("\n=== GKP MST rounds vs sqrt(n) log^2 n ===")
    print(f"{'n':>5s} {'rounds':>7s} {'normalised':>11s}")
    for n, rounds, normalised in rows:
        print(f"{n:5d} {rounds:7d} {normalised:11.2f}")
    normalised = [r[2] for r in rows]
    assert max(normalised) / min(normalised) < 3.0
