"""Distributed minimum cut via pipelined centralisation.

Corollary 3.9 covers minimum cut and minimum s-t cut.  The classical
state of the art the paper cites ((1+eps)-approximation in O~(sqrt(n)+D)
[GK13, Su14, Nan14a]) uses tree packings; as the documented simplification
we implement the *pipelined centralisation* upper bound instead: every node
ships its incident edge list to the root of a BFS tree (``O(D + m)`` rounds
by the pipelining lemma), the root solves min cut exactly (Stoer-Wagner),
and broadcasts the answer.  Exactness makes it the ground truth the tests
compare against, and the round count still dominates the Theorem 3.8 lower
bound, which is all the benchmarks assert.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.algorithms.centralised import run_centralised
from repro.congest.network import RunResult


def run_centralised_mincut(
    graph: nx.Graph,
    bandwidth: int = 128,
    diameter_bound: int | None = None,
    s: Hashable | None = None,
    t: Hashable | None = None,
    seed: int | None = 0,
) -> tuple[float, RunResult]:
    """Exact minimum (s-t) cut weight; returns (weight, metrics).

    With ``s`` and ``t`` given, computes the minimum s-t cut instead of the
    global minimum cut.  The answer is one float, so the broadcast takes a
    single chunk per hop.
    """

    def solver(g: nx.Graph) -> float:
        if s is not None and t is not None:
            return float(nx.minimum_cut_value(g, repr(s), repr(t), capacity="weight"))
        value, _ = nx.stoer_wagner(g, weight="weight")
        return float(value)

    answer, result = run_centralised(
        graph,
        solver,
        bandwidth=bandwidth,
        diameter_bound=diameter_bound,
        seed=seed,
        broadcast_chunks=1,
    )
    return float(answer), result
