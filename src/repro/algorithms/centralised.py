"""The pipelined-centralisation skeleton (cf. [Pel00] pipelining).

Elect a leader, build a BFS tree, upcast every node's incident edge list in
``O(D + m)`` rounds, solve centrally, broadcast the solution.  Its one
caller is the linear-size spanner of
:mod:`repro.algorithms.spanning_structures`, the gather-and-solve baseline
the ``spanner-skeleton`` and ``spanner-churn`` scenarios run.
"""

from __future__ import annotations

from typing import Any, Callable

import networkx as nx

from repro.algorithms.framework import (
    BfsTreePhase,
    BroadcastPhase,
    LeaderElectionPhase,
    LocalComputationPhase,
    PhasedProgram,
    PipelinedUpcastPhase,
)
from repro.congest.faults import FaultPlan
from repro.congest.network import CongestNetwork, RunResult
from repro.congest.node import Node

Solver = Callable[[nx.Graph], Any]


def run_centralised(
    graph: nx.Graph,
    solver: Solver,
    bandwidth: int = 128,
    engine: str = "event",
    max_rounds: int = 500_000,
    faults: FaultPlan | None = None,
    broadcast_chunks: int = 8,
) -> tuple[Any, RunResult]:
    """Collect the weighted graph at a leader, apply ``solver``, broadcast.

    ``solver`` receives the reconstructed graph with string node names
    (``repr`` of the originals) and returns any broadcastable value.
    ``broadcast_chunks`` bounds the answer's size in ``B``-bit chunks; the
    broadcast phase's duration is common knowledge, so callers whose solver
    returns more than the default 8 chunks' worth (e.g. an edge list) must
    raise it from a bound computable before the run.

    Under a fault plan the phases can stall or the broadcast can miss
    nodes; a run that fails to reach a unanimous answer returns ``None``
    as the answer (with the metrics intact) instead of raising, so
    recovery scenarios can detect the failure and restart.  Edge-capacity
    slack for the upcast covers the plan's scheduled edge insertions.
    """
    d = nx.diameter(graph)
    m_count = graph.number_of_edges()
    if faults is not None:
        m_count += sum(1 for ev in faults.topology_events if ev.action == "insert")
    inputs = {node: {"diameter_bound": d} for node in graph.nodes()}

    def stage_items(node: Node, shared: dict) -> None:
        items = []
        for neighbor in node.neighbors:
            if repr(node.id) < repr(neighbor):
                items.append((repr(node.id), repr(neighbor), float(node.edge_weight(neighbor))))
        shared["edge_items"] = items
        shared["edge_capacity"] = m_count + 1

    def solve(node: Node, shared: dict) -> None:
        if shared["parent"] is not None:
            shared["answer"] = None
            return
        g = nx.Graph()
        for u_repr, v_repr, w in shared["collected_edges"]:
            g.add_edge(u_repr, v_repr, weight=w)
        shared["answer"] = solver(g)

    def finish(node: Node, shared: dict) -> None:
        shared["output"] = shared["answer"]

    def factory() -> PhasedProgram:
        return PhasedProgram(
            [
                LeaderElectionPhase(),
                BfsTreePhase(),
                LocalComputationPhase(stage_items),
                PipelinedUpcastPhase("edge_items", "collected_edges", "edge_capacity"),
                LocalComputationPhase(solve),
                BroadcastPhase("answer", chunks=broadcast_chunks),
                LocalComputationPhase(finish),
            ]
        )

    network = CongestNetwork(
        graph,
        factory,
        bandwidth=bandwidth,
        inputs=inputs,
        engine=engine,
        faults=faults,
    )
    result = network.run(max_rounds=max_rounds)
    if faults is not None and not faults.is_empty():
        try:
            return result.unanimous_output(), result
        except ValueError:
            return None, result
    return result.unanimous_output(), result
