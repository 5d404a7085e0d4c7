"""Distributed shortest paths: self-stabilising Bellman-Ford.

The ``s``-source distance / shortest-path-tree problems of Corollary 3.9.
Distributed Bellman-Ford is the textbook upper bound: each node relaxes its
tentative distance and re-announces on improvement, so the distances settle
after (hop-depth of the shortest-path tree) rounds.  With ``weighted=False``
every edge counts one hop.  The variant here also re-announces
periodically, which heals message loss, crashes and edge insertions (the
``bfs-restabilization`` scenario, after arXiv:cs/0512021), so it runs to a
fixed horizon.
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx

from repro.congest.faults import FaultPlan
from repro.congest.message import Received
from repro.congest.network import CongestNetwork, RunResult
from repro.congest.node import Node, NodeProgram


class RefreshingBellmanFordProgram(NodeProgram):
    """Bellman-Ford with periodic re-announcement: self-stabilising distance
    relaxation from a source for lossy / crashy / growing networks.

    Node input: ``{"is_source": bool}``.  Plain relaxation (re-announce only
    on improvement) is silent once converged, so a dropped announcement, a
    napping receiver, or a newly inserted edge can leave stale distances
    forever.  Here every node holding a distance re-broadcasts it every
    ``refresh_every`` rounds (declared to the event engine via the idleness
    hint, so refresh rounds are scheduled, not polled), which heals message
    loss, crash recovery, and *insert-only* topology churn: distances only
    ever decrease, so edge deletions that lengthen true distances are out of
    scope (that failure mode is count-to-infinity, needing a different
    algorithm, not a refresh).  Stale in-flight senders -- a link deleted
    under a message -- are ignored defensively.

    Output: ``(distance, parent, last_change_round)``; the third field is
    when the node last changed its estimate, so a scenario can measure
    rounds-to-restabilize as ``max(last_change_round) - last_fault_round``.

    The program never quiesces (it refreshes forever), so run it to a fixed
    horizon.
    """

    def __init__(self, weighted: bool = True, refresh_every: int = 4):
        if refresh_every < 1:
            raise ValueError("refresh_every must be at least 1")
        self.weighted = weighted
        self.refresh_every = refresh_every
        self.distance: float | None = None
        self.parent: Hashable | None = None
        self.last_change_round = 0

    def on_start(self, node: Node) -> None:
        inputs = node.input or {}
        if inputs.get("is_source"):
            self.distance = 0.0
            node.broadcast(("dist", 0.0), bits=72)
        node.output = (self.distance, self.parent, self.last_change_round)

    def on_round(self, node: Node, round_no: int, inbox: list[Received]) -> None:
        improved = False
        neighbors = node._neighbor_set()
        for msg in inbox:
            if msg.sender not in neighbors:
                continue  # link deleted while the announcement was in flight
            _, their_distance = msg.payload
            weight = node.edge_weight(msg.sender) if self.weighted else 1.0
            candidate = their_distance + weight
            if self.distance is None or candidate < self.distance:
                self.distance = candidate
                self.parent = msg.sender
                self.last_change_round = round_no
                improved = True
        if self.distance is not None and (improved or round_no % self.refresh_every == 0):
            node.broadcast(("dist", self.distance), bits=72)
        node.output = (self.distance, self.parent, self.last_change_round)

    def next_active_round(self, node: Node, after_round: int) -> int | None:
        if self.distance is None:
            return None  # nothing to refresh until a distance arrives
        return ((after_round // self.refresh_every) + 1) * self.refresh_every


def run_refreshing_bellman_ford(
    graph: nx.Graph,
    source: Hashable,
    bandwidth: int = 128,
    weighted: bool = True,
    max_rounds: int = 512,
    refresh_every: int = 4,
    engine: str = "event",
    faults: FaultPlan | None = None,
) -> tuple[dict[Hashable, float], RunResult]:
    """Run the refreshing (self-stabilising) Bellman-Ford to a fixed horizon.

    Returns ``({node: distance}, metrics)``; per-node ``(distance, parent,
    last_change_round)`` triples are in ``metrics.outputs``.  ``max_rounds``
    is the measurement horizon -- pick it past the plan's
    :meth:`~repro.congest.faults.FaultPlan.last_fault_round` plus a settle
    margin, since the program refreshes forever and never quiesces.
    """
    inputs = {node: {"is_source": node == source} for node in graph.nodes()}
    network = CongestNetwork(
        graph,
        lambda: RefreshingBellmanFordProgram(weighted=weighted, refresh_every=refresh_every),
        bandwidth=bandwidth,
        inputs=inputs,
        engine=engine,
        faults=faults,
    )
    result = network.run(max_rounds=max_rounds)
    distances = {node: out[0] for node, out in result.outputs.items()}
    return distances, result

