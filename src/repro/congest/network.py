"""The CONGEST(B) network façade over the layered engine stack.

Execution model (Appendix A.1): all nodes wake simultaneously; in each round
every node may place at most ``B`` bits on each incident directed edge;
messages arrive at the end of the round; local computation is free.

Messages larger than ``B`` bits are legal at the API level and are
transmitted over ``ceil(bits/B)`` consecutive rounds, arriving atomically --
this models the standard pipelining argument and keeps round counts honest.

The implementation is split into three layers (see each module's docstring):

- :mod:`repro.congest.transport` -- per-edge bit accounting, chunking and
  metrics (:class:`LinkTransport`);
- :mod:`repro.congest.engine` -- the round schedulers: the reference
  :class:`~repro.congest.engine.DenseEngine` (every node, every round) and
  the default :class:`~repro.congest.engine.EventEngine` (active-node set,
  O(1) skips over quiet rounds);
- :mod:`repro.congest.node` -- the program API, including the idleness
  hints (``next_active_round`` / phase-level ``idle_until``) the event
  engine exploits.

:class:`CongestNetwork` wires the three together; pick the engine with the
``engine="event"|"dense"`` kwarg, or pass an
:class:`~repro.congest.engine.Engine` instance.  Both engines produce
identical :class:`RunResult`\\ s for the same program -- ``dense`` is the
reference to cross-check against, ``event`` the fast default.  The network
traces through the ambient tracer (:func:`repro.obs.use_tracer`) in effect
when it is built.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable

import networkx as nx

from repro.congest.engine import Engine, RunResult, get_engine
from repro.congest.faults import FaultPlan, FaultyTransport, apply_topology_event
from repro.congest.node import Node, NodeProgram
from repro.congest.topology import build_adjacency
from repro.obs.trace import current_tracer

__all__ = ["CongestNetwork", "RunResult"]


class CongestNetwork:
    """A CONGEST(B) network over an undirected connected graph."""

    def __init__(
        self,
        graph: nx.Graph,
        program_factory: Callable[[], NodeProgram],
        bandwidth: int = 32,
        inputs: dict[Hashable, Any] | None = None,
        engine: str | Engine = "event",
        record_messages: bool = False,
        faults: FaultPlan | None = None,
    ):
        if graph.number_of_nodes() == 0:
            raise ValueError("network must have at least one node")
        if bandwidth < 1:
            raise ValueError("bandwidth must be at least 1")
        if faults is not None and faults.topology_events:
            # The plan will mutate edges mid-run: work on a private copy so
            # the caller's graph stays pristine.
            graph = graph.copy()
        self.graph = graph
        self.faults = faults
        self._fault_events_applied = 0
        self.bandwidth = bandwidth
        # The ambient tracer (the null tracer unless a ``repro.obs.use_tracer``
        # block is active), so sweeps trace scenario-internal networks
        # without new plumbing.
        self.trace = current_tracer()
        self.n_nodes = graph.number_of_nodes()
        # Engine first: it declares the transport it runs against.
        self.engine = get_engine(engine)
        self.transport = self.engine.transport_class(bandwidth, record_messages=record_messages)
        if faults is not None:
            # The fault seam sits between the engine and the transport it
            # asked for; even an empty plan goes through the wrapper so the
            # equivalence suite can assert the wrapper itself is transparent.
            self.transport = FaultyTransport(self.transport, faults)
        if faults is not None and self.trace.enabled:
            for span in faults.crashes:
                self.trace.event(
                    "fault_crash_span", node=repr(span.node), start=span.start, stop=span.stop
                )

        # Canonical node order + per-node neighbour tuples, sorted by repr.
        node_order, adjacency = build_adjacency(graph)
        self.nodes: dict[Hashable, Node] = {}
        self.programs: dict[Hashable, NodeProgram] = {}
        for node_id in node_order:
            node = Node(node_id, adjacency[node_id], self)
            if inputs is not None and node_id in inputs:
                node.input = inputs[node_id]
            self.nodes[node_id] = node
            self.programs[node_id] = program_factory()

        self.current_round = 0

    def edge_weight(self, u: Hashable, v: Hashable) -> float:
        return self.graph.edges[u, v].get("weight", 1.0)

    # -- metrics (owned by the transport) --------------------------------------

    @property
    def message_log(self) -> list[tuple[int, Hashable, Hashable, int]]:
        """(round_sent, sender, receiver, bits) per message; requires
        ``record_messages=True`` (off by default -- it grows unboundedly)."""
        return self.transport.message_log

    # -- plumbing used by Node.send ------------------------------------------

    def _enqueue(self, sender: Hashable, receiver: Hashable, payload: Any, bits: int) -> None:
        self.transport.enqueue(sender, receiver, payload, bits, self.current_round)

    def _enqueue_many(self, sender: Hashable, receivers: list[Hashable], payload: Any, bits: int) -> None:
        self.transport.enqueue_many(sender, receivers, payload, bits, self.current_round)

    def _drop_stale_send(self, sender: Hashable, receiver: Hashable) -> bool:
        """Whether a send to a non-neighbour should be silently lost.

        True only under a fault plan whose timeline says the link was
        deleted -- the stale-reference case (a program still addressing a
        BFS-tree child after churn removed the edge).  Everything else
        stays a programming error raised by the node handle.
        """
        if self.faults is None:
            return False
        return self.transport.lost_link_send(sender, receiver, self.current_round)

    # -- fault dynamism --------------------------------------------------------

    def apply_topology_events(self, round_no: int) -> None:
        """Apply every scheduled edge event with ``event.round <= round_no``.

        Engines call this at the start of each executed round (the event
        engines never skip past a scheduled round, so catch-up is a safety
        net, not the normal path).  Applying an event splices the endpoints'
        neighbour tuples in repr-sorted order.
        """
        faults = self.faults
        if faults is None:
            return
        events = faults.topology_events
        i = self._fault_events_applied
        while i < len(events) and events[i].round <= round_no:
            event = events[i]
            i += 1
            if not apply_topology_event(self.graph, event):
                continue
            if event.action == "insert":
                self.nodes[event.u]._insert_neighbor(event.v)
                self.nodes[event.v]._insert_neighbor(event.u)
            else:
                self.nodes[event.u]._remove_neighbor(event.v)
                self.nodes[event.v]._remove_neighbor(event.u)
            stats = getattr(self.transport, "stats", None)
            if stats is not None:
                stats.topology_applied += 1
            if self.trace.enabled:
                self.trace.event(
                    "fault_topology",
                    round=round_no,
                    action=event.action,
                    u=repr(event.u),
                    v=repr(event.v),
                )
        self._fault_events_applied = i

    # -- execution -------------------------------------------------------------

    def run(self, max_rounds: int = 100_000) -> RunResult:
        """Run until every node halts or ``max_rounds`` elapse.

        A program whose nodes cannot detect termination locally (the
        self-stabilising Bellman-Ford refreshes forever) runs to the
        ``max_rounds`` horizon.
        """
        return self.engine.run(self, max_rounds=max_rounds)

    def pending_traffic(self) -> int:
        """Bits still in flight (useful for quiescence assertions in tests)."""
        return self.transport.pending_traffic()

