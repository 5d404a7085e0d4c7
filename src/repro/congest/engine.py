"""The scheduler layer: pluggable round engines over the transport.

The middle of the three-layer CONGEST stack.  An :class:`Engine` decides
*which* nodes are stepped *when*; the transport (bit accounting) below and
the program API (algorithm logic) above are engine-agnostic, so every
engine produces the same :class:`RunResult` for the same program:

- :class:`DenseEngine` -- the reference semantics: every non-halted node is
  stepped every round.  Cost grows with ``n x rounds`` even when almost
  every node is idle.
- :class:`EventEngine` -- maintains an active-node set and steps a node
  only if it has deliveries this round or its program declared the round
  non-idle (via :meth:`repro.congest.node.NodeProgram.next_active_round`).
  Rounds in which nothing happens are skipped in O(1) by jumping the clock
  to the next delivery or program wake-up, with the transport accounting
  the skipped stretch exactly.

Both engines run over one transport,
:class:`~repro.congest.transport.LinkTransport`; an engine declares it via
the ``transport_class`` attribute and the network builds it.
:class:`ColumnarEngine` and :class:`ParallelEngine` are the event engine
under former names, kept only because the benchmark's instrumentation
names them; ``get_engine`` resolves neither.

:func:`step_batch` is the one loop that calls ``on_round``: each engine
picks a round's active set in node-id order and passes it, with that
round's inboxes, to it.

Equivalence contract: a program's idleness hint must only skip rounds whose
``on_round`` call would have been a no-op (no sends, no halting, no change
to future behaviour) -- the default hint claims no idle rounds, so arbitrary
programs run identically on every engine, and hinted programs are covered
by the cross-engine equivalence suite (``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable

from repro.congest.columnar import ColumnarTransport
from repro.congest.transport import LinkTransport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.congest.message import Received
    from repro.congest.network import CongestNetwork


@dataclass
class RunResult:
    """Metrics of one distributed execution."""

    rounds: int
    total_messages: int
    total_bits: int
    outputs: dict[Hashable, Any]
    halted: bool
    max_edge_bits_per_round: int = 0
    per_round_bits: list[int] = field(default_factory=list)
    #: Injected-fault counters (see :class:`repro.congest.faults.FaultStats`);
    #: ``None`` for fault-free runs *and* for an empty plan, so an empty
    #: ``FaultPlan`` run stays byte-identical to a no-plan run.
    fault_stats: dict[str, int] | None = None

    def unanimous_output(self) -> Any:
        """The common output of all nodes; raises if nodes disagree."""
        values = {repr(v) for v in self.outputs.values()}
        if len(values) != 1:
            raise ValueError(f"nodes disagree: {sorted(values)[:5]}")
        return next(iter(self.outputs.values()))


def step_batch(
    network: "CongestNetwork",
    round_no: int,
    node_ids: list[Hashable],
    inboxes: dict[Hashable, list["Received"]],
) -> int:
    """Step ``node_ids`` in order; returns the number of nodes stepped.

    The single ``on_round`` dispatch loop shared by every engine.
    ``node_ids`` is the round's active set in node-id order; ``inboxes``
    maps node id to that round's deliveries.  Engines call it through the
    module global, so a wrapper installed on it sees every round.
    """
    nodes = network.nodes
    programs = network.programs
    stepped = 0
    for nid in node_ids:
        node = nodes[nid]
        if node.halted:
            continue
        programs[nid].on_round(node, round_no, inboxes.get(nid, []))
        stepped += 1
    return stepped


class Engine:
    """Steps node programs against the transport clock.

    Engines are instrumented for :mod:`repro.obs`: hot paths sample one
    ``round`` trace line per executed round (gated on
    ``network.trace.enabled``, so the no-op tracer costs one attribute read
    per round), and :meth:`_result` reports every run's headline metrics
    through :meth:`repro.obs.trace.Tracer.run_summary` unconditionally --
    that once-per-run call is how sweep outcomes learn engine round/skip
    counts even with tracing off.
    """

    name = "abstract"
    #: Transport the network builds for this engine.
    transport_class = LinkTransport
    #: ``on_round`` calls made (all engines) / quiet rounds jumped in O(1)
    #: (event-clock engines; always 0 for the dense engine).
    node_steps = 0
    skipped_rounds = 0

    def run(self, network: "CongestNetwork", max_rounds: int) -> RunResult:
        raise NotImplementedError

    def _result(self, network: "CongestNetwork", rounds: int) -> RunResult:
        transport = network.transport
        halted = all(node.halted for node in network.nodes.values())
        network.trace.run_summary(
            engine=self.name,
            rounds=rounds,
            skipped_rounds=self.skipped_rounds,
            node_steps=self.node_steps,
            total_bits=transport.total_bits,
            total_msgs=transport.total_messages,
            halted=halted,
        )
        return RunResult(
            rounds=rounds,
            total_messages=transport.total_messages,
            total_bits=transport.total_bits,
            outputs={nid: node.output for nid, node in network.nodes.items()},
            halted=halted,
            max_edge_bits_per_round=transport.max_edge_bits_per_round,
            per_round_bits=transport.per_round_bits,
            fault_stats=getattr(transport, "fault_summary", None),
        )

    @staticmethod
    def _start(network: "CongestNetwork") -> None:
        transport = network.transport
        trace = network.trace
        if trace.enabled:
            pre_msgs, pre_bits = transport.total_messages, transport.total_bits
        for node_id, program in network.programs.items():
            program.on_start(network.nodes[node_id])
        transport.flush()
        if trace.enabled:
            trace.event(
                "start",
                sent_msgs=transport.total_messages - pre_msgs,
                sent_bits=transport.total_bits - pre_bits,
            )


class DenseEngine(Engine):
    """The reference scheduler: every non-halted node steps every round."""

    name = "dense"

    def __init__(self) -> None:
        self.node_steps = 0

    def run(self, network: "CongestNetwork", max_rounds: int) -> RunResult:
        transport = network.transport
        trace = network.trace
        tracing = trace.enabled
        fault_plan = network.faults
        # The crash predicate, hoisted so fault-free runs pay one None check.
        crashed = fault_plan.crashed if fault_plan is not None and fault_plan.has_crashes else None
        self._start(network)

        round_no = 0
        while round_no < max_rounds:
            if all(node.halted for node in network.nodes.values()):
                break
            round_no += 1
            network.current_round = round_no
            if fault_plan is not None and fault_plan.topology_events:
                network.apply_topology_events(round_no)
            if tracing:
                pre_msgs, pre_bits = transport.total_messages, transport.total_bits
            inboxes = transport.deliver_round()
            active = [
                nid
                for nid, node in network.nodes.items()
                if not node.halted and (crashed is None or not crashed(nid, round_no))
            ]
            self.node_steps += step_batch(network, round_no, active, inboxes)
            transport.flush()
            if tracing:
                trace.emit(
                    "round",
                    round=round_no,
                    active=len(active),
                    delivered=sum(len(msgs) for msgs in inboxes.values()),
                    moved_bits=transport.per_round_bits[-1],
                    sent_msgs=transport.total_messages - pre_msgs,
                    sent_bits=transport.total_bits - pre_bits,
                )

        return self._result(network, round_no)


class EventEngine(Engine):
    """Active-set scheduler with an O(1) fast path over quiet rounds.

    A round is *interesting* if a message completes on some link or some
    program scheduled a wake-up for it.  The engine jumps the clock from
    one interesting round to the next (the transport accounts the skipped
    stretch), delivers, and steps -- in the network's canonical node order,
    so interleavings match the dense engine exactly -- only the nodes that
    received something or asked to be woken.

    Wake-ups live in a min-heap of ``(round, node order, node)`` entries;
    ``wake`` maps each node to its one pending round, and an entry whose
    round no longer matches it is stale and dropped when it surfaces.  A
    step that leaves a node's wake round equal to its pending one pushes
    nothing: that round is later than the current one, so its entry has not
    been popped, and it stays live until its round.  About half the steps
    of the Fig. 3 and Boruvka runs end that way.

    ``node_steps`` counts ``on_round`` calls and ``skipped_rounds`` the
    quiet rounds jumped in O(1), both for introspection; on mostly quiet
    workloads ``node_steps`` is far below the dense engine's ``n x rounds``.
    """

    name = "event"

    def __init__(self) -> None:
        self.node_steps = 0
        self.skipped_rounds = 0

    def _skip(self, network: "CongestNetwork", after_round: int, rounds: int) -> None:
        """Jump ``rounds`` quiet rounds, counting and tracing the stretch."""
        moved = network.transport.skip_rounds(rounds)
        self.skipped_rounds += rounds
        trace = network.trace
        if trace.enabled:
            trace.emit("skip", after_round=after_round, rounds=rounds, moved_bits=moved)

    def run(self, network: "CongestNetwork", max_rounds: int) -> RunResult:
        transport = network.transport
        trace = network.trace
        tracing = trace.enabled
        fault_plan = network.faults
        crashed = fault_plan.crashed if fault_plan is not None and fault_plan.has_crashes else None
        has_events = fault_plan is not None and (fault_plan.crashes or fault_plan.topology_events)
        forced_wakes = fault_plan.forced_wakes() if has_events else {}
        self._start(network)

        order = {nid: i for i, nid in enumerate(network.nodes)}
        wake: dict[Hashable, int | None] = {}
        heap: list[tuple[int, int, Hashable]] = []

        def schedule(nid: Hashable, after_round: int) -> None:
            node = network.nodes[nid]
            if node.halted:
                wake[nid] = None
                return
            nxt = network.programs[nid].next_active_round(node, after_round)
            if nxt is not None and nxt <= after_round:  # defensive: never stall the clock
                nxt = after_round + 1
            if nxt == wake.get(nid):
                return  # the pending entry stays live until that round
            wake[nid] = nxt
            if nxt is not None:
                heapq.heappush(heap, (nxt, order[nid], nid))

        for nid in network.nodes:
            schedule(nid, 0)
        live = sum(1 for node in network.nodes.values() if not node.halted)

        round_no = 0
        while round_no < max_rounds:
            if live == 0:
                break

            # Next interesting round: earliest delivery, program wake-up, or
            # scheduled fault event (crash start/recovery, topology change) --
            # the skip fast path must never leap over any of them.
            until = transport.rounds_until_delivery()
            delivery_round = None if until is None else round_no + until
            while heap and (wake.get(heap[0][2]) != heap[0][0] or network.nodes[heap[0][2]].halted):
                heapq.heappop(heap)
            program_round = heap[0][0] if heap else None
            fault_round = fault_plan.next_event_round(round_no) if has_events else None

            if delivery_round is None and program_round is None and fault_round is None:
                # Nothing will ever happen again: idle out the clock.
                self._skip(network, round_no, max_rounds - round_no)
                round_no = max_rounds
                break
            else:
                candidates = [
                    r for r in (delivery_round, program_round, fault_round) if r is not None
                ]
                target = min(candidates)

            if target > max_rounds:
                self._skip(network, round_no, max_rounds - round_no)
                round_no = max_rounds
                break
            if target > round_no + 1:
                self._skip(network, round_no, target - round_no - 1)
            round_no = target
            network.current_round = round_no
            if fault_plan is not None and fault_plan.topology_events:
                network.apply_topology_events(round_no)

            if tracing:
                pre_msgs, pre_bits = transport.total_messages, transport.total_bits
            inboxes = transport.deliver_round()
            step = set(inboxes)
            while heap and heap[0][0] <= round_no:
                rnd, _, nid = heapq.heappop(heap)
                if rnd == round_no and wake.get(nid) == rnd and not network.nodes[nid].halted:
                    step.add(nid)
            if has_events:
                # Recovered nodes and topology-event endpoints must be stepped
                # even without a delivery: their wake entries may have gone
                # stale while they were down, and their neighbourhood changed.
                step.update(
                    nid for nid in forced_wakes.get(round_no, ()) if nid in network.nodes
                )
            active = sorted(
                (
                    nid
                    for nid in step
                    if not network.nodes[nid].halted
                    and (crashed is None or not crashed(nid, round_no))
                ),
                key=order.__getitem__,
            )
            self.node_steps += step_batch(network, round_no, active, inboxes)
            for nid in active:
                if network.nodes[nid].halted:
                    live -= 1
                    wake[nid] = None
                else:
                    schedule(nid, round_no)
            transport.flush()
            if tracing:
                trace.emit(
                    "round",
                    round=round_no,
                    active=len(active),
                    delivered=sum(len(msgs) for msgs in inboxes.values()),
                    moved_bits=transport.per_round_bits[-1],
                    sent_msgs=transport.total_messages - pre_msgs,
                    sent_bits=transport.total_bits - pre_bits,
                )

        return self._result(network, round_no)


class ColumnarEngine(EventEngine):
    """:class:`EventEngine` under its former name.  Kept only because
    ``perfbench/layers.py`` names it; it goes once the benchmark stops
    naming it."""

    transport_class = ColumnarTransport


class ParallelEngine(EventEngine):
    """:class:`EventEngine` under a former name.  Kept only because
    ``perfbench/layers.py`` names it; it goes once the benchmark stops
    naming it."""


_ENGINES = {
    "dense": DenseEngine,
    "event": EventEngine,
}

#: The engine names :func:`get_engine` resolves (``event`` is the default
#: everywhere an engine is chosen by name).
ENGINE_NAMES = tuple(_ENGINES)


def get_engine(spec: str | Engine) -> Engine:
    """Resolve an engine spec: an :class:`Engine` instance or a name."""
    if isinstance(spec, Engine):
        return spec
    try:
        cls = _ENGINES[spec]
    except KeyError:
        raise ValueError(f"unknown engine {spec!r}; known: {', '.join(ENGINE_NAMES)}") from None
    return cls()
