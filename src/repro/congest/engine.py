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
- :class:`ParallelEngine` -- the event engine's active-set semantics with
  the per-round step phase sharded across a thread pool.  Nodes are
  share-nothing within a round (each step touches only its own node, rng
  and staged sends), so shards run concurrently; outboxes are merged at
  the round barrier in node-id order, keeping every metric -- including
  the opt-in message log -- byte-identical to the serial engines.

All engines run over one transport,
:class:`~repro.congest.transport.LinkTransport`; an engine declares it via
the ``transport_class`` attribute and the network builds it.
:class:`ColumnarEngine` is the event engine under a former name, kept
only because the benchmark's instrumentation names it; ``get_engine``
does not resolve it.

All engines express a round's work as a :class:`StepPlan` (the batched step
ABI): the ordered active set plus that round's inboxes.  :func:`step_batch`
is the one inner loop that actually calls ``on_round``; serial engines run
it over the whole plan, the parallel engine over contiguous shards of it.

Equivalence contract: a program's idleness hint must only skip rounds whose
``on_round`` call would have been a no-op (no sends, no halting, no change
to future behaviour) -- the default hint claims no idle rounds, so arbitrary
programs run identically on every engine, and hinted programs are covered
by the cross-engine equivalence suite (``tests/test_engine_equivalence.py``).
"""

from __future__ import annotations

import heapq
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Hashable, Sequence

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


@dataclass
class StepPlan:
    """One round's batch of node steps: the batched step ABI.

    ``node_ids`` is the active set in canonical (node-id) order, already
    filtered to non-halted nodes; ``inboxes`` maps node id to that round's
    deliveries.  A plan is immutable input to the step phase: any engine --
    serial or sharded -- that executes it via :func:`step_batch` produces
    the same program-visible behaviour.
    """

    round_no: int
    node_ids: list[Hashable]
    inboxes: dict[Hashable, list["Received"]]


def step_batch(
    network: "CongestNetwork", plan: StepPlan, node_ids: Sequence[Hashable] | None = None
) -> int:
    """Step ``node_ids`` (default: the whole plan) serially; returns the
    number of nodes stepped.

    The single ``on_round`` dispatch loop shared by every engine.  A shard
    of a parallel round is just a contiguous slice of ``plan.node_ids``
    passed through ``node_ids``; within the slice nodes step in plan order.
    """
    nodes = network.nodes
    programs = network.programs
    inboxes = plan.inboxes
    round_no = plan.round_no
    stepped = 0
    for nid in plan.node_ids if node_ids is None else node_ids:
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

    def run(self, network: "CongestNetwork", max_rounds: int, stop_on_quiescence: bool) -> RunResult:
        raise NotImplementedError

    def _execute_plan(self, network: "CongestNetwork", plan: StepPlan) -> None:
        """Run one round's step phase; subclasses may shard or batch it."""
        step_batch(network, plan)

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

    def _execute_plan(self, network: "CongestNetwork", plan: StepPlan) -> None:
        self.node_steps += step_batch(network, plan)

    def run(self, network: "CongestNetwork", max_rounds: int, stop_on_quiescence: bool) -> RunResult:
        transport = network.transport
        trace = network.trace
        tracing = trace.enabled
        fault_plan = network.faults
        # The crash predicate, hoisted so fault-free runs pay one None check.
        crashed = fault_plan.crashed if fault_plan is not None and fault_plan.has_crashes else None
        has_events = fault_plan is not None and (fault_plan.crashes or fault_plan.topology_events)
        self._start(network)

        round_no = 0
        while round_no < max_rounds:
            if all(node.halted for node in network.nodes.values()):
                break
            if (
                stop_on_quiescence
                and round_no > 0
                and transport.per_round_bits
                and transport.per_round_bits[-1] == 0
                and transport.pending_traffic() == 0
                and not transport.has_outgoing()
                # A pending crash/recovery/topology event can re-animate a
                # silent network; keep the clock running until the schedule
                # is exhausted.
                and (not has_events or fault_plan.next_event_round(round_no) is None)
            ):
                round_no -= 1  # the silent probe round does not count
                break
            round_no += 1
            network.current_round = round_no
            if fault_plan is not None and fault_plan.topology_events:
                network.apply_topology_events(round_no)
            if tracing:
                pre_msgs, pre_bits = transport.total_messages, transport.total_bits
            inboxes = transport.deliver_round()
            plan = StepPlan(
                round_no,
                [
                    nid
                    for nid, node in network.nodes.items()
                    if not node.halted and (crashed is None or not crashed(nid, round_no))
                ],
                inboxes,
            )
            self._execute_plan(network, plan)
            transport.flush()
            if tracing:
                trace.emit(
                    "round",
                    round=round_no,
                    active=len(plan.node_ids),
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

    ``node_steps`` counts ``on_round`` calls and ``skipped_rounds`` the
    quiet rounds jumped in O(1), both for introspection; on mostly quiet
    workloads ``node_steps`` is far below the dense engine's ``n x rounds``.
    """

    name = "event"

    def __init__(self) -> None:
        self.node_steps = 0
        self.skipped_rounds = 0

    def _execute_plan(self, network: "CongestNetwork", plan: StepPlan) -> None:
        self.node_steps += step_batch(network, plan)

    def _skip(self, network: "CongestNetwork", after_round: int, rounds: int) -> None:
        """Jump ``rounds`` quiet rounds, counting and tracing the stretch."""
        moved = network.transport.skip_rounds(rounds)
        self.skipped_rounds += rounds
        trace = network.trace
        if trace.enabled:
            trace.emit("skip", after_round=after_round, rounds=rounds, moved_bits=moved)

    def run(self, network: "CongestNetwork", max_rounds: int, stop_on_quiescence: bool) -> RunResult:
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
            if (
                stop_on_quiescence
                and round_no > 0
                and transport.per_round_bits
                and transport.per_round_bits[-1] == 0
                and transport.pending_traffic() == 0
                and not transport.has_outgoing()
                # Match the dense engine: a scheduled crash/recovery/topology
                # event can re-animate a silent network.
                and (not has_events or fault_plan.next_event_round(round_no) is None)
            ):
                round_no -= 1  # the silent probe round does not count
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

            if stop_on_quiescence and transport.pending_traffic() == 0:
                # The dense engine probes the very next round and stops on
                # silence; jumping over it would skip that termination point.
                target = round_no + 1
            elif delivery_round is None and program_round is None and fault_round is None:
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
            plan = StepPlan(
                round_no,
                sorted(
                    (
                        nid
                        for nid in step
                        if not network.nodes[nid].halted
                        and (crashed is None or not crashed(nid, round_no))
                    ),
                    key=order.__getitem__,
                ),
                inboxes,
            )
            # The step phase: share-nothing within the round, so subclasses
            # may shard it across threads.  Bookkeeping (halt accounting and
            # wake-up scheduling) stays serial, after the barrier.
            self._execute_plan(network, plan)
            for nid in plan.node_ids:
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
                    active=len(plan.node_ids),
                    delivered=sum(len(msgs) for msgs in inboxes.values()),
                    moved_bits=transport.per_round_bits[-1],
                    sent_msgs=transport.total_messages - pre_msgs,
                    sent_bits=transport.total_bits - pre_bits,
                )

        return self._result(network, round_no)


class ParallelEngine(EventEngine):
    """Active-set engine whose step phase is sharded across a thread pool.

    Inherits the event engine's clock (active set, O(1) skips, quiescence
    probing) and replaces only the step phase: each round's plan is
    partitioned into ``threads`` contiguous shards of the node-id-ordered
    active set, shards are stepped concurrently, and each thread's sends are
    staged in a :class:`~repro.congest.transport.ShardOutbox` merged at the
    round barrier in shard (= node-id) order.  Because nodes are
    share-nothing within a round, every ``RunResult`` field -- and the
    opt-in message log -- is identical to the serial engines, regardless of
    thread count or interleaving.

    ``threads`` defaults to the host CPU count.  Rounds whose active set is
    smaller than ``min_parallel_nodes`` are stepped inline: a shard
    dispatch costs more than a handful of node steps, so mostly-quiet
    rounds should not pay for the pool.  The threshold defaults to
    ``4 * threads`` where OS threads can actually run Python bytecode
    concurrently (a free-threaded build), and to "never shard" on
    GIL-serialised builds -- there the shards would serialise on the
    interpreter lock and the dispatch overhead is pure loss, so the engine
    sits at event-engine parity instead.  Pass ``min_parallel_nodes``
    explicitly to force sharding regardless (as the equivalence tests do).
    """

    name = "parallel"

    def __init__(self, threads: int | None = None, min_parallel_nodes: int | None = None) -> None:
        super().__init__()
        if threads is not None and threads < 1:
            raise ValueError("threads must be at least 1")
        self.threads = threads if threads is not None else (os.cpu_count() or 1)
        if min_parallel_nodes is not None:
            self.min_parallel_nodes: float = max(1, min_parallel_nodes)
        elif getattr(sys, "_is_gil_enabled", lambda: True)():
            self.min_parallel_nodes = float("inf")
        else:
            self.min_parallel_nodes = 4 * self.threads
        self._pool: ThreadPoolExecutor | None = None

    def run(self, network: "CongestNetwork", max_rounds: int, stop_on_quiescence: bool) -> RunResult:
        if self.threads == 1 or self.min_parallel_nodes == float("inf"):
            # One shard is the event engine; likewise a threshold no round
            # can reach (the GIL-build default).  Skip the pool entirely.
            return super().run(network, max_rounds, stop_on_quiescence)
        self._pool = ThreadPoolExecutor(
            max_workers=self.threads, thread_name_prefix="congest-shard"
        )
        try:
            return super().run(network, max_rounds, stop_on_quiescence)
        finally:
            self._pool.shutdown(wait=True)
            self._pool = None

    def _execute_plan(self, network: "CongestNetwork", plan: StepPlan) -> None:
        pool = self._pool
        ids = plan.node_ids
        if pool is None or len(ids) < self.min_parallel_nodes:
            self.node_steps += step_batch(network, plan)
            return
        trace = network.trace
        tracing = trace.enabled
        shard_size = -(-len(ids) // self.threads)  # ceil: at most `threads` shards
        shards = [ids[i : i + shard_size] for i in range(0, len(ids), shard_size)]
        transport = network.transport
        transport.begin_shard_staging()
        try:
            # The calling thread works shard 0 itself instead of blocking on
            # the pool -- one fewer dispatch round-trip per round.
            futures = [
                pool.submit(self._step_shard, network, plan, shard, tracing)
                for shard in shards[1:]
            ]
            try:
                first = self._step_shard(network, plan, shards[0], tracing)
            finally:
                # Barrier: every shard must have stopped touching the
                # transport before staging ends, even if one raised.
                wait(futures)
        finally:
            transport.end_shard_staging()
        results = [first] + [future.result() for future in futures]
        # Merge in shard (= node-id) order, stopping at the earliest failed
        # shard: the merged staging -- totals, message log -- then matches
        # what the serial engines would have accumulated up to the failing
        # node's step, and that shard's error propagates as theirs would.
        # (Later shards' *program* state may have advanced concurrently;
        # only an aborting run observes that, and only via node state.)
        merged = []
        error = None
        for outbox, stepped, exc, _ in results:
            merged.append((outbox, stepped))
            if exc is not None:
                error = exc
                break
        merge_t0 = time.perf_counter() if tracing else 0.0
        transport.merge_shard_outboxes(box for box, _ in merged)
        self.node_steps += sum(stepped for _, stepped in merged)
        if tracing:
            trace.emit(
                "event",
                name="shard_round",
                round=plan.round_no,
                shards=len(shards),
                shard_nodes=[len(shard) for shard in shards],
                shard_s=[round(r[3], 6) for r in results],
                merge_s=round(time.perf_counter() - merge_t0, 6),
            )
        if error is not None:
            raise error

    @staticmethod
    def _step_shard(
        network: "CongestNetwork", plan: StepPlan, shard: list[Hashable], timed: bool = False
    ):
        """Step one shard behind a thread-local outbox.

        Failures are returned, not raised: the outbox must survive (it holds
        the sends staged before the failing node, which the serial engines
        would have counted) and the caller decides merge order and which
        error wins.  ``timed`` adds per-shard wall-clock (two clock reads);
        it is passed only when the run is traced so the untraced hot path
        stays clock-free.
        """
        transport = network.transport
        outbox = transport.open_shard_outbox()
        stepped = 0
        error: BaseException | None = None
        t0 = time.perf_counter() if timed else 0.0
        try:
            stepped = step_batch(network, plan, shard)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
            error = exc
        finally:
            transport.close_shard_outbox()
        return outbox, stepped, error, (time.perf_counter() - t0 if timed else 0.0)


class ColumnarEngine(EventEngine):
    """:class:`EventEngine` under its former name.  Kept only because
    ``perfbench/layers.py`` names it; it goes once the benchmark stops
    naming it."""

    transport_class = ColumnarTransport


_ENGINES = {
    "dense": DenseEngine,
    "event": EventEngine,
    "parallel": ParallelEngine,
}

#: The engine names :func:`get_engine` resolves (``event`` is the default
#: everywhere an engine is chosen by name).
ENGINE_NAMES = tuple(_ENGINES)


def get_engine(spec: str | Engine) -> Engine:
    """Resolve an engine spec: an :class:`Engine` instance or a name.

    A name builds the engine with its defaults; build a
    :class:`ParallelEngine` directly to choose its ``threads``.
    """
    if isinstance(spec, Engine):
        return spec
    try:
        cls = _ENGINES[spec]
    except KeyError:
        raise ValueError(f"unknown engine {spec!r}; known: {', '.join(ENGINE_NAMES)}") from None
    return cls()
