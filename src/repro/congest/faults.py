"""Deterministic fault injection under the engine seam.

Every scenario used to run on a static, reliable network; this module makes
adversity a first-class, *reproducible* input.  A :class:`FaultPlan` is a
pure value describing the adversary -- a per-message drop probability,
node crash+recovery spans, and scheduled edge insertion/deletion events --
and a :class:`FaultyTransport` wraps the engine's ``LinkTransport`` and
applies the plan as programs send and as rounds deliver.

**Determinism contract.**  Every drop decision is a pure function of
``(plan seed, round, directed edge, per-edge message index)`` via a
:func:`hash <FaultPlan.decision>` -- no RNG state, no engine state.  The
index is the send's position among the round's sends on its directed edge,
drops included, and every engine sends in the same canonical order, so
both engines (dense and event) produce **byte-identical faulted runs** for
the same plan.

**Fault semantics.**

- *Drops* happen "on the wire", at the send: the send is still charged to
  the run totals and the opt-in message log (the sender paid), but a
  dropped message never enters the link buffer.
- *Crashes* are "napping" faults: a crashed node is not stepped, and
  deliveries addressed to it while down are discarded (counted as
  ``crash_lost``).  Program state survives; recovery forcibly re-steps the
  node with an empty inbox so reactive programs can resume.
- *Topology events* insert or delete edges at scheduled rounds.  Deleting
  a link kills it outright: messages still in flight on it are lost
  (counted as ``link_lost``) and the endpoints' neighbour lists shrink, so
  programs never observe a delivery from an edge that no longer exists.

The engines cooperate through two hooks: :meth:`FaultPlan.next_event_round`
joins the event engine's skip-target candidates so O(1) jumps never leap
past a scheduled crash, recovery, or topology event (the wrapper's
:meth:`FaultyTransport.skip_rounds` guard enforces this), and
:meth:`FaultPlan.forced_wakes` tells it which nodes must be stepped at
recovery/topology rounds even without a delivery.

Telemetry: the wrapper emits ``fault_flush`` / ``fault_crash_lost`` events
through :mod:`repro.obs` (gated on ``trace.enabled``), the network emits
``fault_crash_span`` / ``fault_topology``, and the accumulated
:class:`FaultStats` ride on ``transport.stats`` for scenario reporting.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass
from typing import Any, Hashable, Iterable, NamedTuple

import networkx as nx

from repro.obs.trace import current_tracer

__all__ = [
    "CrashSpan",
    "TopologyEvent",
    "FaultPlan",
    "FaultStats",
    "FaultyTransport",
    "apply_topology_event",
]


class CrashSpan(NamedTuple):
    """One node's crash window: down during rounds ``[start, stop)``.

    The node is not stepped and receives nothing while down; it is forcibly
    re-stepped (with an empty inbox) at round ``stop``.
    """

    node: Hashable
    start: int
    stop: int


class TopologyEvent(NamedTuple):
    """One scheduled edge mutation, applied at the start of ``round``."""

    round: int
    #: ``"insert"`` or ``"delete"``.
    action: str
    u: Hashable
    v: Hashable
    #: Weight attached to an inserted edge (ignored for deletions).
    weight: float = 1.0


def apply_topology_event(graph: nx.Graph, event: TopologyEvent) -> bool:
    """Apply one event to ``graph`` in place; returns whether it applied.

    Impossible events -- inserting an existing edge or a self-loop, deleting
    an absent edge, touching unknown nodes -- are skipped, not errors: a
    generated plan stays applicable even if an earlier event already changed
    the graph.  This helper is the single source of the skip rules, shared
    by the live network and :meth:`FaultPlan.final_graph`.
    """
    u, v = event.u, event.v
    if event.action == "insert":
        if u == v or u not in graph or v not in graph or graph.has_edge(u, v):
            return False
        graph.add_edge(u, v, weight=event.weight)
        return True
    if event.action == "delete":
        if not graph.has_edge(u, v):
            return False
        graph.remove_edge(u, v)
        return True
    raise ValueError(f"unknown topology action {event.action!r}; known: insert, delete")


def _derive_int_seed(seed: int, salt: str) -> int:
    """A stable 64-bit integer from ``(seed, salt)`` (process-independent)."""
    digest = hashlib.sha256(f"{salt}|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


_HASH_DENOM = float(1 << 64)


@dataclass
class FaultPlan:
    """A seeded, declarative adversary for one CONGEST run.

    The plan is a *value*: two plans constructed with equal fields make
    identical decisions on every engine and backend, because each decision
    hashes ``(seed, round, edge, msg_index)`` and nothing else.
    ``window`` bounds the rounds (inclusive) in which messages may be
    dropped; crash spans and topology events carry their own schedule.
    """

    seed: int = 0
    #: Per-message probability that a send is dropped on the wire.
    drop_prob: float = 0.0
    crashes: tuple[CrashSpan, ...] = ()
    topology_events: tuple[TopologyEvent, ...] = ()
    #: Inclusive round window for the message drops; ``None`` means every
    #: round (then :meth:`last_fault_round` is None).
    window: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_prob <= 1.0:
            raise ValueError(f"drop_prob must be in [0, 1], got {self.drop_prob!r}")
        self.crashes = tuple(
            span if isinstance(span, CrashSpan) else CrashSpan(*span) for span in self.crashes
        )
        for span in self.crashes:
            if span.start < 1 or span.stop <= span.start:
                raise ValueError(f"crash span needs 1 <= start < stop, got {span!r}")
        self.topology_events = tuple(
            ev if isinstance(ev, TopologyEvent) else TopologyEvent(*ev)
            for ev in self.topology_events
        )
        for ev in self.topology_events:
            if ev.action not in ("insert", "delete"):
                raise ValueError(f"unknown topology action {ev.action!r} in {ev!r}")
            if ev.round < 1:
                raise ValueError(f"topology events start at round 1, got {ev!r}")
        # Stable apply order: by round, ties in declaration order.
        self.topology_events = tuple(sorted(self.topology_events, key=lambda e: e.round))
        if self.window is not None:
            lo, hi = self.window
            if lo < 0 or hi < lo:
                raise ValueError(f"window must be (lo, hi) with 0 <= lo <= hi, got {self.window!r}")
            self.window = (int(lo), int(hi))
        # Derived lookups (value-semantics: rebuilt whenever replace() runs).
        spans: dict[Hashable, list[tuple[int, int]]] = {}
        for span in self.crashes:
            spans.setdefault(span.node, []).append((span.start, span.stop))
        self._crash_spans = {node: tuple(sorted(windows)) for node, windows in spans.items()}
        rounds: set[int] = set()
        forced: dict[int, list[Hashable]] = {}
        for span in self.crashes:
            rounds.add(span.start)
            rounds.add(span.stop)
            forced.setdefault(span.stop, []).append(span.node)
        for ev in self.topology_events:
            rounds.add(ev.round)
            bucket = forced.setdefault(ev.round, [])
            for endpoint in (ev.u, ev.v):
                if endpoint not in bucket:
                    bucket.append(endpoint)
        self._event_rounds = tuple(sorted(rounds))
        self._forced = {rnd: tuple(nodes) for rnd, nodes in forced.items()}
        # Per-undirected-edge event timeline, for the in-flight loss rule:
        # a message delivered while its link is down is lost.
        timeline: dict[frozenset, list[tuple[int, str]]] = {}
        for ev in self.topology_events:
            timeline.setdefault(frozenset((ev.u, ev.v)), []).append((ev.round, ev.action))
        self._edge_timeline = {pair: tuple(evs) for pair, evs in timeline.items()}
        self._has_deletes = any(ev.action == "delete" for ev in self.topology_events)

    # -- introspection ---------------------------------------------------------

    @property
    def has_message_faults(self) -> bool:
        """Whether any message can ever be dropped."""
        return self.drop_prob > 0.0

    @property
    def has_crashes(self) -> bool:
        """Whether the plan schedules any crash span."""
        return bool(self.crashes)

    def is_empty(self) -> bool:
        """True when the plan injects nothing (a transparent wrapper)."""
        return not (self.has_message_faults or self.crashes or self.topology_events)

    def last_fault_round(self) -> int | None:
        """The last round at which this plan can still inject anything.

        After this round the network behaves fault-free, so scenarios
        measure rounds-to-restabilize from here.  ``None`` when drops are
        unbounded (``window is None`` with a positive ``drop_prob``).
        """
        last = 0
        if self.has_message_faults:
            if self.window is None:
                return None
            last = self.window[1]
        for span in self.crashes:
            last = max(last, span.stop)
        for ev in self.topology_events:
            last = max(last, ev.round)
        return last

    # -- drop decisions (pure hashes) -------------------------------------------

    def decision(self, round_no: int, sender: Hashable, receiver: Hashable, index: int) -> float:
        """The uniform [0, 1) draw for one drop decision.

        Pure in ``(seed, round, edge, index)``: blake2b of the tuple's
        canonical encoding, so the decision is identical regardless of
        engine, backend, or process.  The hashed string carries a fixed
        ``drop`` tag: any other string would change every drop decision,
        and with it every stored fault record.
        """
        digest = hashlib.blake2b(
            f"{self.seed}|drop|{round_no}|{sender!r}|{receiver!r}|{index}".encode(),
            digest_size=8,
        ).digest()
        return int.from_bytes(digest, "big") / _HASH_DENOM

    def message_faults_active(self, round_no: int) -> bool:
        """Whether messages sent at ``round_no`` may be dropped."""
        if not self.has_message_faults:
            return False
        window = self.window
        return window is None or window[0] <= round_no <= window[1]

    def drop(self, round_no: int, sender: Hashable, receiver: Hashable, index: int) -> bool:
        """Whether to drop the ``index``-th message sent on the edge in
        ``round_no`` (counting from 0, earlier drops included)."""
        if not self.message_faults_active(round_no):
            return False
        return self.decision(round_no, sender, receiver, index) < self.drop_prob

    # -- schedule queries (engine hooks) ---------------------------------------

    def crashed(self, node: Hashable, round_no: int) -> bool:
        """Whether ``node`` is down at ``round_no`` (down in [start, stop))."""
        spans = self._crash_spans.get(node)
        if spans is None:
            return False
        for start, stop in spans:
            if start <= round_no < stop:
                return True
            if start > round_no:
                break
        return False

    def edge_down(self, u: Hashable, v: Hashable, round_no: int) -> bool:
        """Whether the link ``{u, v}`` is deleted (and not re-inserted) as of
        ``round_no``, per the plan's event timeline.

        Used for the in-flight loss rule at delivery: the timeline view is
        engine-independent, unlike the live graph, whose catch-up state could
        differ between engines mid-skip.
        """
        if not self._has_deletes:
            return False
        events = self._edge_timeline.get(frozenset((u, v)))
        if not events:
            return False
        down = False
        for rnd, action in events:
            if rnd > round_no:
                break
            down = action == "delete"
        return down

    def next_event_round(self, after_round: int) -> int | None:
        """The first scheduled fault round strictly after ``after_round``.

        Covers crash starts, recoveries, and topology events -- the rounds
        the event engine must execute (never skip over); drops need no
        wake-up because they happen only at sends, in rounds that execute
        anyway.
        """
        import bisect

        rounds = self._event_rounds
        i = bisect.bisect_right(rounds, after_round)
        return rounds[i] if i < len(rounds) else None

    def forced_wakes(self) -> dict[int, tuple[Hashable, ...]]:
        """Round -> nodes that must be stepped there without a delivery:
        recovered nodes at their recovery round and the endpoints of each
        topology event at its round."""
        return self._forced

    # -- derived artefacts -----------------------------------------------------

    def final_graph(self, graph: nx.Graph) -> nx.Graph:
        """A copy of ``graph`` with every topology event applied -- the
        topology the network has after the churn, which centralized
        recomputes (restabilization correctness checks) should target."""
        final = graph.copy()
        for event in self.topology_events:
            apply_topology_event(final, event)
        return final

    @classmethod
    def generate(
        cls,
        graph: nx.Graph,
        *,
        seed: int = 0,
        drop_prob: float = 0.0,
        n_crashes: int = 0,
        crash_length: int = 8,
        n_edge_deletes: int = 0,
        n_edge_inserts: int = 0,
        window: tuple[int, int] = (1, 40),
        insert_weight_range: tuple[float, float] = (1.0, 1.0),
        protect: Iterable[Hashable] = (),
    ) -> "FaultPlan":
        """Derive a concrete schedule for ``graph`` from ``seed``.

        Crash spans pick distinct nodes (never the ``protect`` set -- e.g. a
        BFS source) with start rounds in ``window``; edge deletions pick
        non-bridge edges one at a time so the graph stays connected; edge
        insertions pick absent node pairs with weights in
        ``insert_weight_range``.  Everything derives from a sha256-seeded
        :class:`random.Random`, so the same arguments yield the same plan
        in any process.
        """
        rng = random.Random(_derive_int_seed(seed, "faultplan"))
        lo, hi = int(window[0]), int(window[1])
        if lo < 1 or hi < lo:
            raise ValueError(f"window must be (lo, hi) with 1 <= lo <= hi, got {window!r}")

        nodes = sorted(graph.nodes(), key=repr)
        protected = set(protect)
        crashes = []
        candidates = [node for node in nodes if node not in protected]
        for node in rng.sample(candidates, min(n_crashes, len(candidates))):
            start = rng.randint(lo, hi)
            crashes.append(CrashSpan(node, start, start + max(1, crash_length)))

        events: list[TopologyEvent] = []
        scratch = graph.copy()
        for _ in range(n_edge_deletes):
            bridges = set(frozenset(edge) for edge in nx.bridges(scratch))
            deletable = [
                (u, v)
                for u, v in sorted(scratch.edges(), key=lambda e: (repr(e[0]), repr(e[1])))
                if frozenset((u, v)) not in bridges
            ]
            if not deletable:
                break
            u, v = rng.choice(deletable)
            scratch.remove_edge(u, v)
            events.append(TopologyEvent(rng.randint(lo, hi), "delete", u, v))
        for _ in range(n_edge_inserts):
            absent = [
                (nodes[i], nodes[j])
                for i in range(len(nodes))
                for j in range(i + 1, len(nodes))
                if not scratch.has_edge(nodes[i], nodes[j])
            ]
            if not absent:
                break
            u, v = rng.choice(absent)
            w_lo, w_hi = insert_weight_range
            w = w_lo if w_lo == w_hi else rng.uniform(w_lo, w_hi)
            scratch.add_edge(u, v)
            events.append(TopologyEvent(rng.randint(lo, hi), "insert", u, v, float(w)))

        return cls(
            seed=seed,
            drop_prob=drop_prob,
            crashes=tuple(crashes),
            topology_events=tuple(events),
            window=(lo, hi),
        )


@dataclass
class FaultStats:
    """Counters accumulated by one :class:`FaultyTransport` over a run."""

    drops: int = 0
    #: Messages discarded because their receiver was down at delivery.
    crash_lost: int = 0
    #: In-flight messages lost because their link was deleted under them.
    link_lost: int = 0
    #: Flushes that closed a round with at least one drop.
    faulted_flushes: int = 0
    #: Topology events that actually mutated the graph.
    topology_applied: int = 0

    def as_dict(self) -> dict[str, int]:
        """A plain-dict view for scenario result payloads."""
        return asdict(self)


class FaultyTransport:
    """A transport wrapper that applies a :class:`FaultPlan` at the send
    and at delivery.

    Implements the full transport API (staging, delivery, skip accounting)
    over the wrapped transport.  Inside the plan's drop window each program
    send is decided as it is made (:meth:`FaultPlan.drop`, indexed by a
    per-directed-edge send count that includes drops and is cleared at
    every flush); a dropped send never reaches the inner transport, and
    every other send goes straight to the inner ``enqueue`` /
    ``enqueue_many``, so a broadcast keeps the inner bulk path and a round
    outside the window costs the wrapper no per-send work.
    ``total_messages`` / ``total_bits`` / the opt-in message log count what
    the *programs* sent (drops included); the wire-level metrics
    (``per_round_bits``, ``max_edge_bits_per_round``) come from the inner
    transport and therefore reflect the faulted stream.

    With an empty plan the wrapper is transparent: every metric, trace
    line, and delivery is byte-identical to running on the inner transport
    directly (asserted by the engine-equivalence suite).  Fault events go
    to the ambient tracer in effect when the wrapper is built.
    """

    def __init__(self, inner, plan: FaultPlan):
        self.inner = inner
        self.plan = plan
        self.stats = FaultStats()
        self.trace = current_tracer()
        self.record_messages = inner.record_messages
        # The wrapper owns the program-send log (drops included); stop the
        # inner transport from keeping a second one of the survivors.
        inner.record_messages = False
        self.message_log: list[tuple[int, Hashable, Hashable, int]] = []
        self._dropped_bits = 0
        # Sends per directed edge in the round being staged, drops
        # included: the index of each drop decision.
        self._sent: dict[tuple[Hashable, Hashable], int] = {}
        self._round_drops = 0
        self._drop_round = 0
        self._round = 0

    # -- delegated configuration / metrics -------------------------------------

    @property
    def total_messages(self) -> int:
        """Messages the programs sent so far, drops included."""
        return self.inner.total_messages + self.stats.drops

    @property
    def total_bits(self) -> int:
        """Bits the programs sent so far, drops included."""
        return self.inner.total_bits + self._dropped_bits

    @property
    def max_edge_bits_per_round(self) -> int:
        """Wire-level peak per-edge bits per round (post-fault stream)."""
        return self.inner.max_edge_bits_per_round

    @property
    def per_round_bits(self) -> list[int]:
        """Wire-level bits moved per round (post-fault stream)."""
        return self.inner.per_round_bits

    @property
    def fault_summary(self) -> dict[str, int] | None:
        """The accumulated fault counters for ``RunResult.fault_stats``.

        ``None`` for an empty plan: an all-zero dict would make an
        empty-plan ``RunResult`` distinguishable from a bare run, which the
        transparency contract forbids.
        """
        if self.plan.is_empty():
            return None
        return self.stats.as_dict()

    # -- staging ---------------------------------------------------------------

    def enqueue(self, sender: Hashable, receiver: Hashable, payload: Any, bits: int, round_no: int) -> None:
        """Send one message: drop it, or stage it in the inner transport."""
        dropped = self.plan.message_faults_active(round_no) and self._dropped(
            sender, receiver, bits, round_no
        )
        if not dropped:
            self.inner.enqueue(sender, receiver, payload, bits, round_no)
        if self.record_messages:
            self.message_log.append((round_no, sender, receiver, bits))

    def enqueue_many(self, sender: Hashable, receivers: list[Hashable], payload: Any, bits: int, round_no: int) -> None:
        """Send one payload to several receivers (the broadcast path): the
        survivors reach the inner transport in one ``enqueue_many``."""
        survivors = receivers
        if self.plan.message_faults_active(round_no):
            survivors = [r for r in receivers if not self._dropped(sender, r, bits, round_no)]
        self.inner.enqueue_many(sender, survivors, payload, bits, round_no)
        if self.record_messages:
            self.message_log.extend((round_no, sender, r, bits) for r in receivers)

    def _dropped(self, sender: Hashable, receiver: Hashable, bits: int, round_no: int) -> bool:
        """Take the drop decision for one send inside the drop window; a
        dropped send is counted here and goes no further."""
        edge = (sender, receiver)
        index = self._sent.get(edge, 0)
        self._sent[edge] = index + 1
        if not self.plan.drop(round_no, sender, receiver, index):
            return False
        self.stats.drops += 1
        self._dropped_bits += bits
        self._round_drops += 1
        self._drop_round = round_no
        return True

    def flush(self) -> None:
        """Close the round's drop count, then commit the inner transport's
        staged round."""
        self._sent.clear()
        drops = self._round_drops
        if drops:
            self._round_drops = 0
            self.stats.faulted_flushes += 1
            trace = self.trace
            if trace.enabled:
                trace.event("fault_flush", round=self._drop_round, drops=drops)
        self.inner.flush()

    # -- advancing -------------------------------------------------------------

    def deliver_round(self) -> dict[Hashable, list]:
        """Advance one round; discard deliveries the plan makes impossible.

        Two discard rules apply here, both functions of ``(plan, round)``
        alone so every engine discards identically: inboxes addressed to a
        crashed node are lost (``crash_lost``), and messages whose link was
        deleted while they were in flight are lost (``link_lost``).
        """
        self._round += 1
        inboxes = self.inner.deliver_round()
        plan = self.plan
        round_no = self._round
        if plan.has_crashes:
            downed = [nid for nid in inboxes if plan.crashed(nid, round_no)]
            for nid in downed:
                lost = inboxes.pop(nid)
                self.stats.crash_lost += len(lost)
                trace = self.trace
                if trace.enabled:
                    trace.event(
                        "fault_crash_lost", round=round_no, node=repr(nid), messages=len(lost)
                    )
        if plan._has_deletes and inboxes:
            for nid in list(inboxes):
                msgs = inboxes[nid]
                kept = [msg for msg in msgs if not plan.edge_down(msg.sender, nid, round_no)]
                dropped = len(msgs) - len(kept)
                if dropped:
                    self.stats.link_lost += dropped
                    trace = self.trace
                    if trace.enabled:
                        trace.event(
                            "fault_link_lost", round=round_no, node=repr(nid), messages=dropped
                        )
                    if kept:
                        inboxes[nid] = kept
                    else:
                        del inboxes[nid]
        return inboxes

    def lost_link_send(self, sender: Hashable, receiver: Hashable, round_no: int) -> bool:
        """Whether a send on ``{sender, receiver}`` is silently lost.

        A program holding a stale neighbour reference (e.g. a BFS-tree child
        recorded before the plan deleted the link) may still attempt the
        send; the plan's timeline decides -- engine-independently -- that
        the message vanishes (``link_lost``) instead of the node-handle
        neighbour check raising.  Sends to pairs that were never linked
        still raise as usual.
        """
        if not self.plan._has_deletes:
            return False
        if not self.plan.edge_down(sender, receiver, round_no):
            return False
        self.stats.link_lost += 1
        trace = self.trace
        if trace.enabled:
            trace.event(
                "fault_lost_send",
                round=round_no,
                sender=repr(sender),
                receiver=repr(receiver),
            )
        return True

    def rounds_until_delivery(self) -> int | None:
        """Rounds until the next message completes (inner transport's view)."""
        return self.inner.rounds_until_delivery()

    def skip_rounds(self, rounds: int) -> int:
        """Account a quiet stretch; refuses to cross a scheduled fault round.

        The event engines include :meth:`FaultPlan.next_event_round` in
        their skip-target candidates, so a correct engine never trips this
        guard -- it exists to turn a missed wake-up hook into a loud error
        instead of a silently unfaulted run.
        """
        if rounds > 0:
            upcoming = self.plan.next_event_round(self._round)
            if upcoming is not None and upcoming <= self._round + rounds:
                raise RuntimeError(
                    f"skip_rounds crossed a scheduled fault event: skipping "
                    f"{rounds} round(s) past round {self._round} leaps over round {upcoming}"
                )
            self._round += rounds
        return self.inner.skip_rounds(rounds)

    def pending_traffic(self) -> int:
        """Bits still in flight on the inner transport."""
        return self.inner.pending_traffic()
