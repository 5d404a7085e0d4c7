"""The transport layer: per-edge bit accounting, chunking and metrics.

This is the bottom of the three-layer CONGEST engine stack
(transport -> scheduler -> program API).  A :class:`LinkTransport` owns the
per-directed-edge FIFO queues and everything that is charged by the bit:
message chunking over ``ceil(bits/B)`` rounds, the run metrics
(``total_bits``, ``per_round_bits``, ``max_edge_bits_per_round``) and the
optional per-message log.

Engines drive it through four operations:

- :meth:`~LinkTransport.enqueue` / :meth:`~LinkTransport.flush` -- stage a
  round's sends, then commit them at the round barrier;
- :meth:`~LinkTransport.deliver_round` -- advance one round and collect
  the messages that completed;
- :meth:`~LinkTransport.rounds_until_delivery` /
  :meth:`~LinkTransport.skip_rounds` -- the event-driven fast path:
  because links drain deterministically at ``B`` bits per round, a
  stretch of rounds in which no message completes is accounted in one
  call (each busy link moves exactly ``B`` bits per skipped round),
  keeping the metrics bit-identical to a round-by-round advance.

**Staging.**  A round's sends are staged as two plain lists: the dense
directed-edge id of each send, in ``Node.send`` call order, and the
finished :class:`Received` record, which already carries the charged size
(``rec.bits``).  Edge ids are assigned once, at an edge's first-ever send,
and identify the edge's permanent :class:`_EdgeQueue` (which holds the
sender and receiver, so staging doesn't repeat them per message).  The
round is grouped by edge only where it is delivered as a block.

**Block path.**  ``flush`` sums the staged bits per edge in one pass.  When
no edge is mid-transmission and every per-edge sum is within ``B`` (the
common case: well-behaved CONGEST programs respect the per-round budget),
the whole staged round completes exactly one round later as a single
*block*: no per-message queue appends, no clock installs.
:meth:`~LinkTransport.deliver_round` emits the block in staging order when
every edge sends once, otherwise by per-edge runs in first-appearance edge
order, FIFO within an edge.  A flush while a block is pending first
*materializes* the block into the per-edge queues (exactly what the
general path would have built), so arbitrary flush/deliver/skip
interleavings stay exact.

**Lazy completion clock.**  Otherwise the records commit to per-edge FIFO
queues whose *head* progress is derived from a round counter instead of
decremented every round, plus a ``(completion, activation seq, eid)``
heap with one entry per live edge: a round touches only the edges whose
head completes, and :meth:`~LinkTransport.rounds_until_delivery` /
:meth:`~LinkTransport.pending_traffic` are O(1).

**Activation order.**  Same-round deliveries come out in the order their
edges last went from drained to live (the activation sequence), FIFO
within an edge -- the order of an insertion-ordered dict of live links
that drops drained edges and re-inserts revived ones at the end.  The
staging order is the engines' send order (node-id order within a round,
program send order within a node), so deliveries, metrics and the opt-in
message log are the same on every engine; the lockstep tests
(``tests/test_transport.py``) pin them to a per-link reference transport,
``tests/reference_transport.py``.
"""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from typing import Any, Hashable

from repro.congest.message import Received


class _EdgeQueue:
    """One directed edge: a FIFO of records plus lazy head accounting.

    Queues are permanent -- created at the edge's first-ever send and
    recycled across drain/revive cycles.  ``head`` indexes the first
    undelivered record in ``recs``; ``head_rem`` is the head's remaining
    bits as of clock ``head_clock`` (the transport does *not* decrement
    it each round -- the remainder at any later clock ``c`` is
    ``head_rem - B * (c - head_clock)``, and the completion clock
    ``head_clock + ceil(head_rem / B)`` is computed once and pushed on
    the transport's completion-clock heap).  ``seq`` is the edge's
    *activation* sequence number, refreshed each time the edge goes from
    drained back to live: it orders same-round completions, including
    drain-then-revive reinsertion at the end.
    """

    __slots__ = ("sender", "receiver", "seq", "recs", "head", "head_clock", "head_rem", "live")

    def __init__(self, sender: Hashable, receiver: Hashable):
        self.sender = sender
        self.receiver = receiver
        self.seq = 0
        self.recs: list[Any] = []
        self.head = 0
        self.head_clock = 0
        self.head_rem = 0
        self.live = False


class LinkTransport:
    """Link queues and bit accounting for one CONGEST(B) execution.

    Cost model (see the module docstring): staging is two list appends; a
    quiet live edge costs nothing per round; ``deliver_round`` touches
    only the edges whose head completes, and an all-fitting round with no
    carry-over traffic is delivered as one block straight from the staged
    lists; ``rounds_until_delivery`` / ``pending_traffic`` are O(1).
    """

    def __init__(self, bandwidth: int, record_messages: bool = False):
        if bandwidth < 1:
            raise ValueError("bandwidth must be at least 1")
        self.bandwidth = bandwidth
        self.record_messages = record_messages
        # Messages and bits of the flushed rounds; the totals add the
        # round being staged (see ``total_messages``).
        self._flushed_messages = 0
        self._flushed_bits = 0
        self.max_edge_bits_per_round = 0
        self.per_round_bits: list[int] = []
        # Bits still in flight (committed, not yet moved), kept
        # incrementally: += at the flush commit, -= exactly the bits a
        # round (or skipped stretch) moves.  It keeps pending_traffic()
        # O(1) for a check at every phase boundary (ROADMAP item 1); today
        # only tests call it.
        self._pending_bits = 0
        #: (round_sent, sender, receiver, bits) per message; only populated
        #: when ``record_messages`` is set (the list grows unboundedly).
        self.message_log: list[tuple[int, Hashable, Hashable, int]] = []
        # The round being staged: each send's edge id and its record.
        self._stage_eids: list[int] = []
        self._stage_recs: list[Received] = []
        # A committed all-fitting round awaiting its one-round delivery:
        # (eids, recs, per-edge bit sums, total bits, largest sum), or None.
        self._block: tuple | None = None
        # Permanent edge identity: sender -> {receiver -> dense eid} (two
        # plain-key lookups beat allocating and hashing an edge tuple per
        # message), and the eid-indexed queue registry (queues are
        # recycled, never dropped).
        self._edge_ids: dict[Hashable, dict[Hashable, int]] = {}
        self._queues: list[_EdgeQueue] = []
        # The delivery schedule: (completion clock, activation seq, eid),
        # exactly one entry per live edge and no stale entries -- popped
        # when (and only when) the head completes, pushed when a new head
        # is installed.  Ties pop in activation order.
        self._heap: list[tuple[int, int, int]] = []
        self._live = 0  # queues currently carrying traffic (excludes block)
        self._clock = 0  # rounds executed or skipped so far
        self._seq = 0  # edge activation counter (orders same-round deliveries)

    # -- totals ----------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        """Messages sent so far, the round being staged included."""
        return self._flushed_messages + len(self._stage_recs)

    @property
    def total_bits(self) -> int:
        """Bits sent so far, the round being staged included."""
        return self._flushed_bits + sum([rec.bits for rec in self._stage_recs])

    # -- staging ---------------------------------------------------------------

    def enqueue(self, sender: Hashable, receiver: Hashable, payload: Any, bits: int, round_no: int) -> None:
        """Stage one message: its edge id and its finished :class:`Received`
        record (immutable, every field known here), so delivery appends
        staged objects instead of constructing per message."""
        try:
            # Steady state: the edge exists, one chained lookup.
            eid = self._edge_ids[sender][receiver]
        except KeyError:
            row = self._edge_ids.setdefault(sender, {})
            eid = row[receiver] = len(self._queues)
            self._queues.append(_EdgeQueue(sender, receiver))
        self._stage_eids.append(eid)
        self._stage_recs.append(Received(sender, payload, bits))
        if self.record_messages:
            self.message_log.append((round_no, sender, receiver, bits))

    def enqueue_many(self, sender: Hashable, receivers: list[Hashable], payload: Any, bits: int, round_no: int) -> None:
        """Stage one payload to several receivers in a single pass.

        Semantically a loop over :meth:`enqueue` with a shared (payload,
        bits) row; all per-message state hoists out of the loop, which
        matters because broadcasts dominate the message volume of the GKP
        phases.  One :class:`Received` instance serves
        every receiver (the tuple is immutable and identical for all of
        them), so a degree-``d`` broadcast stages ``d`` references but
        performs a single construction.
        """
        row = self._edge_ids.get(sender)
        if row is None:
            row = self._edge_ids[sender] = {}
        eids = self._stage_eids
        try:
            # Steady state: every receiver already has an edge id, so the
            # whole id list extends in one C-level pass.
            eids.extend([row[receiver] for receiver in receivers])
        except KeyError:
            queues = self._queues
            for receiver in receivers:
                eid = row.get(receiver)
                if eid is None:
                    eid = row[receiver] = len(queues)
                    queues.append(_EdgeQueue(sender, receiver))
                eids.append(eid)
        self._stage_recs.extend([Received(sender, payload, bits)] * len(receivers))
        if self.record_messages:
            self.message_log.extend(
                (round_no, sender, receiver, bits) for receiver in receivers
            )

    # -- the round barrier -----------------------------------------------------

    def flush(self) -> None:
        """Commit the staged round (round barrier): as a pending block when
        nothing is mid-transmission and every edge fits its budget,
        otherwise into the per-edge queues."""
        recs = self._stage_recs
        if not recs:
            return
        if self._block is not None:
            # A second flush before the pending block's delivery round:
            # fold the block into the per-edge queues first, exactly as if
            # its flush had taken the general path.
            self._materialize_block()
        eids = self._stage_eids
        self._stage_eids = []
        self._stage_recs = []
        # Per-edge sums, keyed in first-appearance edge order: the order a
        # block delivers its per-edge runs in.
        sums: dict[int, int] = {}
        get = sums.get
        for eid, rec in zip(eids, recs):
            sums[eid] = get(eid, 0) + rec.bits
        total = sum(sums.values())
        self._flushed_messages += len(recs)
        self._flushed_bits += total
        self._pending_bits += total
        max_sum = max(sums.values())
        if self._live == 0 and max_sum <= self.bandwidth:
            # Block path: the whole round completes at clock+1.
            self._block = (eids, recs, sums, total, max_sum)
        else:
            self._commit_rows(eids, recs)

    def _commit_rows(self, eids: list[int], recs: list[Received]) -> None:
        """The general commit: append records to their edge queues,
        activating drained queues with a fresh sequence number and pushing
        their head completion on the clock heap."""
        clock = self._clock
        bw = self.bandwidth
        queues = self._queues
        heap = self._heap
        for eid, rec in zip(eids, recs):
            queue = queues[eid]
            queue.recs.append(rec)
            if not queue.live:
                queue.live = True
                self._live += 1
                self._seq += 1
                queue.seq = self._seq
                queue.head = 0
                queue.head_clock = clock
                queue.head_rem = rec.bits
                heappush(heap, (clock + -(-rec.bits // bw), self._seq, eid))

    def _materialize_block(self) -> None:
        """Convert the pending block into live per-edge queues -- the state
        the general path would have produced at the block's flush (the
        clock has not advanced since: a delivery would have consumed the
        block, and a skip would have raised)."""
        eids, recs = self._block[:2]
        self._block = None
        self._commit_rows(eids, recs)

    # -- advancing -------------------------------------------------------------

    def deliver_round(self) -> dict[Hashable, list[Received]]:
        """Advance one round; touch only the edges whose head completes.

        A pending block is emitted from its staged lists, in
        first-appearance edge order, FIFO within each edge.  On the
        general path, every live edge moves exactly ``B`` bits this round
        unless its head completes (then it moves its remainder plus any
        cascade of queued messages fitting the leftover budget) -- so the
        per-round bit total is reconstructed from the completing edges
        alone, and the non-completing majority costs O(1) in aggregate.
        """
        self._clock += 1
        clock = self._clock
        bw = self.bandwidth
        block = self._block
        if block is not None:
            self._block = None
            eids, recs, sums, total, max_sum = block
            inboxes: dict[Hashable, list[Received]] = defaultdict(list)
            queues = self._queues
            if len(sums) == len(eids):
                # One message per edge: staging order is edge order.
                for eid, rec in zip(eids, recs):
                    inboxes[queues[eid].receiver].append(rec)
            else:
                # Repeated edges: group the records into per-edge runs, in
                # the first-appearance order the sums were keyed in, and
                # land each run with one extend.
                runs: dict[int, list[Received]] = {eid: [] for eid in sums}
                for eid, rec in zip(eids, recs):
                    runs[eid].append(rec)
                for eid, run in runs.items():
                    inboxes[queues[eid].receiver].extend(run)
            if max_sum > self.max_edge_bits_per_round:
                self.max_edge_bits_per_round = max_sum
            self.per_round_bits.append(total)
            self._pending_bits -= total
            return inboxes
        live = self._live
        if live == 0:
            # Quiet round: no allocation beyond the empty result dict.
            self.per_round_bits.append(0)
            return {}
        inboxes = defaultdict(list)
        queues = self._queues
        heap = self._heap
        completed = 0
        round_bits = 0
        max_used = 0
        # Pop the edges completing now, in activation order.  A head
        # installed below completes at clock+1 or later, so the loop never
        # pops what it pushes.
        while heap and heap[0][0] == clock:
            eid = heappop(heap)[2]
            queue = queues[eid]
            completed += 1
            # Remaining at the start of this round, derived lazily: the
            # head had head_rem bits at head_clock and moved B per round
            # since.  1 <= rem <= B because the clock said "completes now".
            rem = queue.head_rem - bw * (clock - 1 - queue.head_clock)
            budget = bw - rem
            recs = queue.recs
            inbox = inboxes[queue.receiver]
            i = queue.head
            total = len(recs)
            inbox.append(recs[i])
            recs[i] = None  # delivered records are dead; free the ref
            i += 1
            while i < total:
                rec = recs[i]
                if rec.bits > budget:
                    break
                budget -= rec.bits
                inbox.append(rec)
                recs[i] = None
                i += 1
            if i < total:
                # New head starts mid-round with the leftover budget
                # already applied; the full B was consumed on this edge.
                used = bw
                queue.head = i
                queue.head_clock = clock
                queue.head_rem = recs[i].bits - budget
                heappush(heap, (clock + -(-queue.head_rem // bw), queue.seq, eid))
                if i > 32 and 2 * i > total:
                    del recs[:i]
                    queue.head = 0
            else:
                # Drained: recycle the queue in place for the next revival.
                used = bw - budget
                queue.live = False
                queue.head = 0
                recs.clear()
                self._live -= 1
            round_bits += used
            if used > max_used:
                max_used = used
        round_bits += bw * (live - completed)
        if live > completed and bw > max_used:
            max_used = bw
        if max_used > self.max_edge_bits_per_round:
            self.max_edge_bits_per_round = max_used
        self.per_round_bits.append(round_bits)
        self._pending_bits -= round_bits
        return inboxes

    def rounds_until_delivery(self) -> int | None:
        """Rounds until the next message completes; None if nothing in
        flight.  O(1): a pending block completes next round; otherwise
        the heap's earliest completion minus the current clock."""
        if self._block is not None:
            return 1
        if self._live == 0:
            return None
        return self._heap[0][0] - self._clock

    def skip_rounds(self, rounds: int) -> int:
        """Account ``rounds`` quiet rounds (no deliveries) in one call.

        Callers must guarantee ``rounds < rounds_until_delivery()`` (or
        that no traffic is in flight); a skip that would cross a delivery
        raises.  Under that precondition each busy link moves exactly
        ``B`` bits in each skipped round, and the lazy head accounting
        makes advancing the clock the per-head decrement, so only the
        metrics need updating.

        Returns the total bits moved across the skipped stretch, so tracers
        can attribute the stretch without re-deriving it from link state.
        """
        if rounds <= 0:
            return 0
        bw = self.bandwidth
        if self._block is not None:
            # The block completes next round, so any skip crosses it.
            raise RuntimeError(
                "skip_rounds crossed a delivery: "
                f"{rounds} rounds x B={bw} >= {self._block[1][0].bits} bits remaining"
            )
        live = self._live
        if live:
            completion, _seq, eid = self._heap[0]
            if rounds >= completion - self._clock:
                queue = self._queues[eid]
                remaining = queue.head_rem - bw * (self._clock - queue.head_clock)
                raise RuntimeError(
                    "skip_rounds crossed a delivery: "
                    f"{rounds} rounds x B={bw} >= {remaining} bits remaining"
                )
            self._clock += rounds
            if bw > self.max_edge_bits_per_round:
                self.max_edge_bits_per_round = bw
            self.per_round_bits.extend([bw * live] * rounds)
            moved = bw * rounds * live
            self._pending_bits -= moved
            return moved
        self._clock += rounds
        self.per_round_bits.extend([0] * rounds)
        return 0

    # -- inspection ------------------------------------------------------------

    def pending_traffic(self) -> int:
        """Bits still in flight, O(1) (the incremental counter)."""
        return self._pending_bits

    @property
    def live_edges(self) -> int:
        """Directed edges currently carrying traffic."""
        if self._block is not None:
            return len(self._block[2])
        return self._live
