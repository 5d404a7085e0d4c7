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

**Staging columns.**  A round's sends are staged as three parallel
columns instead of one object per message:

========  =============  ====================================================
column    type           contents
========  =============  ====================================================
eid       ``array('q')`` dense directed-edge id, in ``Node.send`` call order
bits      ``array('q')`` charged message size in bits (parallel to ``eid``)
rec       list           the finished :class:`Received` record (parallel)
========  =============  ====================================================

Edge ids are assigned once, at an edge's first-ever send, and identify the
edge's permanent :class:`_EdgeQueue` (which holds the sender and receiver,
so the columns don't repeat them per message).  Staging buffers are
**cleared in place** after every commit, never reallocated.

**Block path.**  When a flush arrives with no edge mid-transmission and
every per-edge sum within ``B`` (the common case: well-behaved CONGEST
programs respect the per-round budget), the whole staged round completes
exactly one round later as a single *block*: no per-message queue appends,
no clock installs -- :meth:`~LinkTransport.deliver_round` emits the block
straight from the staged columns in first-appearance edge order.  A flush
while a block is pending first *materializes* the block into the per-edge
queues (exactly what the general path would have built), so arbitrary
flush/deliver/skip interleavings stay exact.

**Lazy completion clock.**  Otherwise the rows commit to per-edge FIFO
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

from array import array
from collections import defaultdict
from heapq import heappop, heappush
from typing import Any, Hashable, NamedTuple

from repro.congest.message import Received

#: Shared ``order`` for the single-message flush fast path.
_RANGE_1 = range(1)


class RoundGroup(NamedTuple):
    """One staged round grouped by directed edge (what :func:`group_round`
    returns).

    ``order`` lists message indices grouped by edge -- edges in
    first-appearance order, FIFO within each edge; when every staged
    message sits on a distinct edge it is simply ``range(n)``.
    ``edge_order`` lists the edges in that same first-appearance order.
    ``edge_counts`` carries the per-edge message counts (the run lengths
    of ``order``) whenever ``order`` is a materialised list -- the block
    delivery loop uses the runs to hoist its per-edge lookups out of the
    per-message loop; when ``order`` is a ``range`` every count is 1 and
    the field is ``None``.
    """

    order: Any  # list[int] | range
    edge_order: Any  # list[int] | tuple[int]
    edge_counts: list[int] | None  # None iff order is a range
    total_bits: int
    all_fit: bool  # every per-edge sum <= bandwidth
    max_sum: int  # the largest per-edge sum (0 for an empty round)


def group_round(eids: array, bits: array, bandwidth: int) -> RoundGroup:
    """Group one staged round by directed edge (see :class:`RoundGroup`)."""
    n = len(eids)
    if n == 0:
        return RoundGroup(range(0), [], None, 0, True, 0)
    if n == 1:
        b = bits[0]
        return RoundGroup(range(1), [eids[0]], None, b, b <= bandwidth, b)
    if n == 2:
        b0, b1 = bits[0], bits[1]
        e0, e1 = eids[0], eids[1]
        if e0 == e1:
            s = b0 + b1
            return RoundGroup(range(2), [e0], None, s, s <= bandwidth, s)
        m = b0 if b0 >= b1 else b1
        return RoundGroup(range(2), [e0, e1], None, b0 + b1, m <= bandwidth, m)
    groups: dict[int, list[int]] = {}
    sums: dict[int, int] = {}
    total = 0
    for i, eid in enumerate(eids):
        b = bits[i]
        total += b
        bucket = groups.get(eid)
        if bucket is None:
            groups[eid] = [i]
            sums[eid] = b
        else:
            bucket.append(i)
            sums[eid] += b
    edge_order = list(groups)
    if len(edge_order) == n:
        order: Any = range(n)  # one message per edge: already grouped
        edge_counts = None
    else:
        buckets = list(groups.values())
        order = [i for bucket in buckets for i in bucket]
        edge_counts = [len(bucket) for bucket in buckets]
    max_sum = max(sums.values())
    return RoundGroup(order, edge_order, edge_counts, total, max_sum <= bandwidth, max_sum)


class _EdgeQueue:
    """One directed edge: FIFO columns plus lazy head accounting.

    Queues are permanent -- created at the edge's first-ever send and
    recycled across drain/revive cycles (columns cleared in place, never
    reallocated).  ``head`` indexes the first undelivered message in the
    ``recs`` / ``bits`` columns; ``head_rem`` is the head's remaining
    bits as of clock ``head_clock`` (the transport does *not* decrement
    it each round -- the remainder at any later clock ``c`` is
    ``head_rem - B * (c - head_clock)``, and the completion clock
    ``head_clock + ceil(head_rem / B)`` is computed once and pushed on
    the transport's completion-clock heap).  ``seq`` is the edge's
    *activation* sequence number, refreshed each time the edge goes from
    drained back to live: it orders same-round completions, including
    drain-then-revive reinsertion at the end.
    """

    __slots__ = ("sender", "receiver", "seq", "recs", "bits", "head", "head_clock", "head_rem", "live")

    def __init__(self, sender: Hashable, receiver: Hashable):
        self.sender = sender
        self.receiver = receiver
        self.seq = 0
        self.recs: list[Any] = []
        self.bits: list[int] = []
        self.head = 0
        self.head_clock = 0
        self.head_rem = 0
        self.live = False


class LinkTransport:
    """Link queues and bit accounting for one CONGEST(B) execution.

    Cost model (see the module docstring): staging is three column
    appends; a quiet live edge costs nothing per round; ``deliver_round``
    touches only the edges whose head completes, and an all-fitting round
    with no carry-over traffic is delivered as one block straight from
    the staged columns; ``rounds_until_delivery`` / ``pending_traffic``
    are O(1).
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
        # round (or skipped stretch) moves.  Makes pending_traffic() O(1)
        # -- the event engine probes it every executed round.
        self._pending_bits = 0
        #: (round_sent, sender, receiver, bits) per message; only populated
        #: when ``record_messages`` is set (the list grows unboundedly).
        self.message_log: list[tuple[int, Hashable, Hashable, int]] = []
        # Staging: the parallel columns of the module docstring, cleared in
        # place per flush.  A "bundle" carries a buffer set together with
        # its bound appends so the block path's ping-pong swap is six
        # attribute writes -- no per-flush bound-method creation.
        eids: array = array("q")
        bits: array = array("q")
        recs: list[Any] = []
        self._adopt_stage((eids, bits, recs, eids.append, bits.append, recs.append))
        # Second buffer bundle for the block path's ping-pong (the block
        # owns one set while the other stages the next round).
        self._spare: tuple | None = None
        # A committed all-fitting round awaiting its one-round delivery:
        # (eids, bits, recs, RoundGroup, bundle), or None.
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
        return self._flushed_bits + sum(self._stage_bits)

    # -- staging ---------------------------------------------------------------

    def _adopt_stage(self, bundle: tuple) -> None:
        """Make ``bundle`` the active staging set.  The bound appends ride
        in the bundle (``enqueue`` is the highest-call-count method; three
        bound-method calls beat three attribute-chain lookups per message,
        and keeping the bindings with their buffers makes a swap free)."""
        self._bundle = bundle
        (
            self._stage_eids,
            self._stage_bits,
            self._stage_recs,
            self._append_eid,
            self._append_bits,
            self._append_rec,
        ) = bundle

    def enqueue(self, sender: Hashable, receiver: Hashable, payload: Any, bits: int, round_no: int) -> None:
        """Stage one message as a row across the three columns.

        The record column stages the finished :class:`Received` tuple
        (it is immutable and its fields are all known here), so delivery
        appends staged objects instead of constructing per message.
        """
        try:
            # Steady state: the edge exists, one chained lookup.
            eid = self._edge_ids[sender][receiver]
        except KeyError:
            row = self._edge_ids.setdefault(sender, {})
            eid = row[receiver] = len(self._queues)
            self._queues.append(_EdgeQueue(sender, receiver))
        self._append_eid(eid)
        self._append_bits(bits)
        self._append_rec(Received(sender, payload, bits))
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
        try:
            # Steady state: every receiver already has an edge id, so the
            # whole id column extends in one C-level pass.
            self._stage_eids.extend([row[receiver] for receiver in receivers])
        except KeyError:
            queues = self._queues
            append_eid = self._append_eid
            for receiver in receivers:
                eid = row.get(receiver)
                if eid is None:
                    eid = len(queues)
                    row[receiver] = eid
                    queues.append(_EdgeQueue(sender, receiver))
                append_eid(eid)
        n = len(receivers)
        self._stage_bits.extend([bits] * n)
        self._stage_recs.extend([Received(sender, payload, bits)] * n)
        if self.record_messages:
            self.message_log.extend(
                (round_no, sender, receiver, bits) for receiver in receivers
            )

    # -- the round barrier -----------------------------------------------------

    def flush(self) -> None:
        """Commit the staged columns (round barrier): as a pending block
        when nothing is mid-transmission and every edge fits its budget,
        otherwise into the per-edge queues."""
        n = len(self._stage_recs)
        if n == 0:
            return
        if self._block is not None:
            # A second flush before the pending block's delivery round:
            # fold the block into the per-edge queues first, exactly as if
            # its flush had taken the general path.
            self._materialize_block()
        bw = self.bandwidth
        eids = self._stage_eids
        bits_col = self._stage_bits
        recs = self._stage_recs
        if n == 1:
            # Single staged message (common in sparse negotiation phases):
            # the grouping is trivial, so build it inline instead of paying
            # a call.  Field-for-field identical to ``group_round``'s.
            b0 = bits_col[0]
            group = RoundGroup(_RANGE_1, (eids[0],), None, b0, b0 <= bw, b0)
        else:
            group = group_round(eids, bits_col, bw)
        self._flushed_messages += n
        self._flushed_bits += group.total_bits
        if self._live == 0 and group.all_fit:
            # Block path: the whole round completes at clock+1.  The block
            # takes ownership of the staged buffer bundle; staging switches
            # to the spare bundle (recycled from the previous block).
            self._block = (eids, bits_col, recs, group, self._bundle)
            spare = self._spare
            if spare is None:
                e2: array = array("q")
                b2: array = array("q")
                r2: list[Any] = []
                spare = (e2, b2, r2, e2.append, b2.append, r2.append)
            else:
                self._spare = None
            self._adopt_stage(spare)
        else:
            self._commit_rows(eids, bits_col, recs)
            del eids[:]
            del bits_col[:]
            recs.clear()
        self._pending_bits += group.total_bits

    def _commit_rows(self, eids: array, bits_col: array, recs: list[Any]) -> None:
        """The general commit: append rows to their edge queues, activating
        drained queues with a fresh sequence number and pushing their head
        completion on the clock heap."""
        clock = self._clock
        bw = self.bandwidth
        queues = self._queues
        heap = self._heap
        for i, eid in enumerate(eids):
            queue = queues[eid]
            b = bits_col[i]
            queue.recs.append(recs[i])
            queue.bits.append(b)
            if not queue.live:
                queue.live = True
                self._live += 1
                self._seq += 1
                queue.seq = self._seq
                queue.head = 0
                queue.head_clock = clock
                queue.head_rem = b
                heappush(heap, (clock + -(-b // bw), self._seq, eid))

    def _materialize_block(self) -> None:
        """Convert the pending block into live per-edge queues -- the state
        the general path would have produced at the block's flush (the
        clock has not advanced since: a delivery would have consumed the
        block, and a skip would have raised)."""
        eids, bits_col, recs, _group, bundle = self._block
        self._block = None
        self._commit_rows(eids, bits_col, recs)
        del eids[:]
        del bits_col[:]
        recs.clear()
        self._spare = bundle

    # -- advancing -------------------------------------------------------------

    def deliver_round(self) -> dict[Hashable, list[Received]]:
        """Advance one round; touch only the edges whose head completes.

        A pending block is emitted straight from its staged columns, in
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
            inboxes: dict[Hashable, list[Received]] = defaultdict(list)
            self._block = None
            eids, bits_col, recs, group, bundle = block
            queues = self._queues
            order = group.order
            if type(order) is range:
                # One message per edge, already in staging order: the
                # staged records land directly, one append per message.
                for eid, rec in zip(eids, recs):
                    inboxes[queues[eid].receiver].append(rec)
            else:
                # Repeated edges: walk the per-edge runs so the queue and
                # inbox lookups happen once per edge rather than once per
                # message; each run lands as one comprehension-built
                # extend of already-staged records.
                pos = 0
                for eid, count in zip(group.edge_order, group.edge_counts):
                    end = pos + count
                    inboxes[queues[eid].receiver].extend(
                        [recs[i] for i in order[pos:end]]
                    )
                    pos = end
            if group.max_sum > self.max_edge_bits_per_round:
                self.max_edge_bits_per_round = group.max_sum
            self.per_round_bits.append(group.total_bits)
            self._pending_bits -= group.total_bits
            del eids[:]
            del bits_col[:]
            recs.clear()
            self._spare = bundle
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
            bits_list = queue.bits
            inbox = inboxes[queue.receiver]
            i = queue.head
            total = len(bits_list)
            inbox.append(recs[i])
            recs[i] = None  # delivered records are dead; free the ref
            i += 1
            while i < total and bits_list[i] <= budget:
                budget -= bits_list[i]
                inbox.append(recs[i])
                recs[i] = None
                i += 1
            if i < total:
                # New head starts mid-round with the leftover budget
                # already applied; the full B was consumed on this edge.
                used = bw
                queue.head = i
                queue.head_clock = clock
                queue.head_rem = bits_list[i] - budget
                heappush(heap, (clock + -(-queue.head_rem // bw), queue.seq, eid))
                if i > 32 and 2 * i > total:
                    del recs[:i]
                    del bits_list[:i]
                    queue.head = 0
            else:
                # Drained: recycle the queue in place for the next revival.
                used = bw - budget
                queue.live = False
                queue.head = 0
                recs.clear()
                bits_list.clear()
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
            bits_col = self._block[1]
            raise RuntimeError(
                "skip_rounds crossed a delivery: "
                f"{rounds} rounds x B={bw} >= {bits_col[0]} bits remaining"
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
            return len(self._block[3].edge_order)
        return self._live
