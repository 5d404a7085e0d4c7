"""Transport lockstep tests: ``LinkTransport`` against the per-link reference.

The cross-engine suite (``test_engine_equivalence.py``) pins whole runs to
the dense engine over the reference transport.  These tests flush single
staged rounds into :class:`LinkTransport` and check the block verdict,
totals and metrics against the round's per-edge bit sums and its
deliveries against the reference's, and they drive :class:`LinkTransport`
directly against :class:`~tests.reference_transport.ReferenceTransport` on
randomised edge workloads (the block path, the completion clock and
skips).
"""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.congest.transport import LinkTransport
from tests.reference_transport import ReferenceTransport


def _drain(transport):
    """One round on either transport, normalised for comparison."""
    inboxes = transport.deliver_round()
    return {
        receiver: [(m.sender, m.payload, m.bits) for m in msgs]
        for receiver, msgs in inboxes.items()
    }


def _random_workload(seed, rounds=40, nodes=6, bandwidth=16):
    """Drive both transports through an identical random send schedule and
    yield (reference, transport under test) after every round for lockstep
    comparison."""
    rng = random.Random(seed)
    ref = ReferenceTransport(bandwidth, record_messages=True)
    link = LinkTransport(bandwidth, record_messages=True)
    for round_no in range(1, rounds + 1):
        for _ in range(rng.randrange(0, 8)):
            sender, receiver = rng.sample(range(nodes), 2)
            bits = rng.randrange(1, 3 * bandwidth)
            payload = ("p", round_no, sender, receiver, bits)
            ref.enqueue(sender, receiver, payload, bits, round_no)
            link.enqueue(sender, receiver, payload, bits, round_no)
        ref.flush()
        link.flush()
        yield round_no, ref, link


def _edge_sums(eids, bits):
    """Per-edge bit sums of a staged round, keyed in first-appearance order."""
    sums: dict[int, int] = {}
    for eid, b in zip(eids, bits):
        sums[eid] = sums.get(eid, 0) + b
    return sums


def _stage(transports, eids, bits):
    """Stage one round on every transport: message ``i`` goes along edge
    ``eids[i]`` to one of four sinks, so edges share receivers."""
    for i, (eid, b) in enumerate(zip(eids, bits)):
        for t in transports:
            t.enqueue(eid, ("sink", eid % 4), ("m", i), b, 1)


def _check_staged_round(eids, bits, bandwidth):
    """Flush one staged round into a fresh transport and check what the
    per-edge sums predict: the totals, the block verdict and the live
    edges after the flush, the first round's bits and per-edge peak after
    the delivery.  Returns those five observations."""
    sums = _edge_sums(eids, bits)
    moved = [min(s, bandwidth) for s in sums.values()]
    link = LinkTransport(bandwidth)
    _stage([link], eids, bits)
    link.flush()
    block = link._block is not None
    assert (link.total_messages, link.total_bits) == (len(eids), sum(bits))
    assert link.pending_traffic() == sum(bits)
    assert block == (bool(sums) and max(sums.values()) <= bandwidth)
    assert link.live_edges == len(sums)
    link.deliver_round()
    assert link.per_round_bits[-1] == sum(moved)
    assert link.max_edge_bits_per_round == max(moved, default=0)
    return (
        block,
        link.total_bits,
        len(sums),
        link.per_round_bits[-1],
        link.max_edge_bits_per_round,
    )


class TestStagedRound:
    """One staged round, flushed into a fresh transport: the block verdict,
    the totals and the metrics against its per-edge sums, and the
    deliveries against the reference."""

    SHAPES = [
        (0, 1),  # empty flush
        (1, 1),
        (2, 1),  # both same-edge and distinct-edge cases arise over seeds
        (2, 2),
        (7, 3),
        (40, 5),
        (40, 40),
        (130, 9),
        (130, 130),
        (400, 23),
        (257, 1),  # one edge repeated
    ]

    @staticmethod
    def _instance(n, n_edges, seed):
        rng = random.Random(seed * 1000 + n)
        eids = [rng.randrange(n_edges) for _ in range(n)]
        bits = [rng.randrange(1, 200) for _ in range(n)]
        return eids, bits

    @pytest.mark.parametrize("n,n_edges", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariants(self, n, n_edges, seed):
        eids, bits = self._instance(n, n_edges, seed)
        for bandwidth in (1, 128, 10**9):
            _check_staged_round(eids, bits, bandwidth)

    @pytest.mark.parametrize("n,n_edges", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delivery_matches_baseline(self, n, n_edges, seed):
        # The same staged round, committed by both transports and drained
        # to quiescence: B = 10**9 delivers it as one block (by per-edge
        # runs where edges repeat), B = 1 spreads every edge over many
        # rounds on the general path, and B = 128 mixes the two.  Edges
        # share receivers, so inboxes interleave several edges' runs.
        eids, bits = self._instance(n, n_edges, seed)
        sums = _edge_sums(eids, bits)
        for bandwidth in (1, 128, 10**9):
            ref = ReferenceTransport(bandwidth)
            link = LinkTransport(bandwidth)
            _stage([ref, link], eids, bits)
            for t in (ref, link):
                t.flush()
            fits = n > 0 and max(sums.values()) <= bandwidth
            assert (link._block is not None) == fits
            while (gap := ref.rounds_until_delivery()) is not None:
                assert link.rounds_until_delivery() == gap
                if gap > 1:
                    assert link.skip_rounds(gap - 1) == ref.skip_rounds(gap - 1)
                assert _drain(link) == _drain(ref)
            assert link.rounds_until_delivery() is None
            assert link.per_round_bits == ref.per_round_bits
            assert link.max_edge_bits_per_round == ref.max_edge_bits_per_round
            assert (link.total_messages, link.total_bits) == (ref.total_messages, ref.total_bits)

    @pytest.mark.parametrize(
        "eids,bits,bandwidth,expected",
        [
            # expected: (block pending, total bits, live edges, first
            # round's bits, per-edge peak)
            ([], [], 8, (False, 0, 0, 0, 0)),
            ([4], [9], 8, (False, 9, 1, 8, 8)),
            # Two messages on one edge: the edge carries their sum.
            ([3, 3], [5, 4], 8, (False, 9, 1, 8, 8)),
            # Two edges: each fits B although the round's total does not.
            ([3, 1], [5, 8], 8, (True, 13, 2, 13, 8)),
            # Both edges carry exactly B: still a block.
            ([2, 5, 2], [3, 8, 5], 8, (True, 16, 2, 16, 8)),
            # One bit more on edge 2: the general path.
            ([2, 5, 2], [3, 8, 6], 8, (False, 17, 2, 16, 8)),
        ],
        ids=["empty", "single", "pair-one-edge", "pair-two-edges", "sum-at-B", "sum-above-B"],
    )
    def test_small_rounds(self, eids, bits, bandwidth, expected):
        assert _check_staged_round(eids, bits, bandwidth) == expected


def _assert_lockstep(workload):
    """Drain both transports of a workload round by round, comparing every
    delivery, probe and metric."""
    for round_no, ref, link in workload:
        assert link.rounds_until_delivery() == ref.rounds_until_delivery()
        assert link.pending_traffic() == ref.pending_traffic()
        assert _drain(link) == _drain(ref), round_no
        assert link.per_round_bits == ref.per_round_bits
        assert link.max_edge_bits_per_round == ref.max_edge_bits_per_round
    assert link.total_messages == ref.total_messages
    assert link.total_bits == ref.total_bits
    assert link.message_log == ref.message_log


class TestTransportLockstep:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_deliveries_and_metrics_match_baseline(self, seed):
        _assert_lockstep(_random_workload(seed))

    @pytest.mark.parametrize("bandwidth", [1, 16, 1024])
    @pytest.mark.parametrize("nodes", [2, 6, 30])
    def test_workload_shapes_match_baseline(self, nodes, bandwidth):
        # Two nodes put every send on one of two edges, so rounds group into
        # long per-edge runs; thirty nodes rarely repeat an edge within a
        # round.  B = 1 caps every message at two bits.
        _assert_lockstep(_random_workload(nodes * bandwidth, nodes=nodes, bandwidth=bandwidth))

    @pytest.mark.parametrize("seed", [0, 5, 12, 99])
    def test_staggered_completions_match_baseline(self, seed):
        # Sixty-four edges, messages of one to eight rounds, sends spread
        # over many rounds: edges activated in different rounds often
        # complete in the same one, and drained edges are revived.
        rng = random.Random(seed)
        bw = 8
        ref = ReferenceTransport(bw)
        link = LinkTransport(bw)
        round_no = 1
        for _ in range(300):
            if rng.random() < 0.55:
                for t in (ref, link):
                    t.flush()
                assert link.rounds_until_delivery() == ref.rounds_until_delivery()
                assert _drain(link) == _drain(ref), round_no
                round_no += 1
            else:
                eid = rng.randrange(64)
                bits = rng.randrange(1, 9) * bw - rng.randrange(bw)
                for t in (ref, link):
                    t.enqueue(eid, ("r", eid % 8), ("m", round_no, eid), bits, round_no)
        while ref.rounds_until_delivery() is not None:
            assert _drain(link) == _drain(ref)
        assert link.rounds_until_delivery() is None
        assert link.per_round_bits == ref.per_round_bits
        assert link.max_edge_bits_per_round == ref.max_edge_bits_per_round

    def test_long_queue_compaction_matches_baseline(self):
        # Hundreds of one- to three-bit messages on one edge: each round
        # delivers several, so the queue's delivered prefix is trimmed in
        # place while new sends keep arriving behind it.
        rng = random.Random(3)
        bw = 8
        ref = ReferenceTransport(bw)
        link = LinkTransport(bw)
        for round_no in range(1, 120):
            if round_no <= 40:
                for _ in range(rng.randrange(0, 12)):
                    b = rng.randrange(1, 4)
                    for t in (ref, link):
                        t.enqueue(0, 1, ("m", round_no, b), b, round_no)
                for t in (ref, link):
                    t.flush()
            assert link.rounds_until_delivery() == ref.rounds_until_delivery()
            assert _drain(link) == _drain(ref), round_no
        assert link.rounds_until_delivery() is ref.rounds_until_delivery() is None
        assert link.per_round_bits == ref.per_round_bits

    def test_flush_with_pending_block_materializes_it(self):
        # Two flushes before a delivery: the first commits a block, the
        # second folds it into the per-edge queues behind which its own
        # rows queue, exactly as if both had taken the general path.
        bw = 8
        ref = ReferenceTransport(bw)
        link = LinkTransport(bw)
        for t in (ref, link):
            t.enqueue(0, 1, "a", 4, 1)
            t.enqueue(1, 2, "b", 8, 1)
            t.flush()
        assert link._block is not None
        for t in (ref, link):
            t.enqueue(0, 1, "c", 8, 1)
            t.enqueue(2, 0, "d", 3, 1)
            t.flush()
        assert link._block is None
        assert link.live_edges == 3
        while ref.rounds_until_delivery() is not None:
            assert link.rounds_until_delivery() == ref.rounds_until_delivery()
            assert _drain(link) == _drain(ref)
        assert link.per_round_bits == ref.per_round_bits
        assert link.max_edge_bits_per_round == ref.max_edge_bits_per_round

    def test_skip_over_a_pending_block_raises(self):
        link = LinkTransport(8)
        link.enqueue(0, 1, "a", 5, 1)
        link.flush()
        assert link.rounds_until_delivery() == 1
        with pytest.raises(RuntimeError, match="crossed a delivery"):
            link.skip_rounds(1)
        assert link.skip_rounds(0) == 0
        assert _drain(link) == {1: [(0, "a", 5)]}
        assert link.per_round_bits == [5]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_enqueue_many_matches_baseline(self, seed):
        # Broadcasts to random receiver lists, some naming edges that have
        # never carried a message yet; the reference stages them one
        # enqueue at a time.
        rng = random.Random(seed)
        bw = 16
        ref = ReferenceTransport(bw, record_messages=True)
        link = LinkTransport(bw, record_messages=True)
        for round_no in range(1, 30):
            for _ in range(rng.randrange(0, 4)):
                sender = rng.randrange(10)
                receivers = rng.sample([v for v in range(10) if v != sender], rng.randrange(0, 6))
                bits = rng.randrange(1, 2 * bw)
                for t in (ref, link):
                    t.enqueue_many(sender, receivers, ("b", round_no, sender), bits, round_no)
            for t in (ref, link):
                t.flush()
            assert _drain(link) == _drain(ref), round_no
        assert link.per_round_bits == ref.per_round_bits
        assert link.message_log == ref.message_log
        assert (link.total_messages, link.total_bits) == (ref.total_messages, ref.total_bits)

    def test_drain_then_revive_keeps_baseline_delivery_order(self):
        # An edge that drains and is re-created must complete *after* edges
        # created in between -- the reference's insertion-ordered link dict
        # behaviour, reproduced by the edge activation sequence.
        bw = 8
        ref = ReferenceTransport(bw)
        link = LinkTransport(bw)
        for t in (ref, link):
            t.enqueue(0, 1, "a", bw, 1)
            t.flush()
        assert _drain(link) == _drain(ref)  # edge (0, 1) drains
        for t in (ref, link):
            t.enqueue(2, 1, "b", bw, 2)  # new edge while (0, 1) is dead
            t.enqueue(0, 1, "c", bw, 2)  # (0, 1) revived -- now *after* (2, 1)
            t.flush()
        assert _drain(link) == _drain(ref)

    def test_same_round_completions_deliver_in_activation_order(self):
        # Three edges revived in the order C, A, B -- not their edge-id
        # order A < B < C -- on the general path (no block: the 16-bit
        # heads exceed B) all complete in the same round.  They must
        # deliver in activation order, as the reference's insertion-ordered
        # link dict does, not in edge-id order.
        bw = 8
        ref = ReferenceTransport(bw)
        link = LinkTransport(bw)
        for t in (ref, link):
            for sender in (0, 2, 3):  # edge ids: A=(0, 1), B=(2, 1), C=(3, 1)
                t.enqueue(sender, 1, ("id", sender), bw, 1)
            t.flush()
        assert _drain(link) == _drain(ref)
        for t in (ref, link):
            for sender in (3, 0, 2):
                t.enqueue(sender, 1, ("late", sender), 2 * bw, 2)
            t.flush()
        assert link._block is None  # the general path, not a block
        assert _drain(link) == _drain(ref) == {}
        delivered = _drain(link)
        assert delivered == _drain(ref)
        assert [sender for sender, _, _ in delivered[1]] == [3, 0, 2]
        assert link.per_round_bits == ref.per_round_bits

    @pytest.mark.parametrize("seed", [5, 17])
    def test_skip_rounds_matches_baseline(self, seed):
        rng = random.Random(seed)
        bw = 16
        ref = ReferenceTransport(bw)
        link = LinkTransport(bw)
        for round_no in range(1, 12):
            for _ in range(rng.randrange(1, 4)):
                sender, receiver = rng.sample(range(5), 2)
                bits = rng.randrange(bw, 20 * bw)
                ref.enqueue(sender, receiver, ("p", round_no), bits, round_no)
                link.enqueue(sender, receiver, ("p", round_no), bits, round_no)
            ref.flush()
            link.flush()
            gap = ref.rounds_until_delivery()
            if gap is not None and gap > 1:
                skip = rng.randrange(1, gap)
                assert link.skip_rounds(skip) == ref.skip_rounds(skip)
            assert _drain(link) == _drain(ref)
            assert link.per_round_bits == ref.per_round_bits
            assert link.pending_traffic() == ref.pending_traffic()

    def test_skip_rounds_crossing_a_delivery_raises(self):
        link = LinkTransport(8)
        link.enqueue(0, 1, "x", 24, 1)  # 3 rounds to deliver
        link.flush()
        assert link.rounds_until_delivery() == 3
        with pytest.raises(RuntimeError, match="crossed a delivery"):
            link.skip_rounds(3)
        assert link.skip_rounds(2) == 16
        assert link.rounds_until_delivery() == 1

    def test_quiet_skip_with_no_traffic(self):
        link = LinkTransport(8)
        assert link.skip_rounds(4) == 0
        assert link.per_round_bits == [0, 0, 0, 0]
        assert link.rounds_until_delivery() is None

    def test_live_edges_tracks_queue_lifecycle(self):
        link = LinkTransport(8)
        link.enqueue(0, 1, "a", 8, 1)
        link.enqueue(1, 0, "b", 16, 1)
        link.flush()
        assert link.live_edges == 2
        link.deliver_round()  # (0, 1) drains, (1, 0) still has 8 bits
        assert link.live_edges == 1
        link.deliver_round()
        assert link.live_edges == 0


#: Nodes of the property's random schedules: few, so edges repeat within a
#: round, share receivers, drain and revive.
_NODES = 3
_EDGES = [(u, v) for u in range(_NODES) for v in range(_NODES) if u != v]
#: (sender, receivers) of a broadcast: each sender with every subset of the
#: other nodes, the empty one included.
_FANOUTS = [
    (u, receivers)
    for u in range(_NODES)
    for k in range(_NODES)
    for receivers in combinations([v for v in range(_NODES) if v != u], k)
]


def _sends(bandwidth):
    """One program send: ``enqueue`` on an edge, or ``enqueue_many`` from a
    sender to some of the other nodes, sized 1 to 3B bits."""
    size = st.integers(1, 3 * bandwidth)
    return st.one_of(
        st.tuples(st.just("send"), st.sampled_from(_EDGES), size),
        st.tuples(st.just("broadcast"), st.sampled_from(_FANOUTS), size),
    )


@st.composite
def _schedules(draw):
    bandwidth = draw(st.sampled_from([1, 8, 64]))
    sends = _sends(bandwidth)
    ops = st.one_of(
        sends,
        sends,
        sends,
        st.just(("flush",)),
        st.just(("deliver",)),
        st.tuples(st.just("skip"), st.integers(1, 6)),
    )
    return bandwidth, draw(st.lists(ops, min_size=20, max_size=80))


def _send(transport, op, payload, round_no):
    kind, (sender, to), bits = op
    if kind == "send":
        transport.enqueue(sender, to, payload, bits, round_no)
    else:
        transport.enqueue_many(sender, list(to), payload, bits, round_no)


def _step(transport, op, index, round_no):
    """Apply one schedule op; returns what the op observably produced."""
    kind = op[0]
    if kind == "flush":
        transport.flush()
    elif kind == "deliver":
        return list(transport.deliver_round().items())
    elif kind == "skip":
        return transport.skip_rounds(op[1])
    else:
        _send(transport, op, ("m", index), round_no)
    return None


def _observe(transport):
    return (
        transport.rounds_until_delivery(),
        transport.pending_traffic(),
        transport.total_messages,
        transport.total_bits,
        transport.max_edge_bits_per_round,
        len(transport.per_round_bits),
    )


class TestLockstepProperty:
    @given(_schedules())
    # Same-round completions on edges activated against their edge-id
    # order, and a fitting flush while an edge is still mid-message: the
    # two schedules that a tie broken by edge id, or a block taken while an
    # edge is live, get wrong.
    @example((8, [
        ("send", (0, 2), 8), ("send", (1, 2), 8), ("flush",), ("deliver",),
        ("send", (1, 2), 16), ("send", (0, 2), 16), ("flush",), ("deliver",), ("deliver",),
    ]))
    @example((8, [
        ("send", (0, 1), 16), ("flush",), ("deliver",),
        ("send", (2, 1), 8), ("flush",), ("deliver",),
    ]))
    @settings(max_examples=100, deadline=None)
    def test_random_schedules_match_reference(self, schedule):
        """Random interleavings of sends, broadcasts, flushes, deliveries
        and skips: every delivery (inbox order included), probe, metric and
        log entry matches the reference."""
        bandwidth, ops = schedule
        ref = ReferenceTransport(bandwidth, record_messages=True)
        link = LinkTransport(bandwidth, record_messages=True)
        round_no = 1
        for index, op in enumerate(ops):
            if op[0] == "skip":
                # Skips stay below the next delivery, as the engines keep them.
                gap = ref.rounds_until_delivery()
                op = ("skip", op[1] if gap is None else min(op[1], gap - 1))
            outcomes = [_step(transport, op, index, round_no) for transport in (ref, link)]
            assert outcomes[1] == outcomes[0], (index, op)
            assert _observe(link) == _observe(ref), (index, op)
            if op[0] in ("deliver", "skip"):
                round_no += 1 if op[0] == "deliver" else op[1]
        assert link.per_round_bits == ref.per_round_bits
        assert link.message_log == ref.message_log
