"""Columnar transport unit tests: the struct-of-arrays hot path in isolation.

The cross-engine suite (``test_engine_equivalence.py``) pins whole runs to
the dense reference; these tests check the per-edge grouping of a staged
round (:func:`group_round`) against its invariants and against the
baseline's deliveries of that round, drive :class:`ColumnarTransport`
directly against :class:`LinkTransport` on randomised edge workloads, and
pin the strict-mode error texts and totals.
"""

import random
from array import array

import pytest

from repro.congest.columnar import ColumnarTransport, group_round
from repro.congest.transport import BandwidthExceeded, LinkTransport


def _drain(transport):
    """One round on either transport, normalised for comparison."""
    inboxes = transport.deliver_round()
    return {
        receiver: [(m.sender, m.payload, m.bits) for m in msgs]
        for receiver, msgs in inboxes.items()
    }


def _random_workload(seed, rounds=40, nodes=6, bandwidth=16):
    """Drive both transports through an identical random send schedule and
    yield (baseline, columnar) after every round for lockstep comparison."""
    rng = random.Random(seed)
    base = LinkTransport(bandwidth, record_messages=True)
    cols = ColumnarTransport(bandwidth, record_messages=True)
    for round_no in range(1, rounds + 1):
        for _ in range(rng.randrange(0, 8)):
            sender, receiver = rng.sample(range(nodes), 2)
            bits = rng.randrange(1, 3 * bandwidth)
            payload = ("p", round_no, sender, receiver, bits)
            base.enqueue(sender, receiver, payload, bits, round_no)
            cols.enqueue(sender, receiver, payload, bits, round_no)
        assert cols.has_outgoing() == base.has_outgoing()
        base.flush()
        cols.flush()
        yield round_no, base, cols


def _check_group_invariants(eids, bits, bandwidth, group):
    """Properties any correct grouping of a staged round must satisfy."""
    n = len(eids)
    order = list(group.order)
    assert sorted(order) == list(range(n))
    # first-appearance edge order, FIFO within each edge
    seen: dict[int, int] = {}
    for eid in eids:
        seen.setdefault(eid, len(seen))
    by_first = sorted(seen, key=seen.__getitem__)
    assert list(group.edge_order) == by_first
    sums: dict[int, int] = {}
    for eid, b in zip(eids, bits):
        sums[eid] = sums.get(eid, 0) + b
    assert list(group.edge_sums) == [sums[e] for e in by_first]
    assert group.total_bits == sum(bits)
    assert group.max_sum == (max(sums.values()) if sums else 0)
    assert group.all_fit == (group.max_sum <= bandwidth)
    if group.edge_counts is None:
        assert order == list(range(n))
    else:
        assert sum(group.edge_counts) == n
        # each per-edge run of `order` is that edge's staging rows, FIFO
        pos = 0
        for eid, count in zip(by_first, group.edge_counts):
            assert order[pos : pos + count] == [i for i in range(n) if eids[i] == eid]
            pos += count


class TestGroupRound:
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
        eids = array("q", (rng.randrange(n_edges) for _ in range(n)))
        bits = array("q", (rng.randrange(1, 200) for _ in range(n)))
        return eids, bits

    @pytest.mark.parametrize("n,n_edges", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_invariants(self, n, n_edges, seed):
        eids, bits = self._instance(n, n_edges, seed)
        for bandwidth in (1, 128, 10**9):
            group = group_round(eids, bits, bandwidth)
            _check_group_invariants(list(eids), list(bits), bandwidth, group)

    @pytest.mark.parametrize("n,n_edges", SHAPES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_delivery_matches_baseline(self, n, n_edges, seed):
        # The same staged round, committed by both transports and drained
        # to quiescence: B = 10**9 delivers it as one block (walking the
        # per-edge runs of ``order``), B = 1 spreads every edge over many
        # rounds on the general path, and B = 128 mixes the two.  Edges
        # share receivers, so inboxes interleave several edges' runs.
        eids, bits = self._instance(n, n_edges, seed)
        for bandwidth in (1, 128, 10**9):
            base = LinkTransport(bandwidth)
            cols = ColumnarTransport(bandwidth)
            for i, (eid, b) in enumerate(zip(eids, bits)):
                for t in (base, cols):
                    t.enqueue(eid, ("sink", eid % 4), ("m", i), b, 1)
            for t in (base, cols):
                t.flush()
            fits = n > 0 and group_round(eids, bits, bandwidth).all_fit
            assert (cols._block is not None) == fits
            while (gap := base.rounds_until_delivery()) is not None:
                assert cols.rounds_until_delivery() == gap
                if gap > 1:
                    assert cols.skip_rounds(gap - 1) == base.skip_rounds(gap - 1)
                assert _drain(cols) == _drain(base)
            assert cols.rounds_until_delivery() is None
            assert cols.per_round_bits == base.per_round_bits
            assert cols.max_edge_bits_per_round == base.max_edge_bits_per_round
            assert (cols.total_messages, cols.total_bits) == (base.total_messages, base.total_bits)

    @pytest.mark.parametrize(
        "eids,bits,bandwidth,expected",
        [
            ([], [], 8, (range(0), [], [], None, 0, True, 0)),
            ([4], [9], 8, (range(1), [4], [9], None, 9, False, 9)),
            # Two messages on one edge: the edge carries their sum.
            ([3, 3], [5, 4], 8, (range(2), [3], [9], None, 9, False, 9)),
            # Two edges: each fits B although the round's total does not.
            ([3, 1], [5, 8], 8, (range(2), [3, 1], [5, 8], None, 13, True, 8)),
        ],
        ids=["empty", "single", "pair-one-edge", "pair-two-edges"],
    )
    def test_small_rounds(self, eids, bits, bandwidth, expected):
        group = group_round(array("q", eids), array("q", bits), bandwidth)
        assert tuple(group) == expected


def _assert_lockstep(workload):
    """Drain both transports of a workload round by round, comparing every
    delivery, probe and metric."""
    for round_no, base, cols in workload:
        assert cols.rounds_until_delivery() == base.rounds_until_delivery()
        assert cols.pending_traffic() == base.pending_traffic()
        assert _drain(cols) == _drain(base), round_no
        assert cols.per_round_bits == base.per_round_bits
        assert cols.max_edge_bits_per_round == base.max_edge_bits_per_round
    assert cols.total_messages == base.total_messages
    assert cols.total_bits == base.total_bits
    assert cols.message_log == base.message_log


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
        base = LinkTransport(bw)
        cols = ColumnarTransport(bw)
        round_no = 1
        for _ in range(300):
            if rng.random() < 0.55:
                for t in (base, cols):
                    t.flush()
                assert cols.rounds_until_delivery() == base.rounds_until_delivery()
                assert _drain(cols) == _drain(base), round_no
                round_no += 1
            else:
                eid = rng.randrange(64)
                bits = rng.randrange(1, 9) * bw - rng.randrange(bw)
                for t in (base, cols):
                    t.enqueue(eid, ("r", eid % 8), ("m", round_no, eid), bits, round_no)
        while base.rounds_until_delivery() is not None:
            assert _drain(cols) == _drain(base)
        assert cols.rounds_until_delivery() is None
        assert cols.per_round_bits == base.per_round_bits
        assert cols.max_edge_bits_per_round == base.max_edge_bits_per_round

    def test_long_queue_compaction_matches_baseline(self):
        # Hundreds of one- to three-bit messages on one edge: each round
        # delivers several, so the queue's delivered prefix is trimmed in
        # place while new sends keep arriving behind it.
        rng = random.Random(3)
        bw = 8
        base = LinkTransport(bw)
        cols = ColumnarTransport(bw)
        for round_no in range(1, 120):
            if round_no <= 40:
                for _ in range(rng.randrange(0, 12)):
                    b = rng.randrange(1, 4)
                    for t in (base, cols):
                        t.enqueue(0, 1, ("m", round_no, b), b, round_no)
                for t in (base, cols):
                    t.flush()
            assert cols.rounds_until_delivery() == base.rounds_until_delivery()
            assert _drain(cols) == _drain(base), round_no
        assert cols.rounds_until_delivery() is base.rounds_until_delivery() is None
        assert cols.per_round_bits == base.per_round_bits

    def test_flush_with_pending_block_materializes_it(self):
        # Two flushes before a delivery: the first commits a block, the
        # second folds it into the per-edge queues behind which its own
        # rows queue, exactly as if both had taken the general path.
        bw = 8
        base = LinkTransport(bw)
        cols = ColumnarTransport(bw)
        for t in (base, cols):
            t.enqueue(0, 1, "a", 4, 1)
            t.enqueue(1, 2, "b", 8, 1)
            t.flush()
        assert cols._block is not None
        for t in (base, cols):
            t.enqueue(0, 1, "c", 8, 1)
            t.enqueue(2, 0, "d", 3, 1)
            t.flush()
        assert cols._block is None
        assert cols.live_edges == 3
        while base.rounds_until_delivery() is not None:
            assert cols.rounds_until_delivery() == base.rounds_until_delivery()
            assert _drain(cols) == _drain(base)
        assert cols.per_round_bits == base.per_round_bits
        assert cols.max_edge_bits_per_round == base.max_edge_bits_per_round

    def test_skip_over_a_pending_block_raises(self):
        cols = ColumnarTransport(8)
        cols.enqueue(0, 1, "a", 5, 1)
        cols.flush()
        assert cols.rounds_until_delivery() == 1
        with pytest.raises(RuntimeError, match="crossed a delivery"):
            cols.skip_rounds(1)
        assert cols.skip_rounds(0) == 0
        assert _drain(cols) == {1: [(0, "a", 5)]}
        assert cols.per_round_bits == [5]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_enqueue_many_matches_baseline(self, seed):
        # Broadcasts to random receiver lists, some naming edges that have
        # never carried a message yet; the baseline stages them one
        # enqueue at a time.
        rng = random.Random(seed)
        bw = 16
        base = LinkTransport(bw, record_messages=True)
        cols = ColumnarTransport(bw, record_messages=True)
        for round_no in range(1, 30):
            for _ in range(rng.randrange(0, 4)):
                sender = rng.randrange(10)
                receivers = rng.sample([v for v in range(10) if v != sender], rng.randrange(0, 6))
                bits = rng.randrange(1, 2 * bw)
                for t in (base, cols):
                    t.enqueue_many(sender, receivers, ("b", round_no, sender), bits, round_no)
            for t in (base, cols):
                t.flush()
            assert _drain(cols) == _drain(base), round_no
        assert cols.per_round_bits == base.per_round_bits
        assert cols.message_log == base.message_log
        assert (cols.total_messages, cols.total_bits) == (base.total_messages, base.total_bits)

    def test_drain_then_revive_keeps_baseline_delivery_order(self):
        # An edge that drains and is re-created must complete *after* edges
        # created in between -- the baseline's insertion-ordered link dict
        # behaviour, reproduced columnar-side by the edge creation sequence.
        bw = 8
        base = LinkTransport(bw)
        cols = ColumnarTransport(bw)
        for t in (base, cols):
            t.enqueue(0, 1, "a", bw, 1)
            t.flush()
        assert _drain(cols) == _drain(base)  # edge (0, 1) drains
        for t in (base, cols):
            t.enqueue(2, 1, "b", bw, 2)  # new edge while (0, 1) is dead
            t.enqueue(0, 1, "c", bw, 2)  # (0, 1) revived -- now *after* (2, 1)
            t.flush()
        assert _drain(cols) == _drain(base)

    def test_same_round_completions_deliver_in_activation_order(self):
        # Three edges revived in the order C, A, B -- not their edge-id
        # order A < B < C -- on the general path (no block: the 16-bit
        # heads exceed B) all complete in the same round.  They must
        # deliver in activation order, as the baseline's insertion-ordered
        # link dict does, not in edge-id order.
        bw = 8
        base = LinkTransport(bw)
        cols = ColumnarTransport(bw)
        for t in (base, cols):
            for sender in (0, 2, 3):  # edge ids: A=(0, 1), B=(2, 1), C=(3, 1)
                t.enqueue(sender, 1, ("id", sender), bw, 1)
            t.flush()
        assert _drain(cols) == _drain(base)
        for t in (base, cols):
            for sender in (3, 0, 2):
                t.enqueue(sender, 1, ("late", sender), 2 * bw, 2)
            t.flush()
        assert cols._block is None  # the general path, not a block
        assert _drain(cols) == _drain(base) == {}
        delivered = _drain(cols)
        assert delivered == _drain(base)
        assert [sender for sender, _, _ in delivered[1]] == [3, 0, 2]
        assert cols.per_round_bits == base.per_round_bits

    @pytest.mark.parametrize("seed", [5, 17])
    def test_skip_rounds_matches_baseline(self, seed):
        rng = random.Random(seed)
        bw = 16
        base = LinkTransport(bw)
        cols = ColumnarTransport(bw)
        for round_no in range(1, 12):
            for _ in range(rng.randrange(1, 4)):
                sender, receiver = rng.sample(range(5), 2)
                bits = rng.randrange(bw, 20 * bw)
                base.enqueue(sender, receiver, ("p", round_no), bits, round_no)
                cols.enqueue(sender, receiver, ("p", round_no), bits, round_no)
            base.flush()
            cols.flush()
            gap = base.rounds_until_delivery()
            if gap is not None and gap > 1:
                skip = rng.randrange(1, gap)
                assert cols.skip_rounds(skip) == base.skip_rounds(skip)
            assert _drain(cols) == _drain(base)
            assert cols.per_round_bits == base.per_round_bits
            assert cols.pending_traffic() == base.pending_traffic()

    def test_skip_rounds_crossing_a_delivery_raises(self):
        cols = ColumnarTransport(8)
        cols.enqueue(0, 1, "x", 24, 1)  # 3 rounds to deliver
        cols.flush()
        assert cols.rounds_until_delivery() == 3
        with pytest.raises(RuntimeError, match="crossed a delivery"):
            cols.skip_rounds(3)
        assert cols.skip_rounds(2) == 16
        assert cols.rounds_until_delivery() == 1

    def test_quiet_skip_with_no_traffic(self):
        cols = ColumnarTransport(8)
        assert cols.skip_rounds(4) == 0
        assert cols.per_round_bits == [0, 0, 0, 0]
        assert cols.rounds_until_delivery() is None

    def test_live_edges_tracks_queue_lifecycle(self):
        cols = ColumnarTransport(8)
        cols.enqueue(0, 1, "a", 8, 1)
        cols.enqueue(1, 0, "b", 16, 1)
        cols.flush()
        assert cols.live_edges == 2
        cols.deliver_round()  # (0, 1) drains, (1, 0) still has 8 bits
        assert cols.live_edges == 1
        cols.deliver_round()
        assert cols.live_edges == 0


class TestStrictMode:
    def test_oversized_message_text_matches_baseline(self):
        base = LinkTransport(8, strict=True)
        cols = ColumnarTransport(8, strict=True)
        errors = {}
        for name, transport in (("base", base), ("cols", cols)):
            with pytest.raises(BandwidthExceeded) as info:
                transport.enqueue(0, 1, "big", 9, 1)
            errors[name] = str(info.value)
        assert errors["cols"] == errors["base"]

    def test_per_edge_overflow_text_matches_and_commits_nothing(self):
        base = LinkTransport(8, strict=True)
        cols = ColumnarTransport(8, strict=True)
        errors = {}
        for name, transport in (("base", base), ("cols", cols)):
            transport.enqueue(0, 1, "a", 5, 1)
            transport.enqueue(0, 1, "b", 5, 1)
            with pytest.raises(BandwidthExceeded) as info:
                transport.flush()
            errors[name] = str(info.value)
        assert errors["cols"] == errors["base"]
        # The check raises before the commit: nothing is in flight.
        assert cols.pending_traffic() == base.pending_traffic() == 0
        assert cols.live_edges == 0

    @pytest.mark.parametrize("send", ["enqueue", "enqueue_many"])
    def test_abort_mid_round_counts_staged_messages(self, send):
        # The columnar side folds its totals in at the flush barrier; an
        # oversized send must first count what the round already staged.
        base = LinkTransport(8, strict=True)
        cols = ColumnarTransport(8, strict=True)
        errors = {}
        for name, transport in (("base", base), ("cols", cols)):
            transport.enqueue(0, 1, "a", 5, 1)
            transport.enqueue_many(1, [0, 2], "b", 7, 1)
            with pytest.raises(BandwidthExceeded) as info:
                if send == "enqueue":
                    transport.enqueue(2, 1, "big", 9, 1)
                else:
                    transport.enqueue_many(2, [1, 0], "big", 9, 1)
            errors[name] = str(info.value)
        assert errors["cols"] == errors["base"]
        assert (base.total_messages, base.total_bits) == (3, 19)
        assert (cols.total_messages, cols.total_bits) == (3, 19)

    def test_shard_staging_is_rejected(self):
        cols = ColumnarTransport(8)
        with pytest.raises(RuntimeError, match="single-writer"):
            cols.begin_shard_staging()
