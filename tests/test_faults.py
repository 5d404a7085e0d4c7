"""The fault-injection layer: plan values, wrapper semantics, recovery.

Covers the three seams the layer adds under the engines:

- :class:`FaultPlan` as a pure value -- validation, hash-decision purity,
  schedule queries, deterministic generation;
- :class:`FaultyTransport` wire semantics on a bare ``LinkTransport`` --
  drops at the send with offered-load accounting (a hypothesis property
  checks them over ``LinkTransport`` and the reference transport), crash
  and link loss at delivery, the skip-rounds guard that keeps the event
  engines honest;
- end-to-end recovery correctness and the exactness of the engines' skip
  accounting across crash/recovery wake-ups (byte-identical to the
  reference: the dense engine, which never skips, over the per-link
  reference transport).
"""

import hashlib
from collections import defaultdict
from dataclasses import replace

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.mst import run_boruvka_mst, tree_weight
from repro.algorithms.paths import run_refreshing_bellman_ford
from repro.congest.faults import (
    CrashSpan,
    FaultPlan,
    FaultyTransport,
    TopologyEvent,
    apply_topology_event,
)
from repro.congest.network import CongestNetwork
from repro.congest.node import NodeProgram
from repro.congest.transport import LinkTransport
from repro.graphs.generators import random_connected_graph
from tests.reference_transport import (
    ReferenceDenseEngine,
    ReferenceEventEngine,
    ReferenceTransport,
)


def _weighted(n, seed, extra_edge_prob=0.15):
    graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=seed)
    import random as _random

    rng = _random.Random(seed + 1)
    weights = rng.sample(range(1, 10 * graph.number_of_edges() + 1), graph.number_of_edges())
    for (u, v), w in zip(graph.edges(), weights):
        graph.edges[u, v]["weight"] = float(w)
    return graph


class TestFaultPlanValue:
    def test_probability_validation(self):
        with pytest.raises(ValueError, match="drop_prob"):
            FaultPlan(drop_prob=1.5)
        with pytest.raises(ValueError, match="drop_prob"):
            FaultPlan(drop_prob=-0.1)

    def test_crash_span_validation(self):
        with pytest.raises(ValueError, match="crash span"):
            FaultPlan(crashes=((3, 0, 5),))
        with pytest.raises(ValueError, match="crash span"):
            FaultPlan(crashes=(CrashSpan(3, 7, 7),))

    def test_topology_event_validation(self):
        with pytest.raises(ValueError, match="unknown topology action"):
            FaultPlan(topology_events=((4, "frobnicate", 0, 1),))
        with pytest.raises(ValueError, match="round 1"):
            FaultPlan(topology_events=(TopologyEvent(0, "insert", 0, 1),))

    def test_window_validation(self):
        with pytest.raises(ValueError, match="window"):
            FaultPlan(window=(5, 2))

    def test_tuples_coerced_and_events_sorted(self):
        plan = FaultPlan(
            crashes=((7, 2, 9),),
            topology_events=((9, "delete", 0, 1), (3, "insert", 2, 4, 2.5)),
        )
        assert plan.crashes == (CrashSpan(7, 2, 9),)
        assert [ev.round for ev in plan.topology_events] == [3, 9]
        assert plan.topology_events[0].weight == 2.5

    def test_emptiness_and_flags(self):
        assert FaultPlan().is_empty()
        assert FaultPlan(seed=99).is_empty()
        assert not FaultPlan(drop_prob=0.1).is_empty()
        assert not FaultPlan(crashes=((1, 2, 3),)).is_empty()
        assert FaultPlan(drop_prob=0.1).has_message_faults
        assert FaultPlan(crashes=((1, 2, 3),)).has_crashes

    def test_decision_is_pure_and_uniform_range(self):
        plan = FaultPlan(seed=42, drop_prob=0.5)
        twin = FaultPlan(seed=42, drop_prob=0.5)
        draws = [plan.decision(r, "a", "b", i) for r in range(5) for i in range(5)]
        again = [twin.decision(r, "a", "b", i) for r in range(5) for i in range(5)]
        assert draws == again
        assert all(0.0 <= d < 1.0 for d in draws)
        # Distinct coordinates give distinct draws (no accidental aliasing
        # between round / edge / index).
        assert plan.decision(1, "a", "b", 0) != plan.decision(2, "a", "b", 0)
        assert plan.decision(1, "a", "b", 0) != plan.decision(1, "b", "a", 0)
        assert plan.decision(1, "a", "b", 0) != plan.decision(1, "a", "b", 1)

    def test_decision_hashes_the_drop_tag(self):
        # The hashed string keeps its ``drop`` tag, so every draw equals
        # the one stored fault records were computed with.
        digest = hashlib.blake2b(b"42|drop|3|'a'|'b'|1", digest_size=8).digest()
        expected = int.from_bytes(digest, "big") / float(1 << 64)
        assert FaultPlan(seed=42, drop_prob=0.5).decision(3, "a", "b", 1) == expected

    def test_different_seeds_make_different_decisions(self):
        a = FaultPlan(seed=0, drop_prob=0.5)
        b = replace(a, seed=1)
        assert b.seed == 1 and b.drop_prob == 0.5
        seq_a = [a.decision(r, 0, 1, i) for r in range(10) for i in range(10)]
        seq_b = [b.decision(r, 0, 1, i) for r in range(10) for i in range(10)]
        assert seq_a != seq_b

    def test_window_gates_message_faults(self):
        plan = FaultPlan(drop_prob=1.0, window=(5, 8))
        assert not plan.message_faults_active(4)
        assert plan.message_faults_active(5)
        assert plan.message_faults_active(8)
        assert not plan.message_faults_active(9)
        assert not plan.drop(4, 0, 1, 0)
        assert plan.drop(5, 0, 1, 0)

    def test_last_fault_round(self):
        assert FaultPlan().last_fault_round() == 0
        assert FaultPlan(drop_prob=0.1).last_fault_round() is None
        assert FaultPlan(drop_prob=0.1, window=(1, 12)).last_fault_round() == 12
        plan = FaultPlan(
            drop_prob=0.1,
            window=(1, 12),
            crashes=((0, 3, 20),),
            topology_events=((15, "insert", 0, 9),),
        )
        assert plan.last_fault_round() == 20

    def test_crashed_spans(self):
        plan = FaultPlan(crashes=((7, 3, 6), (7, 10, 12), (8, 4, 5)))
        assert not plan.crashed(7, 2)
        assert plan.crashed(7, 3)
        assert plan.crashed(7, 5)
        assert not plan.crashed(7, 6)  # recovery round: up again
        assert plan.crashed(7, 11)
        assert plan.crashed(8, 4)
        assert not plan.crashed(9, 4)

    def test_edge_down_follows_the_timeline(self):
        plan = FaultPlan(
            topology_events=((4, "delete", 0, 1), (9, "insert", 0, 1), (2, "delete", 2, 3))
        )
        assert not plan.edge_down(0, 1, 3)
        assert plan.edge_down(0, 1, 4)
        assert plan.edge_down(1, 0, 5)  # undirected
        assert not plan.edge_down(0, 1, 9)  # re-inserted
        assert plan.edge_down(2, 3, 100)
        assert not plan.edge_down(5, 6, 100)  # never scheduled

    def test_next_event_round_and_forced_wakes(self):
        plan = FaultPlan(
            crashes=((7, 3, 6),),
            topology_events=((10, "insert", 1, 2),),
        )
        assert plan.next_event_round(0) == 3
        assert plan.next_event_round(3) == 6
        assert plan.next_event_round(6) == 10
        assert plan.next_event_round(10) is None
        wakes = plan.forced_wakes()
        assert wakes[6] == (7,)  # recovery re-step
        assert set(wakes[10]) == {1, 2}  # event endpoints

    def test_final_graph_applies_events_in_order(self):
        graph = nx.path_graph(4)
        plan = FaultPlan(
            topology_events=(
                (2, "insert", 0, 3),
                (5, "delete", 0, 3),
                (7, "insert", 0, 2, 4.0),
            )
        )
        final = plan.final_graph(graph)
        assert not final.has_edge(0, 3)
        assert final.has_edge(0, 2) and final.edges[0, 2]["weight"] == 4.0
        assert graph.number_of_edges() == 3  # input untouched

    def test_apply_topology_event_skips_impossible(self):
        graph = nx.path_graph(3)
        assert not apply_topology_event(graph, TopologyEvent(1, "insert", 0, 1))
        assert not apply_topology_event(graph, TopologyEvent(1, "insert", 0, 0))
        assert not apply_topology_event(graph, TopologyEvent(1, "insert", 0, 99))
        assert not apply_topology_event(graph, TopologyEvent(1, "delete", 0, 2))
        assert apply_topology_event(graph, TopologyEvent(1, "delete", 0, 1))
        with pytest.raises(ValueError, match="unknown topology action"):
            apply_topology_event(graph, TopologyEvent(1, "nope", 0, 1))


class TestFaultPlanGenerate:
    def test_same_arguments_same_plan(self):
        graph = random_connected_graph(20, extra_edge_prob=0.2, seed=3)
        kwargs = dict(
            seed=5,
            drop_prob=0.1,
            n_crashes=2,
            crash_length=6,
            n_edge_deletes=2,
            n_edge_inserts=2,
            window=(1, 30),
        )
        assert FaultPlan.generate(graph, **kwargs) == FaultPlan.generate(graph, **kwargs)

    def test_different_seed_different_schedule(self):
        graph = random_connected_graph(20, extra_edge_prob=0.2, seed=3)
        plans = [
            FaultPlan.generate(graph, seed=s, n_crashes=2, n_edge_deletes=2) for s in range(6)
        ]
        assert len({(p.crashes, p.topology_events) for p in plans}) > 1

    def test_deletions_keep_the_graph_connected(self):
        graph = random_connected_graph(18, extra_edge_prob=0.15, seed=9)
        plan = FaultPlan.generate(graph, seed=2, n_edge_deletes=4)
        assert nx.is_connected(plan.final_graph(graph))

    def test_protected_nodes_never_crash(self):
        graph = random_connected_graph(12, extra_edge_prob=0.2, seed=1)
        source = min(graph.nodes())
        for seed in range(8):
            plan = FaultPlan.generate(graph, seed=seed, n_crashes=4, protect=[source])
            assert all(span.node != source for span in plan.crashes)

    def test_schedule_respects_window_and_lengths(self):
        graph = random_connected_graph(14, extra_edge_prob=0.2, seed=4)
        plan = FaultPlan.generate(
            graph, seed=7, n_crashes=3, crash_length=5, n_edge_inserts=2, window=(10, 20)
        )
        for span in plan.crashes:
            assert 10 <= span.start <= 20
            assert span.stop == span.start + 5
        for ev in plan.topology_events:
            assert 10 <= ev.round <= 20
        assert plan.window == (10, 20)


def _staged_stream(n_edges=3, per_edge=4, round_no=1):
    """A deterministic round of traffic over ``n_edges`` directed edges."""
    stream = []
    for e in range(n_edges):
        for i in range(per_edge):
            stream.append((f"s{e}", f"r{e}", ("m", e, i), 8, round_no))
    return stream


def _run_round(plan, stream):
    """Push one staged round through a wrapped LinkTransport; return the
    wrapper and the delivered inboxes."""
    transport = FaultyTransport(LinkTransport(bandwidth=512), plan)
    for sender, receiver, payload, bits, round_no in stream:
        transport.enqueue(sender, receiver, payload, bits, round_no)
    transport.flush()
    return transport, transport.deliver_round()


class TestFaultyTransportWire:
    def test_empty_plan_is_transparent(self):
        stream = _staged_stream()
        transport, inboxes = _run_round(FaultPlan(), stream)
        assert transport.fault_summary is None
        assert transport.total_messages == len(stream)
        delivered = [
            (msg.sender, msg.payload) for nid in sorted(inboxes) for msg in inboxes[nid]
        ]
        assert delivered == [(s, p) for s, r, p, b, rn in stream]

    def test_drops_charge_offered_load(self):
        plan = FaultPlan(seed=3, drop_prob=0.5)
        stream = _staged_stream(n_edges=4, per_edge=8)
        transport, inboxes = _run_round(plan, stream)
        n_delivered = sum(len(msgs) for msgs in inboxes.values())
        stats = transport.fault_summary
        assert stats["drops"] > 0
        assert n_delivered == len(stream) - stats["drops"]
        # The sender paid for every send; the wire only carried survivors.
        assert transport.total_messages == len(stream)
        assert transport.total_bits == 8 * len(stream)
        assert transport.per_round_bits[-1] == 8 * n_delivered

    def test_fault_decisions_identical_across_staging_orders(self):
        # Drop decisions index the per-edge send order, so reordering
        # whole-edge blocks of the staged round changes nothing.  The sort is
        # stable, so each edge keeps its own send order.
        plan = FaultPlan(seed=9, drop_prob=0.3)
        stream = _staged_stream(n_edges=4, per_edge=6)
        _, inboxes_a = _run_round(plan, stream)
        regrouped = sorted(stream, key=lambda m: m[0], reverse=True)
        assert regrouped != stream
        _, inboxes_b = _run_round(plan, regrouped)
        for nid in inboxes_a:
            assert [m.payload for m in inboxes_a[nid]] == [m.payload for m in inboxes_b[nid]]

    def test_crash_loss_at_delivery(self):
        plan = FaultPlan(crashes=((("r0"), 1, 4),))
        stream = _staged_stream(n_edges=2, per_edge=3)
        transport, inboxes = _run_round(plan, stream)
        assert "r0" not in inboxes
        assert len(inboxes["r1"]) == 3
        assert transport.fault_summary["crash_lost"] == 3

    def test_link_loss_for_in_flight_messages(self):
        plan = FaultPlan(topology_events=((1, "delete", "s0", "r0"),))
        stream = _staged_stream(n_edges=2, per_edge=3)
        transport, inboxes = _run_round(plan, stream)
        assert "r0" not in inboxes
        assert len(inboxes["r1"]) == 3
        assert transport.fault_summary["link_lost"] == 3

    def test_skip_rounds_refuses_to_cross_an_event(self):
        plan = FaultPlan(crashes=((0, 5, 9),))
        transport = FaultyTransport(LinkTransport(bandwidth=8), plan)
        with pytest.raises(RuntimeError, match="skip_rounds crossed a scheduled fault event"):
            transport.skip_rounds(10)
        # Skipping short of the event is fine and keeps the clocks aligned.
        transport.skip_rounds(4)
        assert transport.pending_traffic() == 0


_NODES = ("a", "b", "c", "d")

#: One program send: (sender, receivers, bits, as one enqueue_many).  A
#: plain send is the one-receiver case; receivers may repeat, so one round
#: can put several messages on one edge.
_SEND = st.tuples(
    st.sampled_from(_NODES),
    st.lists(st.sampled_from(_NODES), min_size=0, max_size=4),
    st.integers(1, 40),
    st.booleans(),
)


@st.composite
def _faulted_streams(draw):
    """A plan with random drop probability and window, plus a send stream:
    one list of sends per round, rounds numbered from 0 as the engines do."""
    window = draw(st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 4))))
    if window is not None:
        window = (window[0], window[0] + window[1])
    plan = FaultPlan(
        seed=draw(st.integers(0, 1_000)),
        drop_prob=draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
        window=window,
    )
    stream = draw(st.lists(st.lists(_SEND, max_size=6), min_size=1, max_size=5))
    return plan, stream


def _send_stream(inner_class, plan, stream, loop_broadcasts):
    """Drive one wrapped transport through ``stream``, then drain it;
    returns the wrapper and every round's inboxes as plain data."""
    transport = FaultyTransport(inner_class(bandwidth=16, record_messages=True), plan)
    rounds = []
    for round_no, sends in enumerate(stream):
        for k, (sender, receivers, bits, many) in enumerate(sends):
            payload = (round_no, k)
            if many and not loop_broadcasts:
                transport.enqueue_many(sender, receivers, payload, bits, round_no)
            else:
                for receiver in receivers:
                    transport.enqueue(sender, receiver, payload, bits, round_no)
        transport.flush()
        rounds.append(transport.deliver_round())
    while transport.pending_traffic():
        rounds.append(transport.deliver_round())
    inboxes = [
        {nid: [(m.sender, m.payload, m.bits) for m in msgs] for nid, msgs in inbox.items()}
        for inbox in rounds
    ]
    return transport, inboxes


class TestSendTimeDrops:
    @given(_faulted_streams())
    @settings(max_examples=60, deadline=None)
    def test_drops_follow_the_plan_at_every_send(self, case):
        # The oracle: each send's index counts the round's earlier sends on
        # its directed edge, drops included.
        plan, stream = case
        expected = defaultdict(list)
        log = []
        drops = 0
        for round_no, sends in enumerate(stream):
            index = defaultdict(int)
            for k, (sender, receivers, bits, _) in enumerate(sends):
                for receiver in receivers:
                    edge = (sender, receiver)
                    log.append((round_no, sender, receiver, bits))
                    if plan.drop(round_no, sender, receiver, index[edge]):
                        drops += 1
                    else:
                        expected[edge].append(((round_no, k), bits))
                    index[edge] += 1
        runs = []
        for inner_class in (LinkTransport, ReferenceTransport):
            for loop_broadcasts in (False, True):
                transport, inboxes = _send_stream(inner_class, plan, stream, loop_broadcasts)
                delivered = defaultdict(list)
                for inbox in inboxes:
                    for receiver, msgs in inbox.items():
                        for sender, payload, bits in msgs:
                            delivered[(sender, receiver)].append((payload, bits))
                assert delivered == expected
                assert transport.message_log == log
                assert transport.total_messages == len(log)
                assert transport.total_bits == sum(entry[3] for entry in log)
                assert transport.stats.drops == drops
                runs.append(
                    (inboxes, transport.per_round_bits, transport.message_log, transport.stats)
                )
        # A broadcast as one enqueue_many or as a loop of enqueue, over
        # either inner transport: the same run, round for round.
        assert all(run == runs[0] for run in runs[1:])


class _CountingTransport(LinkTransport):
    """A ``LinkTransport`` that counts the staging calls it receives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = defaultdict(int)

    def enqueue(self, *args):
        self.calls["enqueue"] += 1
        super().enqueue(*args)

    def enqueue_many(self, *args):
        self.calls["enqueue_many"] += 1
        super().enqueue_many(*args)


class TestWrapperSendPath:
    def test_broadcast_reaches_the_inner_bulk_path(self):
        # Inside the drop window and outside it, one broadcast is one inner
        # enqueue_many call carrying its survivors, never a per-receiver loop.
        inner = _CountingTransport(bandwidth=64)
        transport = FaultyTransport(inner, FaultPlan(seed=2, drop_prob=0.5, window=(1, 1)))
        receivers = [f"r{i}" for i in range(12)]
        for round_no in (1, 2):
            transport.enqueue_many("s", receivers, ("m", round_no), 8, round_no)
            transport.flush()
            transport.deliver_round()
        assert dict(inner.calls) == {"enqueue_many": 2}
        assert 0 < transport.stats.drops < len(receivers)
        assert inner.total_messages == 2 * len(receivers) - transport.stats.drops

    def test_no_decisions_outside_the_window(self, monkeypatch):
        plan = FaultPlan(drop_prob=1.0, window=(3, 3))
        decisions = []
        monkeypatch.setattr(
            FaultPlan, "decision", lambda self, *args: decisions.append(args) or 0.0
        )
        transport = FaultyTransport(LinkTransport(bandwidth=64), plan)
        delivered = []
        for round_no in (1, 2, 3, 4):
            transport.enqueue("a", "b", ("m", round_no), 8, round_no)
            transport.enqueue_many("a", ["c", "d"], ("m", round_no), 8, round_no)
            transport.flush()
            delivered.append(sum(len(msgs) for msgs in transport.deliver_round().values()))
        assert delivered == [3, 3, 0, 3]
        assert [args[0] for args in decisions] == [3, 3, 3]
        assert transport.stats.drops == 3 and transport.total_messages == 12

    def test_each_flush_closes_its_round_drop_count(self):
        from repro.obs.trace import CollectingTracer, use_tracer

        tracer = CollectingTracer()
        with use_tracer(tracer):
            transport = FaultyTransport(
                LinkTransport(bandwidth=64), FaultPlan(seed=4, drop_prob=0.5, window=(1, 2))
            )
        per_round = []
        for round_no in (1, 2, 3):
            before = transport.stats.drops
            transport.enqueue_many("s", [f"r{i}" for i in range(10)], ("m",), 8, round_no)
            transport.flush()
            transport.deliver_round()
            per_round.append(transport.stats.drops - before)
        events = [e for e in tracer.by_kind("event") if e["name"] == "fault_flush"]
        assert per_round[2] == 0 and per_round[0] > 0 and per_round[1] > 0
        assert [(e["round"], e["drops"]) for e in events] == [(1, per_round[0]), (2, per_round[1])]
        assert transport.stats.faulted_flushes == 2


class _RoundRecorder(NodeProgram):
    """Records every round the node is stepped in; never halts."""

    def __init__(self):
        self.stepped = []

    def on_start(self, node):
        node.broadcast(("tick", 0), bits=8)

    def on_round(self, node, round_no, inbox):
        self.stepped.append(round_no)
        if round_no < 30:
            node.broadcast(("tick", round_no), bits=8)


class TestCrashSemantics:
    @pytest.mark.parametrize("engine", ["dense", "event"])
    def test_crashed_node_naps_and_recovers(self, engine):
        graph = nx.path_graph(4)
        plan = FaultPlan(crashes=((2, 5, 11),))
        programs = {}

        def factory():
            program = _RoundRecorder()
            programs[len(programs)] = program
            return program

        network = CongestNetwork(graph, factory, bandwidth=64, engine=engine, faults=plan)
        network.run(max_rounds=35)
        crashed_program = next(
            p for nid, p in network.programs.items() if nid == 2
        )
        stepped = set(crashed_program.stepped)
        assert not stepped & set(range(5, 11)), "stepped while down"
        assert 11 in stepped, "recovery round must be stepped"
        assert 4 in stepped and 12 in stepped
        # Deliveries addressed to the napping node were discarded.
        assert network.transport.stats.crash_lost > 0

    def test_state_survives_the_nap(self):
        # The recorder keeps appending after recovery: state was retained,
        # not reset -- crash is a nap, not a reboot.
        graph = nx.path_graph(3)
        plan = FaultPlan(crashes=((1, 3, 7),))
        network = CongestNetwork(
            graph, _RoundRecorder, bandwidth=64, engine="event", faults=plan
        )
        network.run(max_rounds=20)
        stepped = network.programs[1].stepped
        assert stepped == sorted(stepped)
        assert min(stepped) < 3 and max(stepped) > 7


class TestTopologyDynamics:
    def test_events_update_nodes_and_graph(self):
        graph = nx.path_graph(4)
        plan = FaultPlan(
            topology_events=((3, "insert", 0, 3, 2.0), (5, "delete", 1, 2))
        )
        network = CongestNetwork(
            graph, _RoundRecorder, bandwidth=64, engine="event", faults=plan
        )
        network.run(max_rounds=10)
        assert network.graph.has_edge(0, 3)
        assert not network.graph.has_edge(1, 2)
        assert 3 in network.nodes[0].neighbors
        assert 2 not in network.nodes[1].neighbors
        assert network.transport.stats.topology_applied == 2
        # The caller's graph is untouched (copy-on-events semantics).
        assert not graph.has_edge(0, 3)

    def test_stale_send_to_deleted_link_is_lost_not_an_error(self):
        class StubbornSender(NodeProgram):
            """Node 1 keeps addressing node 2 even after the link dies."""

            def on_start(self, node):
                node.broadcast(("hi",), bits=8)

            def on_round(self, node, round_no, inbox):
                if node.id == 1 and round_no <= 8:
                    node.send(2, ("again", round_no), bits=8)

        graph = nx.path_graph(4)
        plan = FaultPlan(topology_events=((4, "delete", 1, 2),))
        network = CongestNetwork(
            graph, StubbornSender, bandwidth=64, engine="event", faults=plan
        )
        network.run(max_rounds=10)
        assert network.transport.stats.link_lost > 0

    def test_send_to_never_neighbor_still_raises(self):
        class WildSender(NodeProgram):
            def on_round(self, node, round_no, inbox):
                if node.id == 0:
                    node.send(3, ("nope",), bits=8)  # never an edge

        graph = nx.path_graph(4)
        plan = FaultPlan(crashes=((2, 2, 4),))
        network = CongestNetwork(
            graph, WildSender, bandwidth=64, engine="dense", faults=plan
        )
        with pytest.raises(ValueError, match="not a neighbor"):
            network.run(max_rounds=5)


def _assert_results_match(dense, other):
    assert other.rounds == dense.rounds
    assert other.total_messages == dense.total_messages
    assert other.total_bits == dense.total_bits
    assert other.halted == dense.halted
    assert other.max_edge_bits_per_round == dense.max_edge_bits_per_round
    assert other.per_round_bits == dense.per_round_bits
    assert other.fault_stats == dense.fault_stats
    assert set(other.outputs) == set(dense.outputs)
    for nid in dense.outputs:
        assert repr(other.outputs[nid]) == repr(dense.outputs[nid]), nid


class TestSkipAccountingUnderFaults:
    """The skip-jump accounting must stay exact when crash recoveries and
    topology events force extra wake-ups: every engine's RunResult
    (including the per-round bit trace) matches the reference, the dense
    engine over the reference transport, which never skips at all.  The
    event engine also runs over the reference transport, whose
    ``skip_rounds`` raises on a skip that crosses a delivery."""

    @pytest.mark.parametrize("engine", ["event", "dense", "reference-event"])
    def test_refreshing_bf_under_full_plan_matches_dense(self, engine):
        graph = _weighted(18, 2)
        source = min(graph.nodes())
        plan = FaultPlan.generate(
            graph,
            seed=11,
            drop_prob=0.1,
            n_crashes=2,
            crash_length=6,
            n_edge_deletes=1,
            n_edge_inserts=1,
            window=(1, 25),
            protect=[source],
        )
        _, dense = run_refreshing_bellman_ford(
            graph, source, max_rounds=60, engine=ReferenceDenseEngine(), faults=plan
        )
        if engine == "reference-event":
            engine = ReferenceEventEngine()
        _, other = run_refreshing_bellman_ford(
            graph, source, max_rounds=60, engine=engine, faults=plan
        )
        _assert_results_match(dense, other)
        assert other.fault_stats is not None and other.fault_stats["drops"] > 0

    def test_quiet_crash_recovery_wakeups_are_not_skipped(self):
        # A reactive program goes quiet; the only activity left is a crash
        # recovery deep in the quiet stretch.  The event engine must land
        # exactly on the recovery round (the transport guard raises if a
        # skip leaps over it) and still agree with dense byte for byte.
        class OneShot(NodeProgram):
            def on_start(self, node):
                if node.id == 0:
                    node.broadcast(("x",), bits=8)

            def on_round(self, node, round_no, inbox):
                pass

            def next_active_round(self, node, after_round):
                return None

        graph = nx.path_graph(5)
        plan = FaultPlan(crashes=((3, 40, 70),))
        dense = CongestNetwork(
            graph, OneShot, bandwidth=8, engine=ReferenceDenseEngine(), faults=plan
        ).run(max_rounds=100)
        for spec in ("event", ReferenceEventEngine()):
            event = CongestNetwork(graph, OneShot, bandwidth=8, engine=spec, faults=plan).run(
                max_rounds=100
            )
            _assert_results_match(dense, event)
            assert event.rounds == 100


class TestRecoveryCorrectness:
    def test_refreshing_bf_restabilizes_to_final_graph_distances(self):
        graph = random_connected_graph(16, extra_edge_prob=0.2, seed=6)
        source = min(graph.nodes())
        plan = FaultPlan.generate(
            graph,
            seed=4,
            drop_prob=0.15,
            n_crashes=2,
            crash_length=6,
            n_edge_inserts=1,
            window=(1, 20),
            protect=[source],
        )
        horizon = plan.last_fault_round() + 60
        distances, result = run_refreshing_bellman_ford(
            graph, source, weighted=False, max_rounds=horizon, faults=plan
        )
        expected = nx.single_source_shortest_path_length(plan.final_graph(graph), source)
        assert {n: int(d) for n, d in distances.items()} == dict(expected)
        assert result.fault_stats["drops"] > 0 or result.fault_stats["crash_lost"] > 0

    def test_boruvka_detect_and_restart_recovers_the_mst(self):
        graph = _weighted(16, 8)
        # Every first-iteration fragment is a single node, so nothing is
        # sent before the first choose round, 2(n + 1) + 2 = 36 at B = 64;
        # the window reaches into the first merge.
        plan = FaultPlan.generate(graph, seed=3, drop_prob=0.1, window=(1, 60))
        edges, result = run_boruvka_mst(graph, bandwidth=64, faults=plan)
        assert result.fault_stats["drops"] > 0
        expected = {
            frozenset(e) for e in nx.minimum_spanning_tree(graph).edges()
        }
        got = {frozenset(e) for e in edges}
        if not (result.halted and got == expected):
            # Detect-and-restart: past the fault window the network is
            # reliable again, so a clean re-run must succeed.
            edges, result = run_boruvka_mst(graph, bandwidth=64)
            got = {frozenset(e) for e in edges}
        assert got == expected
        reference = sum(
            d["weight"] for _, _, d in nx.minimum_spanning_tree(graph).edges(data=True)
        )
        assert abs(tree_weight(graph, [tuple(e) for e in got]) - reference) < 1e-9

    @staticmethod
    def _stored_record(name, grid, tmp_path):
        from repro.experiments import ResultStore, expand_grid, get_scenario, run_sweep

        store = ResultStore(tmp_path)
        (point,) = expand_grid(get_scenario(name), grid)
        run_sweep([point], store=store)
        (record,) = store.iter_records(name)
        return record

    def test_wrong_restarted_tree_is_a_false_flag_in_an_ok_record(self, monkeypatch, tmp_path):
        from repro.experiments import scenarios

        real = scenarios.run_boruvka_mst
        calls = []

        def one_edge_short_after_the_clean_run(graph, **kwargs):
            edges, result = real(graph, **kwargs)
            calls.append(kwargs)
            if len(calls) > 1:  # the faulted attempt and the restart
                edges = set(sorted(edges, key=repr)[1:])
            return edges, result

        monkeypatch.setattr(scenarios, "run_boruvka_mst", one_edge_short_after_the_clean_run)
        record = self._stored_record("mst-under-faults", {"drop_prob": 0.05}, tmp_path)
        assert len(calls) == 3
        assert record.status == "ok"
        assert record.result["restarted"] is True
        assert record.result["correct_after_recovery"] is False

    def test_a_restart_that_repairs_the_tree_keeps_the_flag_true(self, monkeypatch, tmp_path):
        from repro.experiments import scenarios

        real = scenarios.run_boruvka_mst
        calls = []

        def one_edge_short_under_faults(graph, **kwargs):
            edges, result = real(graph, **kwargs)
            calls.append(kwargs)
            if len(calls) == 2:  # the faulted attempt only
                edges = set(sorted(edges, key=repr)[1:])
            return edges, result

        monkeypatch.setattr(scenarios, "run_boruvka_mst", one_edge_short_under_faults)
        record = self._stored_record("mst-under-faults", {"drop_prob": 0.05}, tmp_path)
        assert len(calls) == 3
        assert record.status == "ok"
        assert record.result["correct_first_try"] is False
        assert record.result["restarted"] is True
        assert record.result["correct_after_recovery"] is True

    def test_wrong_rebuilt_spanner_is_a_false_flag_in_an_ok_record(self, monkeypatch, tmp_path):
        from repro.experiments import scenarios

        real = scenarios.run_linear_size_spanner
        calls = []

        def one_edge_short_after_the_clean_run(graph, k, **kwargs):
            summary, result = real(graph, k, **kwargs)
            calls.append(kwargs)
            if len(calls) > 1 and summary is not None:  # the churned run and the rebuild
                summary = {**summary, "edges": summary["edges"][1:]}
            return summary, result

        monkeypatch.setattr(scenarios, "run_linear_size_spanner", one_edge_short_after_the_clean_run)
        record = self._stored_record("spanner-churn", {"churn_events": 1}, tmp_path)
        assert len(calls) == 3
        assert record.status == "ok"
        assert record.result["rebuilt"] is True
        assert record.result["correct_after_recovery"] is False

    def test_a_rebuild_that_repairs_the_spanner_keeps_the_flag_true(self, monkeypatch, tmp_path):
        from repro.experiments import scenarios

        real = scenarios.run_linear_size_spanner
        calls = []

        def one_edge_short_under_churn(graph, k, **kwargs):
            summary, result = real(graph, k, **kwargs)
            calls.append(kwargs)
            if len(calls) == 2 and summary is not None:  # the churned run only
                summary = {**summary, "edges": summary["edges"][1:]}
            return summary, result

        monkeypatch.setattr(scenarios, "run_linear_size_spanner", one_edge_short_under_churn)
        record = self._stored_record("spanner-churn", {"churn_events": 1}, tmp_path)
        assert len(calls) == 3
        assert record.status == "ok"
        assert record.result["rebuilt"] is True
        assert record.result["correct_after_recovery"] is True


class TestNetworkFaultApi:
    def test_no_plan_has_no_fault_stats(self):
        class Silent(NodeProgram):
            def on_round(self, node, round_no, inbox):
                pass

        result = CongestNetwork(nx.path_graph(3), Silent).run(max_rounds=3)
        assert result.fault_stats is None
