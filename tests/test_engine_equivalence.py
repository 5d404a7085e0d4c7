"""Cross-engine equivalence: Dense and Event must agree with the reference.

Every registered algorithm family runs on each engine over seeded random
graphs; the full ``RunResult`` must match the reference field for field
(rounds, bits, messages, outputs, halted -- and the per-round bit trace,
which pins down the transport's O(1) skip accounting exactly).  The
reference is the dense engine over the per-link reference transport
(``tests/reference_transport.py``), so every engine under test -- dense
included -- is checked against a second transport as well as a second
scheduler.  This is the contract that makes the event engine a drop-in
default: any idleness hint that skips a round the dense engine needed, or
any transport shortcut (the one-round block path, the lazy completion
clock) that moves a bit differently would show up here as a divergence.

The event scheduler also runs over the reference transport
(``reference-event``), which separates the two: a scheduler that skips a
round it needed fails there too (the reference ``skip_rounds`` raises on a
skip that crosses a delivery), while a ``LinkTransport`` shortcut that
moves a bit differently fails only under ``event``.
"""

import heapq
from types import SimpleNamespace

import networkx as nx
import pytest

from repro.algorithms import elkin
from repro.algorithms.centralised import run_centralised
from repro.algorithms.elkin import run_elkin_approx_mst
from repro.algorithms.framework import (
    BfsTreePhase,
    BroadcastPhase,
    ConvergecastPhase,
    LeaderElectionPhase,
    LocalComputationPhase,
    PhasedProgram,
    PipelinedDowncastPhase,
    PipelinedUpcastPhase,
)
from repro.algorithms.mst import run_boruvka_mst, run_gkp_mst, tree_weight
from repro.algorithms.paths import run_refreshing_bellman_ford
from repro.algorithms.spanning_structures import run_linear_size_spanner
from repro.algorithms.verification import VERIFIERS, build_inputs, verification_program_factory
from repro.congest import engine as engine_module
from repro.congest.engine import EventEngine, get_engine
from repro.congest.network import CongestNetwork
from repro.congest.node import Node, NodeProgram
from repro.experiments.scenarios import _fig3_graph
from repro.graphs.generators import random_connected_graph
from tests.reference_flood import ReferenceLabelFloodProgram
from tests.reference_transport import ReferenceDenseEngine, ReferenceEventEngine

#: The engines checked against the reference (``ReferenceDenseEngine``).
ENGINES = ("dense", "event", "reference-event")


def make_engine(name):
    """An engine-under-test instance (or name) for one run.

    ``reference`` is the dense engine over the reference transport and
    ``reference-event`` the event engine over it.
    """
    if name == "reference":
        return ReferenceDenseEngine()
    if name == "reference-event":
        return ReferenceEventEngine()
    return name


def assert_results_match(ref, other):
    """Field-for-field RunResult equality (outputs compared by repr)."""
    assert other.rounds == ref.rounds
    assert other.total_messages == ref.total_messages
    assert other.total_bits == ref.total_bits
    assert other.halted == ref.halted
    assert other.max_edge_bits_per_round == ref.max_edge_bits_per_round
    assert other.per_round_bits == ref.per_round_bits
    assert set(other.outputs) == set(ref.outputs)
    for nid in ref.outputs:
        assert repr(other.outputs[nid]) == repr(ref.outputs[nid]), nid


def _weighted(n, seed, extra_edge_prob=0.1):
    graph = random_connected_graph(n, extra_edge_prob=extra_edge_prob, seed=seed)
    import random as _random

    rng = _random.Random(seed + 1)
    weights = rng.sample(range(1, 10 * graph.number_of_edges() + 1), graph.number_of_edges())
    for (u, v), w in zip(graph.edges(), weights):
        graph.edges[u, v]["weight"] = float(w)
    return graph


class TestMstEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_gkp_mst(self, seed, engine):
        graph = _weighted(26, seed)
        edges_ref, ref = run_gkp_mst(graph, bandwidth=128, engine=ReferenceDenseEngine())
        edges_other, other = run_gkp_mst(
            graph, bandwidth=128, engine=make_engine(engine)
        )
        assert_results_match(ref, other)
        assert edges_other == edges_ref
        reference = sum(
            d["weight"] for _, _, d in nx.minimum_spanning_tree(graph).edges(data=True)
        )
        assert abs(tree_weight(graph, edges_other) - reference) < 1e-9

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("bandwidth", [128, 64])
    def test_boruvka_mst(self, bandwidth, engine):
        # At B = 64 a candidate takes two rounds per hop, so the halt round
        # comes from the longer candidate window.
        graph = _weighted(16, 3)
        edges_ref, ref = run_boruvka_mst(
            graph, bandwidth=bandwidth, engine=ReferenceDenseEngine()
        )
        edges_other, other = run_boruvka_mst(
            graph, bandwidth=bandwidth, engine=make_engine(engine)
        )
        assert_results_match(ref, other)
        assert edges_other == edges_ref

    @pytest.mark.parametrize("engine", ENGINES)
    def test_elkin_staged_flood(self, engine):
        graph = _weighted(24, 11)
        weight_ref, ref = run_elkin_approx_mst(graph, alpha=2.0, engine=ReferenceDenseEngine())
        weight_other, other = run_elkin_approx_mst(
            graph, alpha=2.0, engine=make_engine(engine)
        )
        assert_results_match(ref, other)
        assert weight_other == weight_ref


class TestVerificationEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "problem", ["spanning tree", "connectivity", "bipartiteness", "s-t connectivity", "cut"]
    )
    def test_verifiers(self, problem, engine):
        graph = random_connected_graph(18, extra_edge_prob=0.15, seed=5)
        tree = nx.bfs_tree(graph, source=min(graph.nodes())).to_undirected()
        m_edges = list(tree.edges())
        nodes = sorted(graph.nodes())

        def run(engine_obj):
            # What run_verification composes, on the engine under test.
            network = CongestNetwork(
                graph,
                verification_program_factory(*VERIFIERS[problem]),
                bandwidth=64,
                inputs=build_inputs(graph, m_edges, s=nodes[0], t=nodes[-1]),
                engine=engine_obj,
            )
            return network.run()

        ref = run(ReferenceDenseEngine())
        other = run(make_engine(engine))
        assert_results_match(ref, other)
        assert other.unanimous_output() == ref.unanimous_output()


class TestHorizonEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("seed", [2, 9])
    def test_bellman_ford(self, seed, engine):
        graph = _weighted(25, seed)
        source = min(graph.nodes())
        dist_ref, ref = run_refreshing_bellman_ford(
            graph, source, max_rounds=60, engine=ReferenceDenseEngine()
        )
        dist_other, other = run_refreshing_bellman_ford(
            graph, source, max_rounds=60, engine=make_engine(engine)
        )
        assert_results_match(ref, other)
        assert dist_other == dist_ref
        expected = nx.single_source_dijkstra_path_length(graph, source)
        assert dist_other == pytest.approx(expected)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_max_rounds_without_halting(self, engine):
        # Nodes never halt and traffic dies out: the active-set engines must
        # idle the clock out to max_rounds exactly like the dense engine.
        class OneShot(NodeProgram):
            def on_start(self, node):
                if node.id == 0:
                    node.broadcast(("x",))

            def on_round(self, node, round_no, inbox):
                pass

            def next_active_round(self, node, after_round):
                return None  # reactive only

        graph = nx.path_graph(3)
        ref = CongestNetwork(graph, OneShot, bandwidth=8, engine=ReferenceDenseEngine()).run(
            max_rounds=300
        )
        other = CongestNetwork(graph, OneShot, bandwidth=8, engine=make_engine(engine)).run(
            max_rounds=300
        )
        assert_results_match(ref, other)
        assert other.rounds == 300
        assert not other.halted

    @pytest.mark.parametrize("engine", ENGINES)
    def test_silent_program_idles_to_max_rounds(self, engine):
        # No node ever sends, halts or hints: every engine runs the clock out
        # to max_rounds without traffic, exactly like the dense reference.
        class Silent(NodeProgram):
            def on_round(self, node, round_no, inbox):
                pass

        graph = nx.path_graph(4)
        ref = CongestNetwork(graph, Silent, bandwidth=8, engine=ReferenceDenseEngine()).run(
            max_rounds=500
        )
        other = CongestNetwork(graph, Silent, bandwidth=8, engine=make_engine(engine)).run(
            max_rounds=500
        )
        assert_results_match(ref, other)
        assert other.rounds == 500
        assert not other.halted
        assert other.total_messages == 0


class TestFrameworkEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_leader_bfs_convergecast_broadcast(self, engine):
        graph = random_connected_graph(20, extra_edge_prob=0.1, seed=4)
        d = nx.diameter(graph)
        inputs = {node: {"diameter_bound": d} for node in graph.nodes()}

        def phases():
            return [
                LeaderElectionPhase(),
                BfsTreePhase(),
                ConvergecastPhase("total", lambda node, shared: 1, lambda a, b: a + b),
                LocalComputationPhase(
                    lambda node, shared: shared.update(
                        total=shared["total"] if shared["parent"] is None else None
                    )
                ),
                BroadcastPhase("total"),
                LocalComputationPhase(lambda node, shared: shared.update(output=shared["total"])),
            ]

        results = {}
        for name, spec in (("reference", ReferenceDenseEngine()), (engine, make_engine(engine))):
            network = CongestNetwork(
                graph,
                lambda: PhasedProgram(phases()),
                bandwidth=64,
                inputs=inputs,
                engine=spec,
            )
            results[name] = network.run()
        assert_results_match(results["reference"], results[engine])
        assert results[engine].unanimous_output() == 20

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pipelined_up_and_downcast(self, engine):
        graph = random_connected_graph(12, extra_edge_prob=0.1, seed=8)
        d = nx.diameter(graph)
        inputs = {node: {"diameter_bound": d} for node in graph.nodes()}

        def stage(node, shared):
            shared["items"] = [int(str(node.id))]
            shared["cap"] = 14

        def restage(node, shared):
            shared["down"] = shared["collected"] if shared["parent"] is None else []

        def phases():
            return [
                LeaderElectionPhase(),
                BfsTreePhase(),
                LocalComputationPhase(stage),
                PipelinedUpcastPhase("items", "collected", "cap"),
                LocalComputationPhase(restage),
                PipelinedDowncastPhase("down", "cap"),
                LocalComputationPhase(
                    lambda node, shared: shared.update(output=sorted(shared["down"]))
                ),
            ]

        results = {}
        for name, spec in (("reference", ReferenceDenseEngine()), (engine, make_engine(engine))):
            network = CongestNetwork(
                graph,
                lambda: PhasedProgram(phases()),
                bandwidth=128,
                inputs=inputs,
                engine=spec,
            )
            results[name] = network.run()
        assert_results_match(results["reference"], results[engine])
        assert results[engine].unanimous_output() == sorted(range(12))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_centralised_skeleton(self, engine):
        graph = _weighted(14, 6)
        answer_ref, ref = run_centralised(
            graph, lambda g: g.number_of_edges(), bandwidth=128, engine=ReferenceDenseEngine()
        )
        answer_other, other = run_centralised(
            graph, lambda g: g.number_of_edges(), bandwidth=128, engine=make_engine(engine)
        )
        assert_results_match(ref, other)
        assert answer_other == graph.number_of_edges()


class TestDefaultHintsEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_unhinted_program_runs_identically(self, engine):
        # A program with no idleness hints: the active-set engine
        # degenerates to stepping every node every round and must match
        # exactly.
        class Chatter(NodeProgram):
            def on_start(self, node):
                node.broadcast(("r", 0), bits=8)

            def on_round(self, node, round_no, inbox):
                if round_no >= 6:
                    node.halt(len(inbox))
                    return
                node.broadcast(("r", round_no), bits=8)

        graph = random_connected_graph(10, extra_edge_prob=0.2, seed=12)
        ref = CongestNetwork(graph, Chatter, bandwidth=8, engine=ReferenceDenseEngine()).run()
        other = CongestNetwork(graph, Chatter, bandwidth=8, engine=make_engine(engine)).run()
        assert_results_match(ref, other)


class TestMessageLogEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_opt_in_message_log_is_byte_identical(self, engine):
        """record_messages=True: the (round, sender, receiver, bits) log --
        an *ordered* artifact -- must come out identical, which pins every
        engine's node-id step order exactly."""

        class Chatter(NodeProgram):
            def on_start(self, node):
                node.broadcast(("hello", repr(node.id)), bits=16)

            def on_round(self, node, round_no, inbox):
                if round_no >= 5:
                    node.halt(len(inbox))
                    return
                for msg in inbox:
                    node.send(msg.sender, ("echo", round_no), bits=8)

        graph = random_connected_graph(14, extra_edge_prob=0.2, seed=21)
        logs = {}
        results = {}
        for name, spec in (("reference", ReferenceDenseEngine()), (engine, make_engine(engine))):
            network = CongestNetwork(
                graph, Chatter, bandwidth=16, engine=spec, record_messages=True
            )
            results[name] = network.run()
            logs[name] = list(network.message_log)
        assert_results_match(results["reference"], results[engine])
        assert logs[engine] == logs["reference"]
        assert len(logs["reference"]) == results["reference"].total_messages


class TestErrorPaths:
    def test_mid_round_error_metrics_match_serial(self):
        """A send to a non-neighbour raises mid-round: every engine must
        raise the same error AND leave the same transport totals as the
        reference -- sends staged by nodes before the offender count."""

        class OneStray(NodeProgram):
            def on_start(self, node):
                node.broadcast(("warmup",), bits=4)

            def on_round(self, node, round_no, inbox):
                if node.id == 5:
                    node.send(0, ("stray",), bits=4)  # 0 is not next to 5
                else:
                    node.broadcast(("ok", round_no), bits=4)

        graph = nx.path_graph(8)
        totals = {}
        for name, spec in (
            ("dense", "dense"),
            ("event", "event"),
            ("reference", ReferenceDenseEngine()),
            ("reference-event", ReferenceEventEngine()),
        ):
            network = CongestNetwork(graph, OneStray, bandwidth=8, engine=spec)
            with pytest.raises(ValueError, match="0 is not a neighbor of 5"):
                network.run(max_rounds=10)
            totals[name] = (network.transport.total_messages, network.transport.total_bits)
        assert totals["event"] == totals["dense"]
        assert totals["reference"] == totals["dense"]
        assert totals["reference-event"] == totals["dense"]

    def test_engine_validation(self):
        with pytest.raises(ValueError, match="unknown engine"):
            get_engine("bogus")


class TestIdlenessHints:
    def test_next_active_round_default_and_overrides(self):
        graph = nx.path_graph(3)
        network = CongestNetwork(graph, NodeProgram, bandwidth=8)
        node = network.nodes[0]

        # Default hint: every round is active.
        default = NodeProgram()
        assert default.next_active_round(node, 5) == 6

        # A purely reactive program wants no round spontaneously.
        class Reactive(NodeProgram):
            def next_active_round(self, node, after_round):
                return None

        assert Reactive().next_active_round(node, 0) is None

        # A scheduled program wants exactly its scheduled rounds.
        class EveryFifth(NodeProgram):
            def next_active_round(self, node, after_round):
                return after_round + (5 - after_round % 5)

        program = EveryFifth()
        assert [program.next_active_round(node, r) for r in (0, 4, 5, 9, 10)] == [5, 5, 10, 10, 15]


class TestFaultEquivalence:
    """The fault layer must preserve the cross-engine contract twice over:
    an *empty* plan is a transparent wrapper (byte-identical to no plan at
    all, message log included), and a *nontrivial* plan produces the same
    faulted run on every engine, because each decision hashes
    ``(seed, round, edge, msg_index)`` and nothing engine-shaped."""

    @staticmethod
    def _chatter():
        class Chatter(NodeProgram):
            def on_start(self, node):
                node.broadcast(("hello", repr(node.id)), bits=16)

            def on_round(self, node, round_no, inbox):
                if round_no >= 8:
                    node.halt(len(inbox))
                    return
                for msg in inbox:
                    node.send(msg.sender, ("echo", round_no), bits=8)

        return Chatter

    @pytest.mark.parametrize("engine", ("reference",) + ENGINES)
    def test_empty_plan_is_byte_identical_to_no_plan(self, engine):
        from repro.congest.faults import FaultPlan

        graph = random_connected_graph(14, extra_edge_prob=0.2, seed=21)
        runs = {}
        for faults in (None, FaultPlan()):
            network = CongestNetwork(
                graph,
                self._chatter(),
                bandwidth=16,
                engine=make_engine(engine),
                record_messages=True,
                faults=faults,
            )
            runs[faults is None] = (network.run(), list(network.message_log))
        bare, bare_log = runs[True]
        wrapped, wrapped_log = runs[False]
        assert_results_match(bare, wrapped)
        assert wrapped_log == bare_log
        assert bare.fault_stats is None and wrapped.fault_stats is None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_nontrivial_plan_is_byte_identical_across_engines(self, engine):
        from repro.algorithms.paths import run_refreshing_bellman_ford
        from repro.congest.faults import FaultPlan

        graph = _weighted(20, 17)
        source = min(graph.nodes())
        plan = FaultPlan.generate(
            graph,
            seed=6,
            drop_prob=0.1,
            n_crashes=2,
            crash_length=5,
            n_edge_deletes=1,
            n_edge_inserts=1,
            window=(1, 30),
            protect=[source],
        )
        dists_ref, ref = run_refreshing_bellman_ford(
            graph, source, max_rounds=50, engine=ReferenceDenseEngine(), faults=plan
        )
        dists_other, other = run_refreshing_bellman_ford(
            graph, source, max_rounds=50, engine=make_engine(engine), faults=plan
        )
        assert_results_match(ref, other)
        assert dists_other == dists_ref
        assert other.fault_stats == ref.fault_stats
        assert other.fault_stats is not None and other.fault_stats["drops"] > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_faulted_message_log_is_byte_identical(self, engine):
        """record_messages under a plan: the offered-load log (drops
        included) is an ordered artifact and must agree with the
        reference exactly."""
        from repro.congest.faults import FaultPlan

        graph = random_connected_graph(12, extra_edge_prob=0.2, seed=30)
        plan = FaultPlan(seed=8, drop_prob=0.2, crashes=((5, 3, 7),))
        logs = {}
        results = {}
        for name, spec in (("reference", ReferenceDenseEngine()), (engine, make_engine(engine))):
            network = CongestNetwork(
                graph,
                self._chatter(),
                bandwidth=16,
                engine=spec,
                record_messages=True,
                faults=plan,
            )
            results[name] = network.run()
            logs[name] = list(network.message_log)
        assert_results_match(results["reference"], results[engine])
        assert logs[engine] == logs["reference"]
        assert len(logs["reference"]) == results["reference"].total_messages

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fault_trace_events_are_identical(self, engine):
        """The fault seam traces through the ambient tracer the network
        was built under, whatever transport it wraps: drops, crashes and a
        link deleted mid-run must produce the reference's fault
        events."""
        from repro.congest.faults import FaultPlan
        from repro.obs.trace import CollectingTracer, use_tracer

        graph = random_connected_graph(12, extra_edge_prob=0.2, seed=30)
        u, v = next(iter(graph.edges()))
        plan = FaultPlan(
            seed=8,
            drop_prob=0.2,
            crashes=((5, 3, 7),),
            topology_events=((2, "delete", u, v), (6, "insert", u, v)),
        )
        events = {}
        for name, spec in (("reference", ReferenceDenseEngine()), (engine, make_engine(engine))):
            tracer = CollectingTracer()
            with use_tracer(tracer):
                CongestNetwork(
                    graph, self._chatter(), bandwidth=16, engine=spec, faults=plan
                ).run()
            events[name] = [
                e for e in tracer.by_kind("event") if e["name"].startswith("fault_")
            ]
        assert {e["name"] for e in events["reference"]} >= {
            "fault_crash_span",
            "fault_crash_lost",
            "fault_flush",
            "fault_link_lost",
        }
        assert events[engine] == events["reference"]


class TestEventEngineSkips:
    @pytest.mark.parametrize("engine", ("event", "reference-event"))
    def test_quiet_rounds_are_not_stepped(self, engine):
        # The Elkin staged flood is mostly quiet by design: the active-set
        # engine must step far fewer node-rounds than the dense n x rounds
        # grid, over either transport.
        graph = _weighted(24, 11)
        from repro.algorithms.elkin import StagedLabelFloodProgram, quantise_weights

        classes, n_classes = quantise_weights(graph, 2.0)
        inputs = {
            node: {
                "edge_classes": {
                    repr(neighbor): classes[frozenset((node, neighbor))]
                    for neighbor in graph.neighbors(node)
                },
                "n_classes": n_classes,
                "tail": graph.number_of_nodes(),
            }
            for node in graph.nodes()
        }
        network = CongestNetwork(
            graph,
            StagedLabelFloodProgram,
            bandwidth=64,
            inputs=inputs,
            engine=make_engine(engine),
        )
        result = network.run(max_rounds=200_000)
        dense_grid = result.rounds * graph.number_of_nodes()
        assert network.engine.node_steps < dense_grid / 3

    @pytest.mark.parametrize(
        "run",
        [
            pytest.param(lambda g, e: run_gkp_mst(g, bandwidth=128, engine=e), id="gkp"),
            pytest.param(lambda g, e: run_boruvka_mst(g, bandwidth=128, engine=e), id="boruvka"),
            pytest.param(lambda g, e: run_elkin_approx_mst(g, alpha=2.0, engine=e), id="elkin"),
            pytest.param(
                lambda g, e: run_linear_size_spanner(g, stretch_k=3, engine=e), id="spanner"
            ),
        ],
    )
    def test_unchanged_wake_rounds_push_nothing(self, monkeypatch, run):
        # A step that leaves a node's wake round where it was keeps the
        # pending heap entry instead of pushing a duplicate.  Pushing after
        # every step gives about one push per node step.
        pushes = []

        def push(heap, entry):
            pushes.append(entry)
            heapq.heappush(heap, entry)

        monkeypatch.setattr(
            engine_module, "heapq", SimpleNamespace(heappush=push, heappop=heapq.heappop)
        )
        graph = _weighted(30, 4)
        engine = EventEngine()
        run(graph, engine)
        assert engine.node_steps > 0
        assert len(pushes) <= 2 / 3 * engine.node_steps


class TestFloodAgainstReference:
    """Elkin's flood against the per-neighbour program it replaced
    (``tests/reference_flood.py``), on the Fig. 3 instances."""

    @pytest.mark.parametrize("engine", ("dense", "event"))
    @pytest.mark.parametrize("aspect_ratio", [2.0, 32.0, 1024.0, 8192.0])
    def test_same_run_result(self, monkeypatch, aspect_ratio, engine):
        graph = _fig3_graph(1, 60, aspect_ratio, 0.08, 17)
        weight, result = run_elkin_approx_mst(graph, alpha=2.0, bandwidth=128, engine=engine)
        monkeypatch.setattr(elkin, "StagedLabelFloodProgram", ReferenceLabelFloodProgram)
        ref_weight, reference = run_elkin_approx_mst(
            graph, alpha=2.0, bandwidth=128, engine=engine
        )
        assert result == reference
        assert weight == ref_weight
        # The outputs carry every node's adoption log; some label must move
        # for the comparison to cover the improvement path.
        assert any(len(log) > 1 for _, log in result.outputs.values())
