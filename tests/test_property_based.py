"""Property-based tests (hypothesis) on the core invariants."""

import math
import random
from dataclasses import replace

import networkx as nx
import pytest

np = pytest.importorskip("numpy")  # exercises numpy-backed core modules

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.algorithms.mst import edge_key, run_boruvka_mst
from repro.core.fooling import binary_entropy, greedy_gv_code, code_min_distance, hamming_distance
from repro.core.gadgets import gap_eq_to_ham, ipmod3_to_ham, ipmod3_value
from repro.core.gamma2 import gamma2_lower, gamma2_upper
from repro.graphs.generators import random_connected_graph
from repro.graphs.kruskal import minimum_spanning_forest
from repro.quantum.state import QuantumState
from repro.quantum.teleportation import teleport

bits = st.lists(st.integers(0, 1), min_size=1, max_size=7)
pair_bits = st.integers(1, 7).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
        st.lists(st.integers(0, 1), min_size=n, max_size=n),
    )
)


class TestGadgetProperties:
    @given(pair_bits)
    @settings(max_examples=60, deadline=None)
    def test_ipmod3_reduction_sound_and_complete(self, xy):
        x, y = xy
        instance = ipmod3_to_ham(x, y)
        assert instance.is_hamiltonian() == (ipmod3_value(x, y) == 0)

    @given(pair_bits)
    @settings(max_examples=60, deadline=None)
    def test_ipmod3_union_is_cycle_cover(self, xy):
        x, y = xy
        union = ipmod3_to_ham(x, y).union_graph()
        assert all(d == 2 for _, d in union.degree())
        assert union.number_of_nodes() == 12 * len(x)

    @given(pair_bits.filter(lambda xy: len(xy[0]) >= 2))
    @settings(max_examples=60, deadline=None)
    def test_gap_eq_cycles_count_mismatches(self, xy):
        x, y = xy
        instance = gap_eq_to_ham(x, y)
        delta = hamming_distance(x, y)
        assert instance.cycle_count() == (1 if delta == 0 else delta + 1)
        assert instance.is_hamiltonian() == (delta == 0)
        assert instance.union_graph().number_of_nodes() == 6 * len(x)


class TestQuantumProperties:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_teleportation_preserves_any_state(self, seed):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        state = QuantumState(1, vec / np.linalg.norm(vec))
        import random as _random

        received, _ = teleport(state.copy(), rng=_random.Random(seed))
        assert received.fidelity(state) > 1.0 - 1e-9

    @given(st.integers(1, 4), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_unitary_preserves_norm(self, n_qubits, seed):
        rng = np.random.default_rng(seed)
        vec = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(1 << n_qubits)
        state = QuantumState(n_qubits, vec / np.linalg.norm(vec))
        from repro.quantum.gates import HADAMARD

        state.apply(HADAMARD, [int(rng.integers(0, n_qubits))])
        np.testing.assert_allclose(np.linalg.norm(state.vector), 1.0, atol=1e-9)


class TestGamma2Properties:
    @given(st.integers(0, 500), st.integers(2, 5), st.integers(2, 5))
    @settings(max_examples=25, deadline=None)
    def test_upper_dominates_lower(self, seed, m, n):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, n))
        assert gamma2_upper(a) >= gamma2_lower(a) - 1e-7

    @given(st.integers(0, 500), st.integers(2, 4))
    @settings(max_examples=15, deadline=None)
    def test_scaling_homogeneity(self, seed, m):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, m))
        np.testing.assert_allclose(gamma2_lower(3.0 * a), 3.0 * gamma2_lower(a), rtol=1e-9)


class TestCodesProperties:
    # From n = 10 on, d is drawn from 4..5: the full scan at n = 12, d = 2
    # keeps 2,048 words and takes seconds, at d = 4 it keeps 128.
    @given(st.integers(4, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(2 if n <= 9 else 4, 5))))
    @example((10, 5))  # the code lower-bound-machinery builds
    @settings(max_examples=20, deadline=None)
    def test_greedy_code_distance_invariant(self, n_d):
        n, d = n_d
        code = greedy_gv_code(n, d)
        if len(code) >= 2:
            assert code_min_distance(code) >= d

    @given(st.floats(0.01, 0.99))
    def test_entropy_bounds(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0 + 1e-12

    @given(pair_bits)
    def test_hamming_symmetry(self, xy):
        x, y = xy
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert hamming_distance(x, x) == 0


class TestFaultDeterminismProperties:
    """The fault layer's determinism contract: every decision is a pure
    function of ``(plan seed, round, edge, msg_index)``, so identical seeds
    give identical adversaries on any engine or claim batch -- and
    different seeds give different ones."""

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_decisions_pure_in_the_seed(self, seed, other_seed):
        from repro.congest.faults import FaultPlan

        plan = FaultPlan(seed=seed, drop_prob=0.5)
        twin = FaultPlan(seed=seed, drop_prob=0.5)
        grid = [(r, u, v, i)
                for r in (1, 7)
                for (u, v) in ((0, 1), (1, 0), ("a", "b"))
                for i in (0, 3)]
        draws = [plan.decision(*args) for args in grid]
        assert draws == [twin.decision(*args) for args in grid]
        assert all(0.0 <= d < 1.0 for d in draws)
        if other_seed != seed:
            other = replace(plan, seed=other_seed)
            assert draws != [other.decision(*args) for args in grid]

    @given(st.integers(0, 2_000))
    @settings(max_examples=25, deadline=None)
    def test_generated_schedules_are_pure_and_valid(self, seed):
        from repro.congest.faults import FaultPlan
        from repro.graphs.generators import random_connected_graph

        graph = random_connected_graph(14, extra_edge_prob=0.2, seed=3)
        kwargs = dict(
            seed=seed, drop_prob=0.1, n_crashes=2, crash_length=4,
            n_edge_deletes=2, n_edge_inserts=1, window=(1, 25),
        )
        plan = FaultPlan.generate(graph, **kwargs)
        assert plan == FaultPlan.generate(graph, **kwargs)
        for span in plan.crashes:
            assert 1 <= span.start <= 25 and span.stop == span.start + 4
        assert nx.is_connected(plan.final_graph(graph))

    @given(st.integers(0, 500))
    @settings(max_examples=6, deadline=None)
    def test_fault_seed_invariant_under_engine(self, fault_seed):
        from repro.algorithms.paths import run_refreshing_bellman_ford
        from repro.congest.faults import FaultPlan
        from repro.graphs.generators import random_connected_graph
        from tests.reference_transport import ReferenceDenseEngine

        graph = random_connected_graph(12, extra_edge_prob=0.2, seed=5)
        source = min(graph.nodes())
        plan = FaultPlan.generate(
            graph, seed=fault_seed, drop_prob=0.15, n_crashes=1, crash_length=4,
            window=(1, 15), protect=[source],
        )
        runs = {}
        for name, engine in (
            ("reference", ReferenceDenseEngine()),
            ("event", "event"),
        ):
            dists, result = run_refreshing_bellman_ford(
                graph, source, weighted=False, max_rounds=30,
                engine=engine, faults=plan,
            )
            runs[name] = (dists, result)
        dists_ref, ref = runs["reference"]
        dists, result = runs["event"]
        assert dists == dists_ref
        assert result.fault_stats == ref.fault_stats
        assert (result.rounds, result.total_messages, result.total_bits) == (
            ref.rounds, ref.total_messages, ref.total_bits,
        )
        assert result.per_round_bits == ref.per_round_bits

    @given(st.integers(0, 500))
    @settings(max_examples=8, deadline=None)
    def test_different_fault_seeds_differ(self, fault_seed):
        from repro.congest.faults import FaultPlan

        plan = FaultPlan(seed=fault_seed, drop_prob=0.5)
        other = replace(plan, seed=fault_seed + 1)
        grid = [(r, 0, 1, i) for r in range(1, 11) for i in range(10)]
        assert [plan.drop(*g) for g in grid] != [other.drop(*g) for g in grid]


class TestBoruvkaHaltProperties:
    """Borůvka's halt: each flood window spans ``n + 1`` hops at
    ``ceil(bits / B)`` rounds per hop, so a node left without a candidate
    knows that its fragment spans the component.  The run then ends in the
    choose round of the iteration after its last merge, with the MST and
    one label at every node."""

    @staticmethod
    def _central_iterations(graph):
        """Borůvka iterations that merge ``graph``, run centrally: every
        fragment joins along its lightest outgoing edge in ``edge_key``
        order."""
        parent = {v: v for v in graph}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        iterations = 0
        while True:
            lightest = {}
            for u, v, w in graph.edges(data="weight"):
                fu, fv = find(u), find(v)
                if fu != fv:
                    key = edge_key(w, u, v)
                    for f in (fu, fv):
                        if f not in lightest or key < lightest[f][0]:
                            lightest[f] = (key, u, v)
            if not lightest:
                return iterations
            iterations += 1
            for _, u, v in lightest.values():
                fu, fv = find(u), find(v)
                if fu != fv:
                    parent[fu] = fv

    @staticmethod
    def _halt_round(n, bandwidth, iterations):
        """The choose round of iteration ``iterations + 1``: an announcement
        of the rounds one label (an id plus 8 bits) needs per link, then
        windows of ``n + 1`` hops for the candidate (a weight and three ids
        plus 16 bits) and the label."""
        id_bits = max(8, math.ceil(math.log2(max(2, n))) + 1)
        announce = math.ceil((8 + id_bits) / bandwidth)
        candidate_window = (n + 1) * math.ceil((16 + 64 + 3 * id_bits) / bandwidth)
        label_window = (n + 1) * announce
        length = announce + candidate_window + label_window + 3
        return iterations * length + announce + candidate_window + 1

    def _check(self, graph, bandwidth):
        edges, result = run_boruvka_mst(graph, bandwidth=bandwidth)
        in_key_order = sorted(
            ((w, u, v) for u, v, w in graph.edges(data="weight")), key=lambda e: edge_key(*e)
        )
        _, tree = minimum_spanning_forest(in_key_order)
        assert edges == {frozenset(e) for e in tree}
        assert len({repr(out["label"]) for out in result.outputs.values()}) == 1
        iterations = self._central_iterations(graph)
        assert result.rounds == self._halt_round(len(graph), bandwidth, iterations)

    @given(
        st.integers(1, 30),
        st.sampled_from([0.0, 0.1, 0.3]),
        st.integers(1, 8),
        st.sampled_from([8, 32, 64, 128]),
        st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_kruskal_tree_one_label_and_predicted_halt_round(
        self, n, density, max_weight, bandwidth, seed
    ):
        # Few distinct weights, so the edge-key tie-break decides often.
        graph = random_connected_graph(n, extra_edge_prob=density, seed=seed)
        rng = random.Random(seed)
        for u, v in graph.edges():
            graph.edges[u, v]["weight"] = float(rng.randint(1, max_weight))
        self._check(graph, bandwidth)

    def test_long_path_fragment_at_b64(self):
        # Iteration 1 forms the fragments {0, 1} and the path 2 - ... - 15,
        # whose weights rise along it.  Iteration 2 merges them over the
        # edge 15 - 0, whose 104-bit candidate crosses the path's 13 hops at
        # 2 rounds per hop at B = 64.  A window of n + 1 = 17 rounds reaches
        # only 9 of them: nodes 2-5 halt with the path's label 10, while
        # every other node adopts the label 0 of the other fragment.
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=1.0)
        path = range(2, 16)
        for i, (u, v) in enumerate(zip(path, path[1:])):
            graph.add_edge(u, v, weight=10.0 + i)
        graph.add_edge(15, 0, weight=100.0)
        self._check(graph, 64)
