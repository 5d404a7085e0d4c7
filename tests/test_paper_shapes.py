"""The paper's shape claims, checked on fixed instances.

A shape relates several runs: who wins at each end of a sweep, a curve
that grows or stays flat, a budget held at every point, a scaling factor
kept over an ``n`` sweep.  Sweeps go through the experiment harness
(``run_sweep`` over a scenario's default or named grid, no store); the
other checks call the runners directly.  Instances, seeds and bounds are
fixed, so a failure points at the code, not at an unlucky draw.
"""

import math
import random

import networkx as nx

from repro.algorithms.disjointness import run_classical_disjointness, run_quantum_disjointness
from repro.algorithms.elkin import run_elkin_approx_mst
from repro.algorithms.mst import run_boruvka_mst, run_gkp_mst, tree_weight
from repro.algorithms.verification import run_verification
from repro.congest.topology import dumbbell_graph
from repro.core.bounds import optimization_lower_bound, verification_lower_bound
from repro.experiments import expand_grid, get_scenario, run_sweep
from repro.graphs.generators import random_connected_graph, random_weighted_graph


def _sweep(name, grid=None):
    """The result dicts of a sweep of scenario ``name`` over ``grid`` (its
    default grid when None), in grid order; every point must succeed."""
    report = run_sweep(expand_grid(get_scenario(name), grid), store=None)
    assert report.ok, [r.error for r in report.records if r.status != "ok"]
    return [r.result for r in report.records]


def _uniform_weights(graph, seed, high):
    """``graph`` with seeded weights drawn uniformly from ``[1, high]``."""
    rng = random.Random(seed)
    for u, v in graph.edges():
        graph.edges[u, v]["weight"] = rng.uniform(1.0, high)
    return graph


# -- Fig. 3: the MST time / aspect-ratio trade-off ----------------------------


def test_fig3_measured_rounds():
    rows = _sweep("fig3-mst-tradeoff")
    elkin = [r["elkin_rounds"] for r in rows]
    gkp = [r["gkp_rounds"] for r in rows]
    # Elkin-mode grows with W and the exact algorithm does not; Elkin wins
    # at the smallest W and GKP at the largest, so the crossover lies
    # inside the grid.
    assert elkin[-1] > elkin[0]
    assert max(gkp) - min(gkp) < 0.4 * max(gkp)
    assert elkin[0] < gkp[0]
    assert elkin[-1] > gkp[-1]


# -- Example 1.1: quantum communication helps Disjointness --------------------


def test_example_1_1():
    graph = dumbbell_graph(3, 4)
    u, v = ("L", 1), ("R", 1)
    classical, quantum = [], []
    for b in (16, 64, 256):
        rng = random.Random(b)
        x = tuple(rng.randrange(2) for _ in range(b))
        y = tuple(0 if a else rng.randrange(2) for a in x)  # disjoint instance
        verdict, run = run_classical_disjointness(graph, u, v, x, y, bandwidth=8)
        assert verdict == 1
        classical.append(run.rounds)
        _, run, _ = run_quantum_disjointness(graph, u, v, x, y, bandwidth=8, seed=b)
        quantum.append(run.rounds)
    # Classical rounds grow linearly in b (pipelining b bits over B = 8),
    # quantum rounds ~ sqrt(b): growing b 16x grows them less than 10x.
    assert classical[-1] > 4 * classical[0]
    assert quantum[-1] < 10 * quantum[0]
    # At b = 256 the quantum protocol wins outright.
    assert quantum[-1] < classical[-1]


def test_quantum_error_rate():
    """Grover's two-sided error stays small over random instances."""
    graph = dumbbell_graph(2, 3)
    u, v = ("L", 1), ("R", 1)
    rng = random.Random(0)
    trials, errors = 12, 0
    for t in range(trials):
        x = tuple(rng.randrange(2) for _ in range(32))
        y = tuple(rng.randrange(2) for _ in range(32))
        expected = int(all(a * c == 0 for a, c in zip(x, y)))
        verdict, _, _ = run_quantum_disjointness(graph, u, v, x, y, seed=t)
        errors += verdict != expected
    assert errors / trials <= 0.2


# -- Ablations ----------------------------------------------------------------


def test_gkp_cap_ablation():
    rows = _sweep("gkp-cap-ablation")
    assert all(r["exact"] for r in rows)
    # At n = 100 the rounds stay within a narrow band across caps: the
    # design is robust to the cap.
    rounds = [r["rounds"] for r in rows]
    assert max(rounds) <= 1.6 * min(rounds)


def test_gamma2_dual_restart_ablation():
    # A fixed solver_seed isolates the restart budget.
    rows = _sweep("chsh-gamma2", {"solver_seed": 7})
    # Every restart budget reaches Tsirelson's bias 1/sqrt(2) on CHSH, which
    # beats the classical bias.
    assert all(r["abs_error"] < 1e-9 for r in rows)
    assert all(r["bias"] > r["classical_bias"] for r in rows)


def test_disjointness_bandwidth_ablation():
    # instance_seed pins the (x, y) instance so only the bandwidth varies.
    grid = {
        "b": [128],
        "bandwidth": [4, 8, 16],
        "clique_size": [2],
        "path_length": [4],
        "instance_seed": [5],
    }
    rows = _sweep("example11-disjointness", grid)
    # The quantum protocol wins at small B, where classical pays b/B.
    assert rows[0]["quantum_rounds"] < rows[0]["classical_rounds"]


# -- Section 7 gadget reductions (Figs. 4-7, 12) ------------------------------


def test_reduction_scale():
    rows = _sweep("gadget-reductions")
    assert all(r["ipmod3_sound"] and r["gap_eq_sound"] for r in rows)
    # Linear blowups: 12n and 6n nodes.
    assert all(r["ipmod3_nodes"] == 12 * r["n"] for r in rows)
    assert all(r["gap_eq_nodes"] == 6 * r["n"] for r in rows)


def test_far_instances_have_many_cycles():
    """Inputs at distance beta n shatter into Omega(n) cycles."""
    (row,) = _sweep("gadget-reductions", {"n": 256, "beta": 0.125, "trials": 5})
    assert row["far_cycles_linear"]
    assert row["far_instance_cycles"] >= 0.125 * 256


# -- Thm. 3.8 / Cor. 3.9: optimization upper bounds vs the lower bound --------


def test_optimization_suite():
    n, bandwidth = 36, 128
    graph = random_weighted_graph(n, aspect_ratio=50.0, extra_edge_prob=0.15, seed=7)
    exact = sum(d["weight"] for _, _, d in nx.minimum_spanning_tree(graph).edges(data=True))
    edges, gkp = run_gkp_mst(graph, bandwidth=bandwidth)
    assert abs(tree_weight(graph, edges) - exact) < 1e-6
    _, boruvka = run_boruvka_mst(graph, bandwidth=bandwidth)
    approx, elkin = run_elkin_approx_mst(graph, alpha=2.0)
    assert exact - 1e-9 <= approx <= 3.0 * exact
    bound = optimization_lower_bound(n, bandwidth, 50.0, 1.0)
    assert all(run.rounds >= bound for run in (gkp, boruvka, elkin))


def test_mst_round_scaling():
    """GKP rounds normalised by sqrt(n) log^2 n stay near-flat."""
    normalised = []
    for n in (16, 64, 144):
        graph = random_connected_graph(n, extra_edge_prob=max(0.02, 8 / n), seed=n)
        _, run = run_gkp_mst(_uniform_weights(graph, n + 1, 10.0), bandwidth=128)
        normalised.append(run.rounds / (math.sqrt(n) * math.log2(n) ** 2))
    assert max(normalised) / min(normalised) < 3.0


# -- The quantum substrate ----------------------------------------------------


def test_substrate_checks():
    rows = _sweep("quantum-substrate", {"trials": 30})
    assert all(r["passed"] for r in rows)
    by_check = {r["check"]: r for r in rows}
    # Teleportation is exact and Holevo caps chi at one qubit.
    assert by_check["teleportation"]["metric"] > 1 - 1e-9
    assert by_check["holevo"]["metric"] >= -1e-9


def test_grover_query_scaling():
    rows = _sweep("quantum-substrate", {"check": "grover", "size": [64, 256, 1024]})
    # sqrt scaling: 16x the items, about 4x the queries (10x allows for the
    # exponential-guessing loop).
    assert rows[-1]["metric"] <= 10 * max(1, rows[0]["metric"])


# -- Thm. 3.5: the Quantum Simulation Theorem (Figs. 8-10, 13) ----------------


def test_simulation_theorem_accounting():
    rows = _sweep("simulation-theorem")
    assert all(r["within_per_round_bound"] for r in rows)
    assert all(r["within_total_bound"] for r in rows)
    # Diameter Theta(log L): within 4 log2 L + 6 at every point, and up by
    # exactly 3 per doubling of L over the default grid.
    assert all(r["diameter_logarithmic"] for r in rows)
    assert [r["length"] for r in rows] == [9, 17, 33, 65]
    assert [r["diameter"] for r in rows] == [5, 8, 11, 14]


def test_observation_8_1_at_scale():
    """The input embedding preserves cycle structure for 1 to 4 cycles."""
    # Perfect matchings need an even Gamma' = n_paths + n_highways:
    # n_paths = 12 with L = 17 gives 16.
    rows = _sweep("simulation-theorem", {"length": 17, "n_paths": 12, "n_cycles": [1, 2, 3, 4]})
    assert all(r["observation_8_1"] for r in rows)


# -- Thm. 3.6 / Cor. 3.7: verification upper bounds vs the lower bound --------


def test_verification_suite_rounds():
    n, bandwidth = 24, 64
    graph = _uniform_weights(random_connected_graph(n, extra_edge_prob=0.2, seed=3), 3, 5.0)
    tree = list(nx.minimum_spanning_tree(graph).edges())
    cases = [
        ("connectivity", tree, True, {}),
        ("spanning tree", tree, True, {}),
        ("cycle containment", tree, False, {}),
        ("bipartiteness", tree, True, {}),
        ("s-t connectivity", tree, True, {"s": 0, "t": 5}),
        ("cut", list(graph.edges()), True, {}),
        ("connected spanning subgraph", tree, True, {}),
    ]
    bound = verification_lower_bound(n, bandwidth)
    for problem, m_edges, expected, kwargs in cases:
        verdict, run = run_verification(problem, graph, m_edges, bandwidth=bandwidth, **kwargs)
        assert verdict == expected, problem
        assert run.rounds >= bound, problem
