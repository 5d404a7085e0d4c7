"""E7/E10 -- Section 6 machinery: nonlocal games, gamma_2, approximate degree,
fooling sets, and the classical two-party <-> Server-model equivalence.
"""

import math
import random

import numpy as np
from scipy.linalg import hadamard

from repro.core.approx_degree import approx_degree, mod3_function, or_function
from repro.core.fooling import gap_equality_lower_bound
from repro.core.gamma2 import gamma2_lower, spectral_norm
from repro.core.nonlocal_games import (
    AbortSimulationStrategy,
    chsh_game,
    predicted_xor_win_probability,
)
from repro.core.server_model import streamed_xor_protocol


def test_chsh_biases(benchmark):
    game = chsh_game()

    def compute():
        return game.classical_bias(), game.quantum_bias(seed=0)

    classical, quantum = benchmark.pedantic(compute, iterations=1, rounds=1)
    print("\n=== CHSH (validation of the Tsirelson/gamma_2* machinery) ===")
    print(f"classical bias: {classical:.4f}   (theory: 0.5)")
    print(f"quantum bias:   {quantum:.4f}   (theory: 1/sqrt(2) = {1/math.sqrt(2):.4f})")
    assert abs(classical - 0.5) < 1e-9
    assert abs(quantum - 1 / math.sqrt(2)) < 1e-3


def test_lemma_3_2_simulation(benchmark):
    protocol = streamed_xor_protocol(2)
    strategy = AbortSimulationStrategy(protocol, mode="xor")
    x, y = (1, 0), (1, 1)
    expected_output = protocol.run(x, y).output

    def empirical():
        rng = random.Random(0)
        trials = 20_000
        wins = sum(
            1
            for _ in range(trials)
            if (lambda ab: (ab[0] ^ ab[1]) == expected_output)(strategy.play(x, y, rng))
        )
        return wins / trials

    measured = benchmark.pedantic(empirical, iterations=1, rounds=1)
    predicted = predicted_xor_win_probability(1.0, strategy.total_guess_bits(x, y))
    print("\n=== Lemma 3.2: abort-based game simulation ===")
    print(f"measured win probability:  {measured:.4f}")
    print(f"predicted 1/2 + q' 4^-T:   {predicted:.4f}")
    assert abs(measured - predicted) < 0.01


def test_ipmod3_building_blocks(benchmark):
    def compute():
        ag = np.array(
            [[-1, -1, 1, 1], [-1, 1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], dtype=float
        )
        degrees = {n: approx_degree(mod3_function(n), eps=1 / 3) for n in (6, 9, 12, 15)}
        return spectral_norm(ag), degrees

    norm_ag, degrees = benchmark.pedantic(compute, iterations=1, rounds=1)
    print("\n=== Theorem 6.1 building blocks (Appendix B.3) ===")
    print(f"||A_g|| = {norm_ag:.4f}  (theory: 2 sqrt(2) = {2 * math.sqrt(2):.4f})")
    print(f"log2(sqrt(16)/||A_g||) = {math.log2(4 / norm_ag):.3f}  (the per-block 1/2 factor)")
    print("deg_{1/3}(MOD3_n):", degrees)
    assert abs(norm_ag - 2 * math.sqrt(2)) < 1e-9
    # Linear growth of the MOD3 approximate degree (Paturi).
    assert degrees[12] >= 2 * degrees[6] - 2
    bound = {n: d * 0.5 for n, d in degrees.items()}
    print("resulting Q*_sv(IPmod3_n) lower bounds:", {n: f"{b:.1f}" for n, b in bound.items()})


def test_or_vs_mod3_degree_separation(benchmark):
    def compute():
        return (
            {n: approx_degree(or_function(n)) for n in (4, 16, 36)},
            {n: approx_degree(mod3_function(n)) for n in (4, 16, 36)},
        )

    or_deg, mod3_deg = benchmark.pedantic(compute, iterations=1, rounds=1)
    print("\n=== Approximate degree: OR (sqrt) vs MOD3 (linear) ===")
    print(f"{'n':>4s} {'deg(OR)':>8s} {'deg(MOD3)':>10s}")
    for n in (4, 16, 36):
        print(f"{n:4d} {or_deg[n]:8d} {mod3_deg[n]:10d}")
    assert mod3_deg[36] > 2 * or_deg[36]


def test_gap_equality_bounds(benchmark):
    results = benchmark.pedantic(
        lambda: {n: gap_equality_lower_bound(n) for n in (64, 256, 1024)},
        iterations=1,
        rounds=1,
    )
    print("\n=== Theorem 6.1: Q*_sv((beta n)-Eq) via GV fooling sets ===")
    print(f"{'n':>6s} {'code size (log2)':>17s} {'lower bound':>12s}")
    for n, res in results.items():
        print(f"{n:6d} {math.log2(res['code_size_bound']):17.1f} {res['server_model_lower_bound']:12.1f}")
    bounds = [res["server_model_lower_bound"] for res in results.values()]
    assert bounds[2] > 3.5 * bounds[0]


def test_two_party_server_equivalence(benchmark):
    """Section 3.1: the classical simulation costs exactly the same bits."""
    protocol = streamed_xor_protocol(5)

    def run():
        from repro.core.server_model import two_party_simulation_of_server

        rng = random.Random(0)
        agreements = 0
        for _ in range(50):
            x = tuple(rng.randrange(2) for _ in range(5))
            y = tuple(rng.randrange(2) for _ in range(5))
            server = protocol.run(x, y)
            sim = two_party_simulation_of_server(protocol, x, y)
            assert sim.total_bits == server.carol_bits + server.david_bits
            agreements += sim.output == server.output
        return agreements

    agreements = benchmark.pedantic(run, iterations=1, rounds=1)
    print(f"\nSection 3.1 equivalence: {agreements}/50 outputs identical, costs equal bit-for-bit")
    assert agreements == 50


def test_hadamard_gamma2(benchmark):
    """gamma_2 of the IP/Hadamard matrix: the sqrt(n) landmark."""

    def compute():
        return {k: gamma2_lower(hadamard(2**k).astype(float)) for k in (1, 2, 3, 4, 5)}

    values = benchmark.pedantic(compute, iterations=1, rounds=1)
    print("\n=== gamma_2(H_n) = sqrt(n) ===")
    for k, value in values.items():
        print(f"n = {2**k:3d}: gamma_2 lower bound = {value:.3f} (sqrt(n) = {math.sqrt(2**k):.3f})")
        assert abs(value - math.sqrt(2**k)) < 1e-9
