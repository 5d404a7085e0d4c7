"""Tests for nonlocal games: CHSH biases and the Lemma 3.2 simulation."""

import math

import pytest

np = pytest.importorskip("numpy")  # whole module is linear-algebra-bound

from repro.core.nonlocal_games import (
    AbortSimulationStrategy,
    XORGame,
    chsh_game,
    predicted_xor_win_probability,
)
from repro.core.server_model import streamed_xor_protocol


class TestCHSH:
    def test_classical_bias_half(self):
        # Bell: no classical strategy beats bias 1/2 (win prob 3/4).
        assert chsh_game().classical_bias() == pytest.approx(0.5, abs=1e-9)

    def test_quantum_bias_tsirelson(self):
        # Tsirelson's bound: 1/sqrt(2) ~ 0.7071.
        for seed in (0, 1):
            bias = chsh_game().quantum_bias(seed=seed)
            assert bias == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)

    def test_quantum_beats_classical(self):
        game = chsh_game()
        assert game.quantum_bias(seed=0) > game.classical_bias() + 0.1

    def test_cost_matrix(self):
        k = chsh_game().cost_matrix
        assert k[0, 0] == pytest.approx(0.25)
        assert k[1, 1] == pytest.approx(-0.25)


class TestXORGameMachinery:
    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            XORGame(np.full((2, 2), 0.3), np.zeros((2, 2), dtype=int))

    def test_trivial_game_bias_one(self):
        # Constant target: answering the constant wins always.
        game = XORGame(np.full((2, 2), 0.25), np.zeros((2, 2), dtype=int))
        assert game.classical_bias() == pytest.approx(1.0)
        assert game.quantum_bias(seed=0) == pytest.approx(1.0, abs=1e-6)

    def test_quantum_at_least_classical(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            target = rng.integers(0, 2, size=(3, 3))
            game = XORGame(np.full((3, 3), 1.0 / 9.0), target)
            assert game.quantum_bias(seed=2) >= game.classical_bias() - 1e-6


class TestLemma32Simulation:
    """The abort-based simulation of a server-model protocol."""

    def setup_method(self):
        self.protocol = streamed_xor_protocol(2)  # 4 total bits
        self.x = (1, 0)
        self.y = (1, 1)
        self.expected_output = self.protocol.run(self.x, self.y).output

    def test_total_guess_bits(self):
        strategy = AbortSimulationStrategy(self.protocol, mode="xor")
        assert strategy.total_guess_bits(self.x, self.y) == 4

    def test_xor_win_probability_matches_lemma(self):
        strategy = AbortSimulationStrategy(self.protocol, mode="xor")
        won = strategy.probability(self.x, self.y, lambda a, b: (a ^ b) == self.expected_output)
        # Lemma 3.2: P[correct] = 1/2 + (q - 1/2) * 2^{-4} with q = 1
        # (the protocol is deterministic and exact).
        assert won == 17 / 32
        assert won == pytest.approx(predicted_xor_win_probability(1.0, 4), abs=1e-12)

    def test_and_mode_one_sided(self):
        strategy = AbortSimulationStrategy(self.protocol, mode="and")
        accepted = strategy.probability(self.x, self.y, lambda a, b: a & b == 1)
        # q * 2^-(guessed bits) with q = 1 on 1-inputs; 0-inputs never
        # produce a AND b = 1.
        assert accepted == self.expected_output * 2.0**-4

    def test_and_mode_zero_inputs_never_accept(self):
        # Pick an input whose protocol output is 0.
        protocol = streamed_xor_protocol(2)
        x, y = (0, 0), (0, 0)
        assert protocol.run(x, y).output == 0
        strategy = AbortSimulationStrategy(protocol, mode="and")
        assert strategy.probability(x, y, lambda a, b: a & b == 1) == 0.0

    def test_right_guesses_reproduce_the_protocol(self):
        # The one guess pair equal to Carol's and David's actual messages:
        # no player aborts, so the coins are never read and Alice answers
        # the protocol's output.
        strategy = AbortSimulationStrategy(self.protocol, mode="xor")
        guess_c = [(self.x[0],), (self.x[1],)]
        guess_d = [(self.y[0],), (self.y[1],)]
        for coins in ((0, 0), (1, 1)):
            assert strategy.play(self.x, self.y, guess_c, guess_d, coins) == (self.expected_output, 0)
