"""Two-player nonlocal games and the Lemma 3.2 simulation (Section 6, B.1-B.2).

An XOR game is given by a distribution ``pi`` on ``X x Y`` and a boolean
target ``f``; isolated players output bits ``a, b`` and win if
``a XOR b = f(x, y)``.  The *bias* is ``P[win] - P[lose]``.

- classical bias: exhaustive over deterministic sign strategies (closed form:
  ``max_a sum_y |sum_x K_xy a_x|`` with ``K = A_f o pi``);
- quantum (entangled) bias: Tsirelson's vector program = ``gamma_2^*(K)``
  (computed in :mod:`repro.core.gamma2`).

Lemma 3.2 turns any server-model protocol of cost ``T`` into game strategies
that simulate it with probability ``4^{-2T}`` and otherwise abort (random bit
for XOR, 0 for AND).  :class:`AbortSimulationStrategy` implements that
construction executably for structured classical protocols, and
:meth:`~AbortSimulationStrategy.probability` enumerates every guess and coin,
so the predicted win probability ``1/2 + (q - 1/2) 4^{-2T}`` is checked
exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.gamma2 import gamma2_dual
from repro.core.server_model import StructuredServerProtocol


@dataclass
class XORGame:
    """An XOR game with input sets indexed ``0..m-1`` and ``0..n-1``."""

    distribution: np.ndarray  # pi(x, y), sums to 1
    target: np.ndarray  # f(x, y) in {0, 1}

    def __post_init__(self) -> None:
        self.distribution = np.asarray(self.distribution, dtype=float)
        self.target = np.asarray(self.target, dtype=int)
        if self.distribution.shape != self.target.shape:
            raise ValueError("distribution and target must have equal shapes")
        if abs(self.distribution.sum() - 1.0) > 1e-9:
            raise ValueError("distribution must sum to 1")

    @property
    def cost_matrix(self) -> np.ndarray:
        """``K = A_f o pi`` with ``A_f = (-1)^f``."""
        return self.distribution * ((-1.0) ** self.target)

    def classical_bias(self) -> float:
        """Optimal deterministic (= classical) bias, exhaustive in ``2^m``."""
        k = self.cost_matrix
        m = k.shape[0]
        if m > 20:
            raise ValueError("exhaustive classical bias limited to 20 rows")
        best = 0.0
        for signs in itertools.product((-1.0, 1.0), repeat=m):
            a = np.array(signs)
            value = float(np.abs(k.T @ a).sum())
            best = max(best, value)
        return best

    def quantum_bias(self, **kwargs) -> float:
        """Entangled bias via Tsirelson / gamma_2^* (Theorem 5.2 of [LS09a])."""
        return gamma2_dual(self.cost_matrix, **kwargs)


def chsh_game() -> XORGame:
    """CHSH: uniform inputs, target ``x AND y``.

    Classical bias 1/2 (win probability 3/4); quantum bias ``1/sqrt(2)``
    (win probability ``cos^2(pi/8) ~ 0.8536``) -- the canonical separation
    the gamma_2^* computation is validated against.
    """
    pi = np.full((2, 2), 0.25)
    f = np.array([[0, 0], [0, 1]])
    return XORGame(pi, f)


# -- Lemma 3.2: the abort-based simulation -----------------------------------


@dataclass
class AbortSimulationStrategy:
    """Nonlocal-game strategy simulating a server-model protocol (Lemma 3.2).

    The players share guessed communication strings (from shared randomness /
    entanglement).  Alice simulates Carol, checking Carol's actual bits
    against the guess and aborting on mismatch; Bob simulates David.  The
    fake server's messages are computed from the *guessed* strings, so no
    player-to-server communication ever happens.

    With probability ``4^{-T_bits}`` (all guesses correct; ``T_bits`` =
    Carol's plus David's bit count) the simulation is perfect and Alice holds
    the protocol's output.  Otherwise: XOR mode outputs a uniformly random
    bit (a player who aborts answers a coin), AND mode outputs 0.
    """

    protocol: StructuredServerProtocol
    mode: str = "xor"  # "xor" | "and"

    def play(
        self, x: Any, y: Any, guess_c: list, guess_d: list, coins: tuple[int, int]
    ) -> tuple[int, int]:
        """One play on shared guesses: ``guess_c`` / ``guess_d`` hold Carol's
        and David's guessed message (a tuple of bits) per round, ``coins``
        the bits Alice and Bob answer if they abort in XOR mode."""
        # Fake server: computes its messages from the guessed strings only.
        server_to_carol: list[Any] = []
        server_to_david: list[Any] = []
        for t in range(self.protocol.n_rounds):
            to_c, to_d = self.protocol.server_message(guess_c[: t + 1], guess_d[: t + 1], t)
            server_to_carol.append(to_c)
            server_to_david.append(to_d)

        # Alice simulates Carol against the guess.
        alice_abort = False
        carol_view: list[Any] = []
        for t in range(self.protocol.n_rounds):
            actual = tuple(self.protocol.carol_message(x, carol_view, t))
            if actual != guess_c[t]:
                alice_abort = True
                break
            carol_view.append(server_to_carol[t])

        # Bob simulates David against the guess.
        bob_abort = False
        david_view: list[Any] = []
        for t in range(self.protocol.n_rounds):
            actual = tuple(self.protocol.david_message(y, david_view, t))
            if actual != guess_d[t]:
                bob_abort = True
                break
            david_view.append(server_to_david[t])

        if self.mode == "xor":
            a = coins[0] if alice_abort else int(self.protocol.carol_output(x, carol_view))
            b = coins[1] if bob_abort else 0
            # A player who aborts outputs a coin; one coin suffices to make
            # the XOR uniform, so the non-aborting player keeps their bit.
            return a, b
        a = 0 if alice_abort else int(self.protocol.carol_output(x, carol_view))
        b = 0 if bob_abort else 1
        return a, b

    def probability(self, x: Any, y: Any, event: Callable[[int, int], bool]) -> float:
        """Exact probability that ``event(a, b)`` holds for the players'
        answers: the mean over every guessed string pair and both coins,
        all equally likely (``2^T_bits * 4`` plays)."""
        n_rounds = self.protocol.n_rounds
        bits_c = len(self.protocol.carol_message(x, [], 0))
        bits_d = len(self.protocol.david_message(y, [], 0))
        strings_c = itertools.product(itertools.product((0, 1), repeat=bits_c), repeat=n_rounds)
        strings_d = list(itertools.product(itertools.product((0, 1), repeat=bits_d), repeat=n_rounds))
        coin_pairs = list(itertools.product((0, 1), repeat=2))
        outcomes = [
            event(*self.play(x, y, list(guess_c), list(guess_d), coins))
            for guess_c in strings_c
            for guess_d in strings_d
            for coins in coin_pairs
        ]
        return sum(outcomes) / len(outcomes)

    def total_guess_bits(self, x: Any, y: Any) -> int:
        """Number of guessed bits = Carol's plus David's transmissions."""
        bits_c = len(self.protocol.carol_message(x, [], 0))
        bits_d = len(self.protocol.david_message(y, [], 0))
        return self.protocol.n_rounds * (bits_c + bits_d)


def predicted_xor_win_probability(q_correct: float, total_bits: int) -> float:
    """Lemma 3.2 arithmetic: ``P[win] = 1/2 + (q - 1/2) * 2^{-total_bits}``.

    ``q_correct`` is the protocol's success probability, ``total_bits`` the
    number of guessed bits; the guess succeeds with probability
    ``2^{-total_bits}`` (= ``4^{-T}`` when ``T`` qubits become ``2T`` bits).
    """
    return 0.5 + (q_correct - 0.5) * (2.0 ** (-total_bits))
