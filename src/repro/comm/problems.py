"""Communication problems of the paper's lower-bound machinery.

- ``IP``     -- Inner Product mod 2, and the promise input families of
  Appendix B.3 on which IPmod3's inner function is IP.
- ``Gap-Eq`` -- Equality under the promise ``x = y`` or ``dist(x,y) > delta``
  (Section 6).

A :class:`Problem` carries its ground truth ``evaluate`` and a ``matrix``
method producing the +-1 communication matrix used by the lower-bound
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.fooling import Bits, hamming_distance


@dataclass
class Problem:
    """A two-party boolean function."""

    name: str
    n: int
    evaluate: Callable[[Any, Any], int]

    def matrix(self, inputs_x: Sequence[Any], inputs_y: Sequence[Any]) -> np.ndarray:
        """The +-1 communication matrix ``A_f[x, y] = (-1)^{f(x, y)}``."""
        return np.array(
            [[(-1.0) ** self.evaluate(x, y) for y in inputs_y] for x in inputs_x]
        )


def all_inputs(n: int) -> list[Bits]:
    """All n-bit strings (for exhaustive small-case analysis)."""
    return [tuple((i >> (n - 1 - k)) & 1 for k in range(n)) for i in range(1 << n)]


# -- Inner products ----------------------------------------------------------


def inner_product_mod2(n: int) -> Problem:
    def evaluate(x: Bits, y: Bits) -> int:
        return sum(a * b for a, b in zip(x, y)) % 2

    return Problem(f"IP_{n}", n, evaluate)


def ipmod3_promise_inputs(n: int) -> tuple[list[Bits], list[Bits]]:
    """The promise input families of Appendix B.3 (n divisible by 4).

    Alice's blocks of four bits come from {0011, 0101, 1100, 1010} and Bob's
    from {0001, 0010, 1000, 0100}; each block then contributes
    ``g(x_blk, y_blk) = OR_i (x_i AND y_i) in {0, 1}`` to the inner product.
    """
    if n % 4 != 0:
        raise ValueError("n must be divisible by 4")
    alice_blocks = [(0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 0, 0), (1, 0, 1, 0)]
    bob_blocks = [(0, 0, 0, 1), (0, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0)]

    def expand(blocks: list[Bits], count: int) -> list[Bits]:
        strings: list[Bits] = [()]
        for _ in range(count):
            strings = [s + b for s in strings for b in blocks]
        return strings

    return expand(alice_blocks, n // 4), expand(bob_blocks, n // 4)


# -- Gap Equality ------------------------------------------------------------


@dataclass
class GapEquality:
    """``delta``-Eq (Section 6): promise ``x = y`` or ``dist(x, y) > delta``."""

    n: int
    delta: int

    def in_promise(self, x: Bits, y: Bits) -> bool:
        d = hamming_distance(x, y)
        return d == 0 or d > self.delta
