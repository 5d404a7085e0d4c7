"""Gilbert-Varshamov codes and the [KdW12] one-sided bound (Theorem 6.1).

The Gap-Equality lower bound works by building a 1-fooling set for
``(beta n)-Eq`` from a binary code of minimum distance ``2 beta n``:
the pairs ``{(c, c) : c in C}`` fool any one-sided protocol, and the
Klauck-de Wolf bound plus Lemma 3.2 give

    (1 - eps) 4^{-2 Q*_sv} <= 1 / |C|
    =>  Q*_sv_{0,eps}((beta n)-Eq_n) = Omega(n).
"""

from __future__ import annotations

import math
from typing import Sequence

Bits = tuple[int, ...]

#: The gap fraction ``beta`` of ``(beta n)-Eq``; the code's distance is
#: ``2 beta n``, and the GV rate ``1 - H(2 beta)`` is positive for
#: ``beta < 1/4``.
BETA = 0.125

#: The one-sided error ``eps`` of the protocols the bound covers.
EPS = 0.5


def hamming_distance(x: Sequence[int], y: Sequence[int]) -> int:
    return sum(1 for a, b in zip(x, y) if a != b)


def binary_entropy(p: float) -> float:
    """``H(p)`` in bits."""
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def gilbert_varshamov_size_bound(n: int, min_distance: int) -> float:
    """The GV existence bound ``|C| >= 2^{(1 - H(d/n)) n}`` (for d/n < 1/2)."""
    if min_distance < 1 or min_distance > n:
        raise ValueError("distance out of range")
    rate = 1.0 - binary_entropy(min(0.5, min_distance / n))
    return 2.0 ** (rate * n)


def greedy_gv_code(n: int, min_distance: int) -> list[Bits]:
    """Greedy (lexicographic) code construction achieving the GV bound.

    Scans ``{0,1}^n`` in counter order keeping every word at distance
    ``>= min_distance`` from all kept words.  Exponential scan -- intended
    for the small ``n`` exercised by the scenarios and tests.
    """
    if n > 22:
        raise ValueError("greedy GV scan limited to n <= 22")
    code: list[Bits] = []
    for value in range(1 << n):
        word = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
        if all(hamming_distance(word, c) >= min_distance for c in code):
            code.append(word)
    return code


def code_min_distance(code: Sequence[Bits]) -> int:
    best = len(code[0]) if code else 0
    for i in range(len(code)):
        for j in range(i + 1, len(code)):
            best = min(best, hamming_distance(code[i], code[j]))
    return best


def gap_equality_fooling_set(code: Sequence[Bits]) -> list[tuple[Bits, Bits]]:
    """The diagonal fooling set ``{(c, c)}`` for Gap-Eq over the code.

    For distinct codewords ``c != c'``, both cross pairs ``(c, c')`` are
    0-inputs of Gap-Eq (their distance exceeds the gap), so the 1-fooling
    property holds with *both* cross evaluations 0.
    """
    return [(c, c) for c in code]


def kdw_server_model_bound(fooling_size: int) -> float:
    """Theorem 6.1's server-model form via Lemma 3.2.

    From ``(1 - eps) 4^{-2 Q} <= 1 / fool_1``:
    ``Q >= (log2(fool_1) + log2(1 - eps)) / 4``, at ``eps =`` :data:`EPS`.
    """
    if fooling_size < 1:
        raise ValueError("fooling set must be nonempty")
    return max(0.0, (math.log2(fooling_size) + math.log2(1.0 - EPS)) / 4.0)


def gap_equality_lower_bound(n: int) -> dict[str, float]:
    """Assemble the Theorem 6.1 numbers for ``(beta n)-Eq_n`` (existence form)
    at ``beta =`` :data:`BETA`.

    Uses the GV bound analytically (the greedy construction verifies it for
    small ``n`` in tests): a distance-``2 beta n`` code of size
    ``2^{(1 - H(2 beta)) n}`` exists for ``beta < 1/4``.
    """
    distance = max(1, math.ceil(2 * BETA * n))
    size = gilbert_varshamov_size_bound(n, distance)
    return {
        "code_distance": float(distance),
        "code_size_bound": size,
        "rate": 1.0 - binary_entropy(2 * BETA),
        "server_model_lower_bound": kdw_server_model_bound(int(size)),
    }
