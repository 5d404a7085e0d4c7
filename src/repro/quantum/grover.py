"""Grover search.

The quantum protocol of [AA05]/[BCW98] behind Example 1.1 searches for an
index ``i`` with ``x_i AND y_i = 1`` using ``O(sqrt(b))`` oracle queries.
This module provides an exact statevector implementation whose query count is
tracked, so the distributed Disjointness protocol can charge network rounds
per query.
"""

from __future__ import annotations

import math
import random
from typing import Callable

import numpy as np

from repro.quantum.gates import HADAMARD
from repro.quantum.state import QuantumState


def optimal_grover_iterations(n_items: int, n_marked: int) -> int:
    """The optimal iteration count ``~ (pi/4) sqrt(N/k)``."""
    if n_items < 1:
        raise ValueError("need at least one item")
    if n_marked < 1 or n_marked > n_items:
        raise ValueError("marked count out of range")
    theta = math.asin(math.sqrt(n_marked / n_items))
    return max(0, round(math.pi / (4 * theta) - 0.5))


def grover_search(
    oracle: Callable[[int], bool],
    n_items: int,
    n_marked: int,
    rng: random.Random,
) -> tuple[int, int]:
    """Run Grover search over ``0..n_items-1``.

    Returns ``(measured_index, n_oracle_queries)``.  Each Grover iteration
    makes one oracle query; ``n_oracle_queries`` is the number charged to the
    communication accounting in the distributed protocol.

    ``n_marked`` tunes the iteration count; if unknown, callers should use
    the exponential-guessing loop in :func:`grover_find_any`.
    """
    n_qubits = max(1, math.ceil(math.log2(n_items)))
    dim = 1 << n_qubits

    marked = np.array([1.0 if (i < n_items and oracle(i)) else 0.0 for i in range(dim)])
    iterations = optimal_grover_iterations(dim, n_marked)

    state = QuantumState(n_qubits)
    for q in range(n_qubits):
        state.apply(HADAMARD, [q])

    sign = 1.0 - 2.0 * marked  # oracle phase flip
    uniform = np.full(dim, 1.0 / math.sqrt(dim))
    vec = state.vector
    for _ in range(iterations):
        vec = vec * sign
        vec = 2.0 * uniform * (uniform @ vec) - vec
    norm = np.linalg.norm(vec)
    state = QuantumState(n_qubits, vec / norm)
    outcome = state.measure(list(range(n_qubits)), rng=rng)
    index = 0
    for bit in outcome:
        index = (index << 1) | bit
    return index, iterations


def grover_find_any(
    oracle: Callable[[int], bool],
    n_items: int,
    rng: random.Random,
) -> tuple[int | None, int]:
    """Find any marked item with unknown mark count (exponential guessing).

    Standard Boyer-Brassard-Hoyer-Tapp loop: try guesses ``k = 1, 2, 4, ...``
    for the number of marked items, ``ceil(log2 n_items) + 2`` guesses in
    all; verify each measurement classically with one extra query.  Returns
    ``(index or None, total_oracle_queries)``; total queries stay
    ``O(sqrt(n_items))`` in expectation.
    """
    total_queries = 0
    guess = 1
    rounds = 0
    limit = math.ceil(math.log2(n_items)) + 2
    while rounds < limit:
        index, queries = grover_search(oracle, n_items, n_marked=guess, rng=rng)
        total_queries += queries + 1  # +1 classical verification query
        if index < n_items and oracle(index):
            return index, total_queries
        guess = min(2 * guess, n_items)
        rounds += 1
    return None, total_queries
