"""Closed-form bound evaluators: Theorems 3.6 & 3.8, Corollaries 3.7 & 3.9.

These functions evaluate the paper's asymptotic bounds as concrete functions
of ``(n, B, W, alpha)`` so scenarios and tests can lay measured upper-bound
round counts against them (Figs. 2 and 3).  Asymptotic constants are taken
as 1; what the reproduction checks is the *shape*: who wins, the scaling
exponents and the crossover points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def verification_lower_bound(n: int, bandwidth: int = 1) -> float:
    """Theorem 3.6: ``Omega(sqrt(n / (B log n)))`` rounds.

    Holds for two-sided-error quantum algorithms with arbitrary prior
    entanglement, on a Theta(log n)-diameter network, for Hamiltonian cycle
    and spanning tree verification -- and via Corollary 3.7 for all eleven
    verification problems of [DHK+12].
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if bandwidth < 1:
        raise ValueError("bandwidth must be positive")
    return math.sqrt(n / (bandwidth * math.log2(n)))


def optimization_lower_bound(
    n: int, bandwidth: int = 1, aspect_ratio: float = float("inf"), alpha: float = 1.0
) -> float:
    """Theorem 3.8: ``Omega(min(W/alpha, sqrt(n)) / sqrt(B log n))`` rounds.

    Monte Carlo, quantum, entanglement-assisted, any approximation ratio
    ``alpha``; tight for all aspect ratios ``W`` against the
    Elkin + Kutten-Peleg upper bounds (Fig. 3).
    """
    if n < 2:
        raise ValueError("need at least two nodes")
    if alpha < 1:
        raise ValueError("approximation ratio is at least 1")
    capped = min(aspect_ratio / alpha, math.sqrt(n))
    return capped / math.sqrt(bandwidth * math.log2(n))


def mst_upper_bound(
    n: int, diameter: float, aspect_ratio: float = float("inf"), alpha: float = 1.0
) -> float:
    """The classical upper bound the lower bound is matched against.

    ``O(min(W/alpha, sqrt(n)) + D)``: Elkin's alpha-approximation in
    ``O(W/alpha)`` rounds [Elk06] combined with the exact
    Kutten-Peleg/Garay-Kutten-Peleg ``O(sqrt(n) + D)`` algorithm [KP98].
    """
    return min(aspect_ratio / alpha, math.sqrt(n)) + diameter


@dataclass(frozen=True)
class BoundRow:
    """One row of the Fig. 2 table."""

    problem: str
    category: str  # "verification" | "optimization"
    previous: str
    new: str
    previous_value: float
    new_value: float


#: Corollary 3.7: verification problems inheriting the Theorem 3.6 bound.
VERIFICATION_PROBLEMS = (
    "Hamiltonian cycle",
    "spanning tree",
    "minimum spanning tree verification",
    "connected component",
    "spanning connected subgraph",
    "cycle containment",
    "e-cycle containment",
    "bipartiteness",
    "s-t connectivity",
    "connectivity",
    "cut",
    "edge on all paths",
    "s-t cut",
    "least-element list",
)

#: Corollary 3.9: optimization problems inheriting the Theorem 3.8 bound.
OPTIMIZATION_PROBLEMS = (
    "minimum spanning tree",
    "shallow-light tree",
    "s-source distance",
    "shortest path tree",
    "minimum routing cost spanning tree",
    "minimum cut",
    "minimum s-t cut",
    "shortest s-t path",
    "generalized Steiner forest",
)


def fig2_table(n: int, bandwidth: int = 1, aspect_ratio: float = 1024.0, alpha: float = 2.0) -> list[BoundRow]:
    """Evaluate the distributed-network half of the Fig. 2 table at concrete
    parameters.

    ``previous_value`` is the prior classical bound, ``new_value`` this
    paper's quantum bound, both in rounds.  For verification problems both
    formulas coincide numerically (the new result extends the *model*:
    deterministic/randomized classical -> two-sided-error quantum with
    entanglement); for optimization the new bound adds the ``W/alpha`` regime.
    """
    rows: list[BoundRow] = []
    verification_value = verification_lower_bound(n, bandwidth)
    for problem in VERIFICATION_PROBLEMS:
        previous = "Omega(sqrt(n / (B log n))), classical"
        if problem in ("Hamiltonian cycle", "spanning tree", "minimum spanning tree verification"):
            previous = "Omega(sqrt(n / (B log n))), deterministic classical only"
        rows.append(
            BoundRow(
                problem=problem,
                category="verification",
                previous=previous,
                new="Omega(sqrt(n / (B log n))), two-sided-error quantum + entanglement",
                previous_value=verification_value,
                new_value=verification_value,
            )
        )
    old_opt = math.sqrt(n / (bandwidth * math.log2(n)))  # only for W = Omega(alpha n)
    new_opt = optimization_lower_bound(n, bandwidth, aspect_ratio, alpha)
    for problem in OPTIMIZATION_PROBLEMS:
        rows.append(
            BoundRow(
                problem=problem,
                category="optimization",
                previous="Omega(sqrt(n / (B log n))), classical Monte Carlo, W = Omega(alpha n)",
                new="Omega(min(sqrt(n), W/alpha) / sqrt(B log n)), quantum Monte Carlo + entanglement",
                previous_value=old_opt,
                new_value=new_opt,
            )
        )
    return rows


def fig3_curve(n: int, alpha: float, aspect_ratios: list[float]) -> list[dict[str, float]]:
    """The Fig. 3 tradeoff: for each ``W`` return lower bound, upper bound and
    the two crossover landmarks ``W = alpha sqrt(n)`` and ``W = alpha n``.
    The upper bound takes the diameter to be ``log2 n``."""
    d = math.log2(n)
    curve = []
    for w in aspect_ratios:
        curve.append(
            {
                "W": w,
                "lower_bound": optimization_lower_bound(n, 1, w, alpha),
                "upper_bound": mst_upper_bound(n, d, w, alpha),
                "crossover_sqrt": alpha * math.sqrt(n),
                "crossover_linear": alpha * n,
            }
        )
    return curve
