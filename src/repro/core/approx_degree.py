"""Approximate polynomial degree of symmetric functions (Appendix B.3).

For a symmetric boolean ``f`` on ``{0,1}^n``, identified with its predicate
on the Hamming weight ``k in {0..n}``, the ``eps``-approximate degree is the
least ``d`` such that a degree-``d`` univariate polynomial ``p`` satisfies
``|p(k) - f'(k)| <= eps`` for all ``k`` (``f' = (-1)^f`` valued in ``+-1``).

The best approximation at fixed degree is a linear program, solved exactly
with scipy.  Tests pin the classics: ``deg_{1/3}(OR_n) = Theta(sqrt(n))``
[Pat92] and ``deg_{1/3}(MOD3) = Theta(n)`` -- the engine of the IPmod3
lower bound (Theorem 6.1).
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.optimize import linprog


def _chebyshev_design(n: int, degree: int) -> np.ndarray:
    """Design matrix of Chebyshev polynomials on points ``k in {0..n}``
    rescaled to ``[-1, 1]`` (well-conditioned basis for the LP)."""
    points = np.linspace(-1.0, 1.0, n + 1)
    columns = [np.ones_like(points)]
    if degree >= 1:
        columns.append(points)
    for d in range(2, degree + 1):
        columns.append(2.0 * points * columns[-1] - columns[-2])
    return np.stack(columns, axis=1)


def best_approximation_error(sign_values: Sequence[float], degree: int) -> float:
    """Least uniform error of a degree-``degree`` polynomial approximating
    the ``+-1`` values on ``{0..n}`` (LP primal)."""
    f = np.asarray(sign_values, dtype=float)
    n = len(f) - 1
    if degree >= n:
        return 0.0
    design = _chebyshev_design(n, degree)
    n_coeff = design.shape[1]
    # Variables: coefficients c (free), error e >= 0.  Minimise e subject to
    # -e <= design @ c - f <= e.
    c_obj = np.zeros(n_coeff + 1)
    c_obj[-1] = 1.0
    ones = np.ones((n + 1, 1))
    a_ub = np.vstack(
        [np.hstack([design, -ones]), np.hstack([-design, -ones])]
    )
    b_ub = np.concatenate([f, -f])
    bounds = [(None, None)] * n_coeff + [(0, None)]
    result = linprog(c_obj, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:  # pragma: no cover - solver failure
        raise RuntimeError(f"LP failed: {result.message}")
    return float(result.fun)


def approx_degree(sign_values: Sequence[float], eps: float = 1.0 / 3.0) -> int:
    """``deg_eps(f)``: least degree with uniform error at most ``eps``."""
    n = len(sign_values) - 1
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if best_approximation_error(sign_values, mid) <= eps + 1e-9:
            hi = mid
        else:
            lo = mid + 1
    return lo


# -- The symmetric functions used by the paper -------------------------------


def sign_values_from_predicate(n: int, predicate: Callable[[int], int]) -> list[float]:
    """``f'(k) = (-1)^{f(k)}`` over Hamming weights ``k = 0..n``
    (``f = 1 -> f' = -1`` by the convention above Lemma B.6... we use
    ``f' = +1`` for ``f = 0``)."""
    return [1.0 if predicate(k) == 0 else -1.0 for k in range(n + 1)]


def or_function(n: int) -> list[float]:
    """OR_n: ``deg_{1/3} = Theta(sqrt(n))`` [Pat92]."""
    return sign_values_from_predicate(n, lambda k: int(k > 0))


def mod3_function(n: int) -> list[float]:
    """The outer function of IPmod3's composition (Appendix B.3):
    ``f(z) = 1`` iff ``|z|`` is divisible by 3.  ``deg_{1/3} = Theta(n)``
    [Pat92]: the predicate flips near the centre of ``{0..n}``."""
    return sign_values_from_predicate(n, lambda k: int(k % 3 == 0))
