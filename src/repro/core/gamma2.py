"""gamma_2-norm machinery (Section 6, Appendix B).

The chain of Lemma B.2:

    4^{2 Q*_sv,eps(f)}  >=  gamma_2^{2 eps}(A_f)  >=  ||A_f||_tr^{delta} / sqrt(size)

We provide:

- :func:`gamma2_lower` -- the trace-norm lower bound ``||A||_tr / sqrt(mn)``,
- :func:`gamma2_upper` -- an explicit-factorisation upper bound (SVD seed
  refined by local optimisation over the factorisation gauge),
- :func:`gamma2_dual`  -- ``gamma_2^*``, which by Tsirelson's theorem equals
  the quantum bias of the XOR game with cost matrix ``K`` (computed by
  alternating maximisation of the vector program, exact on the instances the
  tests pin down, e.g. CHSH),
- :func:`spectral_norm` -- ``||A||``, the per-block factor of Thm. 6.1.
"""

from __future__ import annotations

import math

import numpy as np


def trace_norm(matrix: np.ndarray) -> float:
    """``||A||_tr`` -- the sum of singular values."""
    return float(np.linalg.svd(np.asarray(matrix, dtype=float), compute_uv=False).sum())


def gamma2_lower(matrix: np.ndarray) -> float:
    """``gamma_2(A) >= ||A||_tr / sqrt(mn)`` (used in Eq. (14))."""
    a = np.asarray(matrix, dtype=float)
    m, n = a.shape
    return trace_norm(a) / math.sqrt(m * n)


def gamma2_upper(matrix: np.ndarray, iterations: int = 300, seed: int = 0) -> float:
    """An upper bound on ``gamma_2(A)`` from an explicit factorisation.

    ``gamma_2(A) = min_{A = B C} maxrow(B) * maxcol(C)``.  We seed with the
    balanced SVD factorisation and refine by alternating row/column
    rescaling of the factor gauge, which converges to a stationary
    factorisation.  Always a valid upper bound; tight on the matrices used in
    tests (identity, all-ones, Hadamard), where it meets :func:`gamma2_lower`.
    """
    a = np.asarray(matrix, dtype=float)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > 1e-12 * max(1.0, s[0] if len(s) else 0.0)))
    if rank == 0:
        return 0.0
    sqrt_s = np.sqrt(s[:rank])
    b = u[:, :rank] * sqrt_s
    c = (vt[:rank, :].T * sqrt_s).T

    rng = np.random.default_rng(seed)
    best = _factorisation_value(b, c)
    for _ in range(iterations):
        # Alternating diagonal rebalancing: scale each latent coordinate to
        # equalise its contribution to the worst row of B and worst column
        # of C.  This is a coordinate-descent step on the gauge group.
        row_norms = np.linalg.norm(b, axis=1)
        col_norms = np.linalg.norm(c, axis=0)
        worst_row = int(np.argmax(row_norms))
        worst_col = int(np.argmax(col_norms))
        scale = np.ones(rank)
        for k in range(rank):
            contrib_b = abs(b[worst_row, k])
            contrib_c = abs(c[k, worst_col])
            if contrib_b > 1e-12 and contrib_c > 1e-12:
                scale[k] = math.sqrt(contrib_c / contrib_b)
        jitter = 1.0 + 0.02 * rng.standard_normal(rank)
        scale = scale * np.abs(jitter)
        b_new = b * scale
        c_new = (c.T / scale).T
        value = _factorisation_value(b_new, c_new)
        if value < best:
            best = value
            b, c = b_new, c_new
    return best


def _factorisation_value(b: np.ndarray, c: np.ndarray) -> float:
    max_row = float(np.max(np.linalg.norm(b, axis=1)))
    max_col = float(np.max(np.linalg.norm(c, axis=0)))
    return max_row * max_col


def gamma2_dual(
    matrix: np.ndarray,
    restarts: int = 8,
    iterations: int = 400,
    seed: int = 0,
) -> float:
    """``gamma_2^*(K) = max sum_{x,y} K_{xy} <u_x, v_y>`` over unit vectors.

    By Tsirelson's theorem [Tsi87] this equals the entangled bias of the XOR
    game with cost matrix ``K = A_g o pi``.  Alternating maximisation: fixing
    the ``u_x``, the optimal ``v_y`` is the normalised ``sum_x K_{xy} u_x``,
    and symmetrically -- each sweep cannot decrease the objective, and random
    restarts guard against the (measure-zero) bad stationary points.  The
    vectors live in ``min(m + n, 16)`` dimensions, and a restart stops once
    a sweep moves the objective by less than ``1e-12``.
    Fewer than one restart or one sweep computes nothing, so either raises
    ``ValueError`` rather than report a bias of 0.
    """
    if restarts < 1 or iterations < 1:
        raise ValueError(
            f"gamma2_dual needs restarts >= 1 and iterations >= 1, "
            f"got restarts={restarts}, iterations={iterations}"
        )
    k = np.asarray(matrix, dtype=float)
    m, n = k.shape
    d = min(m + n, 16)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(restarts):
        u = rng.standard_normal((m, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        value = 0.0
        for _ in range(iterations):
            v = k.T @ u  # (n, d)
            norms = np.linalg.norm(v, axis=1, keepdims=True)
            norms[norms < 1e-15] = 1.0
            v /= norms
            u = k @ v  # (m, d)
            norms = np.linalg.norm(u, axis=1, keepdims=True)
            norms[norms < 1e-15] = 1.0
            u /= norms
            new_value = float(np.sum((k @ v) * u))
            if abs(new_value - value) < 1e-12:
                value = new_value
                break
            value = new_value
        best = max(best, value)
    return best


def spectral_norm(matrix: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(matrix, dtype=float), 2))
