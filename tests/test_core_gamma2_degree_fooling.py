"""Tests for the gamma_2 machinery, approximate degree LP and fooling sets."""

import math

import pytest

np = pytest.importorskip("numpy")  # whole module is linear-algebra-bound
from scipy.linalg import hadamard

from repro.core.approx_degree import (
    approx_degree,
    best_approximation_error,
    mod3_function,
    or_function,
)
from repro.core.fooling import (
    BETA,
    code_min_distance,
    gap_equality_fooling_set,
    gap_equality_lower_bound,
    gilbert_varshamov_size_bound,
    greedy_gv_code,
    kdw_server_model_bound,
)
from repro.core.gamma2 import (
    gamma2_dual,
    gamma2_lower,
    gamma2_upper,
    spectral_norm,
    trace_norm,
)


class TestGamma2:
    def test_identity(self):
        eye = np.eye(4)
        assert gamma2_lower(eye) == pytest.approx(1.0)
        assert gamma2_upper(eye) == pytest.approx(1.0, abs=1e-6)

    def test_all_ones(self):
        ones = np.ones((4, 4))
        assert gamma2_lower(ones) == pytest.approx(1.0)
        assert gamma2_upper(ones) <= 1.0 + 1e-6

    def test_hadamard_sqrt_n(self):
        # gamma_2(H_n) = sqrt(n): lower and upper bounds must meet.
        h = hadamard(4).astype(float)
        assert gamma2_lower(h) == pytest.approx(2.0)
        assert gamma2_upper(h) == pytest.approx(2.0, abs=0.05)

    def test_upper_at_least_lower(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = rng.standard_normal((4, 5))
            assert gamma2_upper(a) >= gamma2_lower(a) - 1e-9

    def test_dual_norm_duality_on_hadamard(self):
        # gamma_2^*(K) >= <K, K> / gamma_2(K): sanity via Cauchy-Schwarz-ish.
        h = hadamard(4).astype(float) / 16.0
        dual = gamma2_dual(h, seed=0)
        assert dual > 0

    @pytest.mark.parametrize(
        "budget",
        [{"restarts": 0}, {"restarts": -1}, {"iterations": 0}, {"iterations": -3}],
        ids=["restarts-0", "restarts-minus-1", "iterations-0", "iterations-minus-3"],
    )
    def test_dual_rejects_an_empty_search(self, budget):
        # No restart or no sweep evaluates nothing; 0.0 would pass for a bias.
        with pytest.raises(ValueError, match="restarts >= 1 and iterations >= 1"):
            gamma2_dual(np.full((2, 2), 0.25), **budget)

    def test_trace_and_spectral(self):
        h = hadamard(4).astype(float)
        assert trace_norm(h) == pytest.approx(8.0)
        assert spectral_norm(h) == pytest.approx(2.0)

    def test_appendix_b3_inner_matrix(self):
        # The matrix A_g of Appendix B.3 has spectral norm 2 sqrt(2), which
        # drives the log(sqrt(16)/||A_g||) = 1/2 factor in the IPmod3 bound.
        ag = np.array(
            [
                [-1, -1, 1, 1],
                [-1, 1, 1, -1],
                [1, 1, -1, -1],
                [1, -1, -1, 1],
            ],
            dtype=float,
        )
        assert spectral_norm(ag) == pytest.approx(2.0 * math.sqrt(2.0))
        assert math.log2(math.sqrt(16) / spectral_norm(ag)) == pytest.approx(0.5)


class TestApproxDegree:
    def test_or_grows_like_sqrt(self):
        degrees = {n: approx_degree(or_function(n), eps=1 / 3) for n in (4, 16, 36)}
        # Paturi: deg(OR_n) = Theta(sqrt(n)); quadrupling n ~ doubles degree.
        assert degrees[16] <= 2 * degrees[4] + 1
        assert degrees[36] <= 3 * degrees[4] + 1
        assert degrees[36] >= degrees[16] >= degrees[4] >= 1

    def test_mod3_linear(self):
        # Paturi: predicates flipping near the centre need degree Theta(n).
        for n in (6, 9, 12):
            assert approx_degree(mod3_function(n), eps=1 / 3) >= n / 2

    def test_error_decreases_with_degree(self):
        f = mod3_function(9)
        errors = [best_approximation_error(f, d) for d in range(10)]
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-9
        assert errors[9] <= 1e-7


class TestFooling:
    def test_greedy_code_distance(self):
        code = greedy_gv_code(10, 4)
        assert code_min_distance(code) >= 4
        assert len(code) >= gilbert_varshamov_size_bound(10, 4) / 4

    def test_fooling_set_from_code(self):
        from repro.comm.lower_bounds import is_fooling_set
        from repro.comm.problems import GapEquality

        code = greedy_gv_code(10, 5)
        gap = GapEquality(10, 4)  # promise: equal or distance > 4

        def evaluate(x, y):
            return int(tuple(x) == tuple(y))

        pairs = gap_equality_fooling_set(code)
        assert is_fooling_set(evaluate, pairs)
        for (x, _), (x2, _) in zip(pairs, pairs[1:]):
            assert gap.in_promise(x, x2)  # cross pairs satisfy the promise

    def test_kdw_bounds(self):
        # eps = 1/2: Q >= (20 + log2(1/2)) / 4.
        assert kdw_server_model_bound(2**20) == pytest.approx((20 - 1) / 4)
        with pytest.raises(ValueError):
            kdw_server_model_bound(0)

    def test_theorem_6_1_scaling(self):
        # Q*_sv(Gap-Eq_n) = Omega(n): the bound grows linearly in n.
        bounds = [gap_equality_lower_bound(n)["server_model_lower_bound"] for n in (40, 80, 160)]
        assert bounds[1] >= 1.8 * bounds[0]
        assert bounds[2] >= 1.8 * bounds[1]
        # ... and bound / n settles to a constant (Fig. 2's bottom half).
        ratios = [
            gap_equality_lower_bound(n)["server_model_lower_bound"] / n for n in (64, 128, 256, 512)
        ]
        assert max(ratios) / min(ratios) < 1.6

    def test_gv_rate_positive_below_quarter(self):
        assert 0 < BETA < 0.25
        result = gap_equality_lower_bound(64)
        assert result["code_distance"] == 16  # 2 beta n at beta = 1/8
        assert result["rate"] > 0
        assert result["server_model_lower_bound"] > 0
