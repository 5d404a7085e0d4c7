"""Tests for the closed-form bound evaluators (Theorems 3.6/3.8, Figs. 2-3)."""

import math

import pytest

from repro.core.bounds import (
    OPTIMIZATION_PROBLEMS,
    VERIFICATION_PROBLEMS,
    fig2_table,
    fig3_curve,
    mst_upper_bound,
    optimization_lower_bound,
    verification_lower_bound,
)


class TestVerificationBound:
    def test_scaling_sqrt(self):
        # Quadrupling n should roughly double the bound (up to log factors).
        lb1 = verification_lower_bound(10_000, 1)
        lb2 = verification_lower_bound(40_000, 1)
        assert 1.7 <= lb2 / lb1 <= 2.1

    def test_bandwidth_softens(self):
        assert verification_lower_bound(4096, 16) == pytest.approx(
            verification_lower_bound(4096, 1) / 4.0
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            verification_lower_bound(1)
        with pytest.raises(ValueError):
            verification_lower_bound(100, 0)


class TestOptimizationBound:
    def test_small_w_regime(self):
        # W / alpha below sqrt(n): the bound is W-limited (the new regime
        # this paper adds over [DHK+12]).
        n, w, alpha = 10_000, 50.0, 2.0
        lb = optimization_lower_bound(n, 1, w, alpha)
        assert lb == pytest.approx((w / alpha) / math.sqrt(math.log2(n)))

    def test_large_w_regime(self):
        n = 10_000
        lb = optimization_lower_bound(n, 1, 1e9, 2.0)
        assert lb == pytest.approx(math.sqrt(n) / math.sqrt(math.log2(n)))

    def test_monotone_in_w(self):
        n = 4096
        values = [optimization_lower_bound(n, 1, w, 2.0) for w in (4, 64, 1024, 10**6)]
        assert values == sorted(values)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            optimization_lower_bound(100, 1, 10, 0.5)


class TestFig2Table:
    def test_all_problems_present(self):
        rows = fig2_table(10_000, 14, aspect_ratio=1024.0, alpha=2.0)
        names = {row.problem for row in rows}
        assert set(VERIFICATION_PROBLEMS) <= names
        assert set(OPTIMIZATION_PROBLEMS) <= names
        categories = [row.category for row in rows]
        assert (categories.count("verification"), categories.count("optimization")) == (14, 9)

    def test_verification_rows_match_theorem(self):
        for bandwidth in (1, 14):
            rows = fig2_table(10_000, bandwidth, aspect_ratio=1024.0, alpha=2.0)
            expected = verification_lower_bound(10_000, bandwidth)
            for row in (r for r in rows if r.category == "verification"):
                assert row.new_value == pytest.approx(expected, abs=1e-9)
                assert "quantum" in row.new

    def test_optimization_rows_match_theorem(self):
        # B = 14 ~ log2 n, the standard CONGEST bandwidth at n = 10^4.
        rows = fig2_table(10_000, 14, aspect_ratio=1024.0, alpha=2.0)
        expected = optimization_lower_bound(10_000, 14, 1024.0, 2.0)
        for row in (r for r in rows if r.category == "optimization"):
            assert row.new_value == pytest.approx(expected, abs=1e-9)

    def test_optimization_new_bound_never_below_small_w(self):
        rows = [r for r in fig2_table(10_000, aspect_ratio=32.0, alpha=2.0) if r.category == "optimization"]
        for row in rows:
            # With small W the new bound is the W/alpha regime, strictly less
            # than the old sqrt(n) bound that needed W = Omega(alpha n).
            assert row.new_value < row.previous_value


class TestFig3Curve:
    def test_crossover_shape(self):
        n, alpha = 10_000, 2.0
        ws = [
            1.0, 4.0, 10.0, 16.0, 64.0, 100.0, 256.0, 1_000.0, 1_024.0, 4_096.0, 65_536.0, 100_000.0
        ]
        curve = fig3_curve(n, alpha, ws)
        lower = [point["lower_bound"] for point in curve]
        upper = [point["upper_bound"] for point in curve]
        # Monotone then saturating, and the lower bound never exceeds the
        # upper bound.
        assert lower == sorted(lower)
        assert all(lb <= ub for lb, ub in zip(lower, upper))
        # The upper bound saturates at sqrt(n) + D once W > alpha sqrt(n).
        saturated = [ub for w, ub in zip(ws, upper) if w > alpha * math.sqrt(n)]
        assert len(saturated) == 6
        assert all(ub == pytest.approx(upper[-1], abs=1e-9) for ub in saturated)

    def test_crossover_landmarks(self):
        curve = fig3_curve(10_000, 2.0, [1.0])
        assert curve[0]["crossover_sqrt"] == pytest.approx(200.0)
        assert curve[0]["crossover_linear"] == pytest.approx(20_000.0)


class TestSupportingFormulas:
    def test_mst_upper_bound_regimes(self):
        assert mst_upper_bound(10_000, 10, 50, 2.0) == pytest.approx(35.0)
        assert mst_upper_bound(10_000, 10, 1e9, 2.0) == pytest.approx(110.0)
