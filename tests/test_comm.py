"""Tests for the two-party communication substrate."""

import random

import pytest

np = pytest.importorskip("numpy")  # whole module is linear-algebra-bound

from repro.comm.lower_bounds import (
    discrepancy,
    discrepancy_communication_bound,
    fooling_set_bound,
    greedy_fooling_set,
    is_fooling_set,
    log_rank_bound,
    spectral_discrepancy_bound,
)
from repro.comm.problems import (
    GapEquality,
    all_inputs,
    disjointness,
    equality,
    hamiltonian_matching_problem,
    inner_product_mod2,
    ipmod3,
    ipmod3_promise_inputs,
    is_perfect_matching,
)


class TestProblems:
    def test_equality_evaluate(self):
        eq = equality(4)
        assert eq.evaluate((1, 0, 1, 0), (1, 0, 1, 0)) == 1
        assert eq.evaluate((1, 0, 1, 0), (1, 0, 1, 1)) == 0

    def test_disjointness_evaluate(self):
        disj = disjointness(4)
        assert disj.evaluate((1, 0, 1, 0), (0, 1, 0, 1)) == 1
        assert disj.evaluate((1, 0, 1, 0), (1, 0, 0, 0)) == 0

    def test_ipmod3_evaluate(self):
        f = ipmod3(6)
        assert f.evaluate((1, 1, 1, 0, 0, 0), (1, 1, 1, 0, 0, 0)) == 1  # 3 mod 3 = 0
        assert f.evaluate((1, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)) == 0  # 2 mod 3

    def test_samplers_respect_labels(self):
        rng = random.Random(0)
        for problem in (equality(8), disjointness(8), ipmod3(8)):
            if problem.sample_one_input:
                x, y = problem.sample_one_input(rng)
                assert problem.evaluate(x, y) == 1
            if problem.sample_zero_input:
                x, y = problem.sample_zero_input(rng)
                assert problem.evaluate(x, y) == 0

    def test_sign_matrix(self):
        eq = equality(2)
        inputs = all_inputs(2)
        matrix = eq.matrix(inputs, inputs)
        assert np.allclose(np.diag(matrix), -1.0)  # equal -> f=1 -> (-1)^1
        assert matrix[0, 1] == 1.0

    def test_gap_equality_promise(self):
        gap = GapEquality(8, 2)
        rng = random.Random(1)
        x, y = gap.sample_zero_input(rng)
        assert gap.in_promise(x, y)
        assert gap.evaluate(x, y) == 0
        x, y = gap.sample_one_input(rng)
        assert gap.evaluate(x, y) == 1
        with pytest.raises(ValueError):
            gap.evaluate((0,) * 8, (1,) + (0,) * 7)  # distance 1 violates promise

    def test_promise_inputs_structure(self):
        xs, ys = ipmod3_promise_inputs(8)
        assert len(xs) == 16 and len(ys) == 16
        f = ipmod3(8)
        # On the promise, each block contributes 0/1, so evaluation works.
        assert f.evaluate(xs[0], ys[0]) in (0, 1)

    def test_hamiltonian_matching_problem(self):
        ham = hamiltonian_matching_problem(6)
        carol = [(0, 1), (2, 3), (4, 5)]
        david_ham = [(1, 2), (3, 4), (5, 0)]
        david_split = [(1, 0), (2, 3), (4, 5)]
        assert ham.evaluate(carol, david_ham) == 1
        assert ham.evaluate(carol, david_split) == 0
        assert is_perfect_matching(6, carol)
        with pytest.raises(ValueError):
            ham.evaluate([(0, 1)], david_ham)


class TestLowerBounds:
    def test_equality_fooling_set(self):
        eq = equality(4)
        pairs = [(x, x) for x in all_inputs(4)]
        assert is_fooling_set(eq.evaluate, pairs)
        assert fooling_set_bound(len(pairs)) == 4.0

    def test_greedy_fooling_set(self):
        eq = equality(3)
        candidates = [(x, y) for x in all_inputs(3) for y in all_inputs(3)]
        fs = greedy_fooling_set(eq.evaluate, candidates)
        assert len(fs) == 8  # the full diagonal
        assert is_fooling_set(eq.evaluate, fs)

    def test_non_fooling_set_rejected(self):
        disj = disjointness(2)
        pairs = [((0, 0), (0, 0)), ((0, 1), (0, 0))]  # cross pairs still 1
        assert not is_fooling_set(disj.evaluate, pairs)

    def test_log_rank_equality_is_n(self):
        eq = equality(3)
        inputs = all_inputs(3)
        assert log_rank_bound(eq.boolean_matrix(inputs, inputs)) == 3.0

    def test_ip_discrepancy_small(self):
        ip = inner_product_mod2(3)
        inputs = all_inputs(3)
        matrix = ip.matrix(inputs, inputs)
        exact = discrepancy(matrix)
        spectral = spectral_discrepancy_bound(matrix)
        assert exact <= spectral + 1e-9
        # IP has discrepancy 2^{-Theta(n)} -> communication Omega(n).
        assert discrepancy_communication_bound(exact) >= 1.0

    def test_discrepancy_size_guard(self):
        with pytest.raises(ValueError):
            discrepancy(np.ones((20, 20)))
