"""Tests for the two-party communication substrate."""

import itertools

import pytest

np = pytest.importorskip("numpy")  # whole module is linear-algebra-bound

from repro.comm.lower_bounds import is_fooling_set
from repro.comm.problems import (
    GapEquality,
    Problem,
    all_inputs,
    inner_product_mod2,
    ipmod3_promise_inputs,
)


def _equality(n):
    return Problem(f"Eq_{n}", n, lambda x, y: int(tuple(x) == tuple(y)))


class TestProblems:
    def test_sign_matrix(self):
        eq = _equality(2)
        inputs = all_inputs(2)
        matrix = eq.matrix(inputs, inputs)
        assert np.allclose(np.diag(matrix), -1.0)  # equal -> f=1 -> (-1)^1
        assert matrix[0, 1] == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_inner_product_matrix_is_hadamard(self, n):
        ip = inner_product_mod2(n)
        ones = (1,) * n
        assert ip.evaluate(ones, ones) == n % 2
        assert ip.evaluate((1,) + (0,) * (n - 1), ones) == 1
        inputs = all_inputs(n)
        matrix = ip.matrix(inputs, inputs)
        assert np.allclose(matrix @ matrix.T, 2**n * np.eye(2**n))

    def test_gap_equality_promise(self):
        gap = GapEquality(8, 2)
        x = (0,) * 8
        assert gap.in_promise(x, x)
        assert not gap.in_promise(x, (1, 1) + (0,) * 6)  # distance 2 violates it
        assert gap.in_promise(x, (1, 1, 1) + (0,) * 5)

    @pytest.mark.parametrize("delta", [0, 1, 2, 3])
    def test_gap_equality_promise_exhaustively(self, delta):
        gap = GapEquality(4, delta)
        for x, y in itertools.product(all_inputs(4), repeat=2):
            distance = sum(a != b for a, b in zip(x, y))
            assert gap.in_promise(x, y) == (distance == 0 or distance > delta), (x, y)

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_promise_inputs_structure(self, n):
        xs, ys = ipmod3_promise_inputs(n)
        assert len(set(xs)) == len(xs) == 4 ** (n // 4)
        assert len(set(ys)) == len(ys) == 4 ** (n // 4)
        blocks = range(0, n, 4)
        assert all(sum(x[i : i + 4]) == 2 for x in xs for i in blocks)
        assert all(sum(y[i : i + 4]) == 1 for y in ys for i in blocks)
        # On the promise, each block contributes 0 or 1 to the inner product.
        for x in xs:
            for y in ys:
                for i in blocks:
                    assert sum(a * b for a, b in zip(x[i : i + 4], y[i : i + 4])) <= 1

    @pytest.mark.parametrize("n", [2, 6])
    def test_promise_inputs_need_whole_blocks(self, n):
        with pytest.raises(ValueError):
            ipmod3_promise_inputs(n)


class TestLowerBounds:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equality_fooling_set(self, n):
        eq = _equality(n)
        pairs = [(x, x) for x in all_inputs(n)]
        assert is_fooling_set(eq.evaluate, pairs)
        # A pair that evaluates to 0 spoils the set.
        assert not is_fooling_set(eq.evaluate, pairs + [(pairs[0][0], pairs[-1][1])])

    def test_non_fooling_set_rejected(self):
        def disjoint(x, y):
            return int(all(a * b == 0 for a, b in zip(x, y)))

        pairs = [((0, 0), (0, 0)), ((0, 1), (0, 0))]  # cross pairs still 1
        assert not is_fooling_set(disjoint, pairs)
