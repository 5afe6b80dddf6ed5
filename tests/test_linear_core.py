from fractions import Fraction as Q

import numpy as np
import pytest

import nilgo.linear_core as lc
from nilgo.errors import InputError, InterpolationError


def random_skew(rng, n):
    A = rng.standard_normal((n, n))
    return A - A.T


class TestNullspaceLeastSquares:
    def test_nullspace_of_rank_one(self):
        A = np.outer([1.0, 2.0], [1.0, 0.0, -1.0])
        basis = lc.nullspace(A)
        assert len(basis) == 2
        for v in basis:
            assert np.linalg.norm(A @ v) < 1e-12

    def test_nullspace_full_rank(self):
        assert lc.nullspace(np.eye(3)) == []

    def test_least_squares_consistent(self):
        A = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        x_true = np.array([3.0, -1.0])
        x, res = lc.least_squares(A, A @ x_true)
        assert np.allclose(x, x_true)
        assert res < 1e-12

    def test_least_squares_residual(self):
        A = np.array([[1.0], [1.0]])
        x, res = lc.least_squares(A, np.array([0.0, 2.0]))
        assert np.isclose(x[0], 1.0)
        assert np.isclose(res, np.sqrt(2.0))


class TestPfaffian:
    def test_two_by_two(self):
        S = np.array([[0.0, 5.0], [-5.0, 0.0]])
        assert np.isclose(lc.pfaffian_numeric(S), 5.0)
        assert np.isclose(lc.pfaffian_combinatorial(S), 5.0)

    def test_matches_combinatorial(self, rng):
        for n in (2, 4, 6):
            for _ in range(5):
                S = random_skew(rng, n)
                assert np.isclose(lc.pfaffian_numeric(S), lc.pfaffian_combinatorial(S), atol=1e-9)

    def test_square_is_determinant(self, rng):
        S = random_skew(rng, 8)
        assert np.isclose(lc.pfaffian_numeric(S) ** 2, np.linalg.det(S))

    def test_odd_dimension_rejected(self):
        with pytest.raises(InputError):
            lc.pfaffian_numeric(np.zeros((3, 3)))

    def test_not_skew_rejected(self):
        with pytest.raises(InputError):
            lc.pfaffian_numeric(np.eye(2))

    def test_exact(self):
        S = [[Q(0), Q(1, 2), Q(3), Q(0)],
             [Q(-1, 2), Q(0), Q(1), Q(2)],
             [Q(-3), Q(-1), Q(0), Q(5)],
             [Q(0), Q(-2), Q(-5), Q(0)]]
        pf = lc.pfaffian_exact(S)
        assert pf == Q(1, 2) * Q(5) - Q(3) * Q(2) + Q(0) * Q(1)
        dense = np.array([[float(x) for x in row] for row in S])
        assert np.isclose(float(pf), lc.pfaffian_numeric(dense))

    def test_exact_singular(self):
        S = [[Q(0), Q(0)], [Q(0), Q(0)]]
        assert lc.pfaffian_exact(S) == 0


class TestRationalKernels:
    def test_rref_rank(self):
        M = lc.rational_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert lc.rat_rank(M) == 2

    def test_nullspace_exact(self):
        M = lc.rational_matrix([[1, 2, 3], [0, 1, 1]])
        ns = lc.rat_nullspace(M)
        assert len(ns) == 1
        v = ns[0]
        assert all(sum(r[j] * v[j] for j in range(3)) == 0 for r in M)

    def test_det_inv_solve(self):
        M = lc.rational_matrix([[2, 1], [1, 1]])
        assert lc.rat_det(M) == 1
        inv = lc.rat_inv(M)
        prod = [[sum(M[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        assert prod == [[1, 0], [0, 1]]
        x = lc.rat_solve(M, [Q(3), Q(2)])
        assert x == [Q(1), Q(1)]

    def test_solve_inconsistent(self):
        M = lc.rational_matrix([[1, 1], [1, 1]])
        assert lc.rat_solve(M, [Q(0), Q(1)]) is None

    def test_bareiss_rank(self):
        M = lc.rational_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 0, 1]])
        assert lc.bareiss_rank(M) == lc.rat_rank(M)

    def test_bareiss_rank_with_fractions(self):
        M = [[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 6)]]
        assert lc.bareiss_rank(M) == 1

    def test_bareiss_pivots_match_rref(self):
        M = lc.rational_matrix([[0, 2, 3, 1], [0, 4, 6, 2], [0, 1, 1, Q(1, 3)], [0, 0, 0, 5]])
        assert lc.bareiss_pivots(M) == lc.rat_rref(M)[1] == [1, 2, 3]
        assert lc.bareiss_pivots([]) == []


class TestHomogeneousPolynomial:
    def test_eval_convention(self):
        # coeffs[a] multiplies x^a y^(degree - a)
        p = lc.HomogeneousPolynomial2(2, (Q(1), Q(0), Q(4)))
        assert p(1, 0) == 4
        assert p(0, 1) == 1
        assert p(1, 1) == 5

    def test_wrong_length(self):
        with pytest.raises(InputError):
            lc.HomogeneousPolynomial2(2, (1, 2))

    def test_is_exact(self):
        assert lc.HomogeneousPolynomial2(1, (Q(1), 2)).is_exact
        assert not lc.HomogeneousPolynomial2(1, (1.0, 2)).is_exact

    def test_normalized_sign(self):
        p = lc.HomogeneousPolynomial2(2, (Q(0), Q(-2), Q(1)))
        q = p.normalized_sign()
        assert q.coeffs == (Q(0), Q(2), Q(-1))

    def test_substitute_linear(self):
        # p = x^2 + y^2 under (x, y) -> (2x, y/2 + x)
        p = lc.HomogeneousPolynomial2(2, (Q(1), Q(0), Q(1)))
        q = p.substitute_linear(Q(2), Q(0), Q(1), Q(1, 2))
        for x, y in [(1, 0), (0, 1), (1, 1), (2, -3)]:
            assert q(x, y) == p(2 * x, x + Q(1, 2) * y)

    def test_interpolate_exact(self):
        p = lc.HomogeneousPolynomial2(3, (Q(1), Q(-2), Q(0), Q(5)))
        pts = [(Q(0), Q(1)), (Q(1), Q(0)), (Q(1), Q(1)), (Q(1), Q(2))]
        rec = lc.interpolate_homogeneous2([((x, y), p(x, y)) for x, y in pts], 3)
        assert rec.coeffs == p.coeffs
        assert rec.is_exact

    def test_interpolate_float(self):
        p = lc.HomogeneousPolynomial2(2, (1.0, 2.0, 3.0))
        pts = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.0)]
        rec = lc.interpolate_homogeneous2([((x, y), p(x, y)) for x, y in pts], 2)
        assert np.allclose(rec.float_coeffs(), [1.0, 2.0, 3.0])

    def test_interpolate_underdetermined(self):
        with pytest.raises(InterpolationError):
            lc.interpolate_homogeneous2([((Q(1), Q(0)), Q(1))], 2)

    def test_interpolate_degenerate_points(self):
        pts = [((Q(1), Q(1)), Q(1))] * 4
        with pytest.raises(InterpolationError):
            lc.interpolate_homogeneous2(pts, 3)
