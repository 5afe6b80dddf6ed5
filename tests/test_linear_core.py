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
        wide = np.outer([1.0, 2.0], [1.0, 0.0, -1.0])
        tall = np.outer([1.0, 2.0, 0.0, -1.0, 3.0], [1.0, 0.0, -1.0])
        for A in (wide, tall):
            basis = lc.nullspace(A)
            assert len(basis) == 2
            assert np.allclose(np.array(basis) @ np.array(basis).T, np.eye(2))
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


def _reference_cond(A, tau_rank):
    """Effective condition number as the per-sample adjudicator computed it."""
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 1.0
    nz = s[s > tau_rank * s[0]]
    return float(s[0] / nz[-1])


class TestBatchResiduals:
    @staticmethod
    def _stacks(rng):
        yield rng.standard_normal((6, 9, 4)), rng.standard_normal((6, 9))  # tall, generic
        yield rng.standard_normal((5, 3, 7)), rng.standard_normal((5, 3))  # wide
        low = rng.standard_normal((7, 8, 2)) @ rng.standard_normal((7, 2, 5))  # rank 2 of 5 columns
        low[:, :, 4] = low[:, :, 0] * 1e-3  # a small but not negligible column
        yield low, rng.standard_normal((7, 8))
        yield np.zeros((3, 6, 0)), rng.standard_normal((3, 6))  # no unknowns
        yield np.zeros((4, 5, 3)), rng.standard_normal((4, 5))  # all zero
        consistent = rng.standard_normal((4, 6, 3))
        yield consistent, np.einsum("bij,bj->bi", consistent, rng.standard_normal((4, 3)))

    def test_matches_least_squares_and_cond(self, rng):
        for A, b in self._stacks(rng):
            res, cond = lc.batch_residuals(A, b, 1e-9)
            for i in range(len(A)):
                _, ref = lc.least_squares(A[i], b[i])
                assert abs(res[i] - ref) <= 1e-12 * max(1.0, np.linalg.norm(b[i]))
                assert abs(cond[i] - _reference_cond(A[i], 1e-9)) <= 1e-12 * _reference_cond(A[i], 1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_system_rejected(self, rng, bad):
        A, b = rng.standard_normal((3, 4, 2)), rng.standard_normal((3, 4))
        A[1, 2, 0] = bad
        with pytest.raises(InputError):
            lc.batch_residuals(A, b)
        A[1, 2, 0] = 0.0
        b[2, 1] = bad
        with pytest.raises(InputError):
            lc.batch_residuals(A, b)

    def test_overflowing_residual_rejected(self):
        # finite entries whose residual norm overflows float64
        A = np.zeros((1, 2, 1))
        b = np.array([[1e308, 1e308]])
        with np.errstate(over="ignore"), pytest.raises(InputError):
            lc.batch_residuals(A, b)


class TestBareissIntegerRows:
    def test_pivots_match_rref_on_mixed_rows(self):
        import random

        gen = random.Random(7)
        for _ in range(200):
            m, n = gen.randint(1, 7), gen.randint(1, 7)
            M = [[gen.choice([0, 0, 0, 1, -2, 3, Q(1, 2), Q(-5, 3)]) for _ in range(n)] for _ in range(m)]
            if m > 2:
                M[1] = [2 * x for x in M[0]]  # a row that eliminates to zero
                M[2] = [int(x * 6) for x in M[0]]  # an integer row
            assert lc.bareiss_pivots(M) == lc.rat_rref(lc.rational_matrix(M))[1]

    def test_integer_rows_are_not_converted(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("integer rows must not go through Fraction")

        monkeypatch.setattr(lc, "Fraction", no_fraction)
        assert lc.bareiss_pivots([[2, 4, 0], [1, 2, 1], [0, 0, 0]]) == [0, 2]


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

    def test_exact_matches_expansion(self):
        # fraction-free elimination vs expansion along the first row, in Fractions
        def expand(a):
            if not a:
                return Q(1)
            minor = lambda j: [[r[c] for c in range(1, len(a)) if c != j] for k, r in enumerate(a) if k not in (0, j)]
            return sum((-1) ** (j - 1) * a[0][j] * expand(minor(j)) for j in range(1, len(a)))

        rng = np.random.default_rng(7)
        for n in (2, 4, 6, 8):
            for _ in range(10):
                S = [[Q(0)] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i + 1, n):
                        # zeros force pivot swaps; mixed denominators force scaling
                        v = Q(int(rng.integers(-5, 6)), int(rng.choice([1, 1, 2, 3]))) * int(rng.random() < 0.6)
                        S[i][j], S[j][i] = v, -v
                assert lc.pfaffian_exact(S) == expand(S)
                assert lc.pfaffian_exact([[int(x * 6) for x in r] for r in S]) == expand(S) * 6 ** (n // 2)

    def test_exact_singular(self):
        S = [[Q(0), Q(0)], [Q(0), Q(0)]]
        assert lc.pfaffian_exact(S) == 0


class TestRationalKernels:
    def test_rref_rank(self):
        M = lc.rational_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert lc.rat_rank(M) == 2

    def test_inv_solve(self):
        M = lc.rational_matrix([[2, 1], [1, 1]])
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

    def test_interpolate_inconsistent(self):
        pts = [((Q(0), Q(1)), Q(1)), ((Q(1), Q(0)), Q(2)), ((Q(1), Q(1)), Q(3)), ((Q(1), Q(2)), Q(5))]
        with pytest.raises(InterpolationError, match="inconsistent"):
            lc.interpolate_homogeneous2(pts, 1)

    def test_interpolate_degenerate_before_inconsistent(self):
        # the points fix no quadratic, whatever the values
        pts = [((Q(1), Q(1)), Q(1)), ((Q(2), Q(2)), Q(7)), ((Q(1), Q(1)), Q(2))]
        with pytest.raises(InterpolationError, match="do not determine"):
            lc.interpolate_homogeneous2(pts, 2)

    def test_interpolate_matches_rank_then_solve(self, rng):
        for degree in (2, 4, 6):
            p = lc.HomogeneousPolynomial2(degree, tuple(Q(int(c), 7) for c in rng.integers(-9, 10, degree + 1)))
            pts = [(Q(1), Q(int(s), 3)) for s in rng.permutation(40)[: degree + 4]]
            evals = [((x, y), p(x, y)) for x, y in pts]
            rows = [[x**a * y ** (degree - a) for a in range(degree + 1)] for x, y in pts]
            assert lc.rat_rank(rows) == degree + 1
            expected = lc.rat_solve(rows, [v for _, v in evals])
            assert lc.interpolate_homogeneous2(evals, degree).coeffs == tuple(expected) == p.coeffs
