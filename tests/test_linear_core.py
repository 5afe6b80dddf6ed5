import itertools
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nilgo.linear_core as lc
from nilgo.errors import InputError, InterpolationError
from oracles import leading_inverse_norm_two_buffers, pfaffian_combinatorial, qr_residuals_whole_stack
from rational_oracles import rat_inv, rat_rank, rat_rref, rat_solve, rational_matrix


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
        assert lc.nullspace(np.eye(3)).shape == (0, 3)

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


class TestBlockNullspace:
    @staticmethod
    @st.composite
    def _block_systems(draw):
        """A block-diagonal matrix under random row and column permutations,
        with its exact null projector and the block of each column.

        Blocks are tall, wide or square, of any rank (a rank-0 block gives
        zero rows and zero columns), with singular values in [0.1, 1] times
        a block scale in [0.1, 1]; padded with generic blocks to at least
        BLOCK_MIN_COLS columns, or one generic block of that width.  Maybe
        one block has two values just above and just below the cut,
        TAU_RANK times the largest value of the whole matrix: a cut per
        block would keep both.  Returns the matrix scaled by 10^-8 .. 10^8,
        the exact null projector, the block of each column and the gap
        between the smallest kept and the largest dropped singular value.
        """
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        single = draw(st.booleans()) and draw(st.booleans())
        if single:
            shapes = [(draw(st.integers(20, 70)), draw(st.integers(lc.BLOCK_MIN_COLS, lc.BLOCK_MIN_COLS + 12)))]
        else:
            shapes = [(draw(st.integers(1, 7)), draw(st.integers(1, 7))) for _ in range(draw(st.integers(1, 8)))]
        blocks = []  # (singular values, rows, columns)
        for r, c in shapes:
            rank = draw(st.integers(0, min(r, c)))
            scale = gen.uniform(0.1, 1.0)
            blocks.append((scale * gen.uniform(0.1, 1.0, rank), r, c))
        smax = 1.0
        blocks[0][0][:1] = smax  # the largest value of the whole matrix, when block 0 has rank >= 1
        if not len(blocks[0][0]):
            blocks.append((np.array([smax]), 1, 1))
        near_cut = draw(st.booleans())
        if near_cut:
            above, below = draw(st.floats(1.05, 10.0)), draw(st.floats(0.1, 0.95))
            blocks.append((lc.TAU_RANK * smax * np.array([above, below]), 3, 2))
        while sum(c for *_, c in blocks) < lc.BLOCK_MIN_COLS and not single:
            blocks.append((gen.uniform(0.1, 1.0, 3), 3, 4))
        m, n = sum(r for _, r, _ in blocks), sum(c for *_, c in blocks)
        A, P, col_block = np.zeros((m, n)), np.zeros((n, n)), np.zeros(n, dtype=int)
        cut, kept, dropped = lc.TAU_RANK * smax, [], [0.0]
        i = j = 0
        for b, (s, r, c) in enumerate(blocks):
            U = np.linalg.qr(gen.standard_normal((r, r)))[0][:, : len(s)]
            V = np.linalg.qr(gen.standard_normal((c, c)))[0]
            A[i : i + r, j : j + c] = (U * s) @ V[:, : len(s)].T
            null = V[:, np.count_nonzero(s > cut) :]
            P[j : j + c, j : j + c] = null @ null.T
            col_block[j : j + c] = b
            kept += list(s[s > cut])
            dropped += list(s[s <= cut])
            i, j = i + r, j + c
        rows, cols = gen.permutation(m), gen.permutation(n)
        A, P, col_block = A[rows][:, cols], P[cols][:, cols], col_block[cols]
        return 10.0 ** draw(st.integers(-8, 8)) * A, P, col_block, min(kept) - max(dropped)

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(_block_systems())
    def test_matches_the_dense_svd(self, system):
        A, P, col_block, gap = system
        N = lc.nullspace(A)
        _, s, vt = np.linalg.svd(A, full_matrices=True)
        dense = vt[np.count_nonzero(s > lc.TAU_RANK * s[0]) :]
        assert len(N) == len(dense) == round(np.trace(P))
        assert np.allclose(N @ N.T, np.eye(len(N)), rtol=0, atol=1e-12)
        assert np.allclose(N.T @ N, P, rtol=0, atol=1e-12)
        # the dense SVD is only as exact as its round-off (about n eps |A|,
        # |A| = 1 before the scaling) allows across the gap at the cut
        # (Wedin's sin theta theorem): about 1e-7 for the near-cut block
        n = A.shape[1]
        assert np.allclose(N.T @ N, dense.T @ dense, rtol=0, atol=1e-12 + n * np.finfo(float).eps / gap)
        if len(set(col_block)) > 1:  # the block path: each vector on one block
            assert all(len(set(col_block[v != 0])) == 1 for v in N)


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
        yield np.zeros((0, 5, 3)), np.zeros((0, 5))  # no systems
        consistent = rng.standard_normal((4, 6, 3))
        yield consistent, np.einsum("bij,bj->bi", consistent, rng.standard_normal((4, 3)))

    def test_matches_least_squares(self, rng):
        for A, b in self._stacks(rng):
            res = lc.batch_residuals(A, b)
            for i in range(len(A)):
                _, ref = lc.least_squares(A[i], b[i])
                assert abs(res[i] - ref) <= 1e-12 * max(1.0, np.linalg.norm(b[i]))

    @staticmethod
    def _null_stacks(rng):
        """Stacks whose columns lie in the complement of c orthonormal
        directions (one zero direction in the first system), so of rank
        min(r - c, k) below full row rank, tall and wide."""
        for B, r, c, k in [(6, 9, 2, 7), (5, 9, 2, 12), (4, 6, 1, 8), (5, 8, 2, 6), (4, 9, 3, 9)]:
            W = np.linalg.qr(rng.standard_normal((B, r, c)))[0]
            W[0, :, -1] = 0.0
            A = rng.standard_normal((B, r, k))
            A -= W @ (W.transpose(0, 2, 1) @ A)
            yield A, rng.standard_normal((B, r))

    def test_matches_least_squares_below_full_rank(self, rng, monkeypatch):
        svd_rows = []
        svd = lc._svd_residuals
        monkeypatch.setattr(lc, "_svd_residuals", lambda A, b: svd_rows.append(len(A)) or svd(A, b))
        systems = 0
        for A, b in self._null_stacks(rng):
            res = lc.batch_residuals(A, b)
            systems += len(A)
            for i in range(len(A)):
                _, ref = lc.least_squares(A[i], b[i])
                assert abs(res[i] - ref) <= 1e-12 * max(1.0, np.linalg.norm(b[i]))
        assert sum(svd_rows) <= systems // 4  # the mixed QR certifies most of them

    @staticmethod
    def _permuted_diagonal(rng, r, k, sv):
        """An r x k matrix with singular values sv on permuted rows and
        columns, with random signs, so that QR and SVD run without rounding."""
        A = np.zeros((r, k))
        rows, cols = rng.permutation(r)[:len(sv)], rng.permutation(k)[:len(sv)]
        A[rows, cols] = np.asarray(sv) * rng.choice([-1.0, 1.0], len(sv))
        return A, rows

    @pytest.mark.parametrize("ratio", [1e-8, 2e-9, 1.2e-9, 5e-10, 1e-10, 1e-13])
    def test_boundary_full_column_rank(self, rng, ratio):
        stack = [self._permuted_diagonal(rng, 7, 4, [3.0, 1.0, 1.0, 3.0 * ratio])[0] for _ in range(5)]
        A, b = np.array(stack), rng.standard_normal((5, 7))
        assert np.allclose(lc.batch_residuals(A, b), lc._svd_residuals(A, b), rtol=0, atol=1e-12 * np.abs(b).sum())

    @pytest.mark.parametrize("ratio", [1e-8, 2e-9, 1.2e-9, 5e-10, 1e-10, 1e-13])
    def test_boundary_structural_rank(self, rng, ratio):
        # two empty rows, and a trailing singular value at ratio times the largest
        stack = [self._permuted_diagonal(rng, 7, 6, [3.0, 1.0, 1.0, 2.0, 3.0 * ratio])[0] for _ in range(5)]
        A, b = np.array(stack), rng.standard_normal((5, 7))
        assert np.allclose(lc.batch_residuals(A, b), lc._svd_residuals(A, b), rtol=0, atol=1e-12 * np.abs(b).sum())

    @pytest.mark.parametrize("ratio", [2e-9, 1.2e-9, 1e-9, 8e-10])
    def test_unproven_rank_falls_back_to_the_svd(self, rng, monkeypatch, ratio):
        # a trailing singular value this close to the cut leaves the rank to the SVD
        svd_rows = []
        svd = lc._svd_residuals
        monkeypatch.setattr(lc, "_svd_residuals", lambda A, b: svd_rows.append(len(A)) or svd(A, b))
        A = np.array([self._permuted_diagonal(rng, 7, 6, [3.0, 1.0, 2.0, 3.0 * ratio])[0] for _ in range(4)])
        b = rng.standard_normal((4, 7))
        assert np.array_equal(lc.batch_residuals(A, b), svd(A, b))
        assert svd_rows == [4]

    @staticmethod
    @st.composite
    def _ranked_stacks(draw):
        """Stacks of a chosen rank, tall or wide, with singular values spread
        over up to 10^spread, maybe one trailing value near the cut, maybe
        a zero row and a zero column, scaled by 10^-8 .. 10^8."""
        r, k = draw(st.integers(1, 10)), draw(st.integers(1, 10))
        rank = draw(st.integers(0, min(r, k)))
        spread = draw(st.sampled_from([0.5, 2.0, 4.0]))
        trail = draw(st.sampled_from([None, 1e-8, 1.2e-9, 1e-9, 8e-10, 1e-13]))
        zero_row, zero_col = draw(st.booleans()), draw(st.booleans())
        scale = 10.0 ** draw(st.integers(-8, 8))
        gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        s = np.sort(10.0 ** -gen.uniform(0, spread, (3, rank)), axis=1)[:, ::-1]
        if trail is not None and rank < min(r, k):
            s = np.concatenate([s, s[:, :1] * trail], axis=1)
        U = np.linalg.qr(gen.standard_normal((3, r, r)))[0][:, :, :s.shape[1]]
        V = np.linalg.qr(gen.standard_normal((3, k, k)))[0][:, :, :s.shape[1]]
        A = (U * s[:, None, :]) @ V.transpose(0, 2, 1)
        if zero_row:
            A[:, gen.integers(r)] = 0.0
        if zero_col:
            A[:, :, gen.integers(k)] = 0.0
        return scale * A, scale * gen.standard_normal((3, r))

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_ranked_stacks())
    def test_matches_the_svd(self, stack):
        A, b = stack
        err = np.abs(lc.batch_residuals(A, b) - lc._svd_residuals(A, b))
        assert np.all(err <= 1e-12 * np.linalg.norm(b, axis=1))

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

    @staticmethod
    def _slice_stacks(rng, B):
        """Stacks of B systems: tall, wide, of rank 2 of 5 columns, and with a
        trailing singular value near the cut, which the first mixer leaves
        to the second or to the SVD."""
        yield rng.standard_normal((B, 9, 4)), rng.standard_normal((B, 9))
        yield rng.standard_normal((B, 3, 7)), rng.standard_normal((B, 3))
        yield rng.standard_normal((B, 8, 2)) @ rng.standard_normal((B, 2, 5)), rng.standard_normal((B, 8))
        ratios = rng.choice([1e-8, 2e-9, 1.2e-9, 1e-9, 8e-10, 1e-13], B)
        near = [TestBatchResiduals._permuted_diagonal(rng, 7, 6, [3.0, 1.0, 2.0, 3.0 * q])[0] for q in ratios]
        yield np.array(near), rng.standard_normal((B, 7))

    @pytest.mark.parametrize("B", [1, 63, 64, 65, 129, 256, 257])
    def test_qr_slices_match_the_whole_stack(self, rng, monkeypatch, B):
        # the QR runs over slices of the stack and R11^-1 overwrites R11:
        # residuals, flags and errors are those of one QR call, byte for byte
        sliced = lc._qr_residuals
        retried = False
        # the overflowing scales make inf and nan on both sides
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for A, b in self._slice_stacks(rng, B):
                retried |= not sliced(A, b, np.linalg.norm(A, axis=(1, 2)), 0)[1].all()
                scales = [np.ones(B), 10.0 ** rng.uniform(-300, 300, B), np.full(B, 1e-300), np.full(B, 1e300)]
                for s in scales:
                    As, bs = A * s[:, None, None], b * s[:, None]
                    anorm = np.linalg.norm(As, axis=(1, 2))
                    for seed in (0, 1):
                        got = sliced(As, bs, anorm, seed)
                        want = qr_residuals_whole_stack(As, bs, anorm, seed)
                        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]
                    outcomes = []
                    for kernel in (sliced, qr_residuals_whole_stack):
                        monkeypatch.setattr(lc, "_qr_residuals", kernel)
                        try:
                            outcomes.append(lc.batch_residuals(As, bs).tobytes())
                        except InputError as e:
                            outcomes.append(str(e))
                    assert outcomes[0] == outcomes[1]
        assert retried  # some system needed the second mixer

    def test_leading_inverse_norm_mixed_runs(self, rng):
        # leading runs of 4, 2, 0, 5 and 1 of 5, and rows past the run that
        # would change the inverse if they were read
        R = np.triu(rng.standard_normal((5, 6, 6))) + 3 * np.eye(6)
        runs = [4, 2, 0, 5, 1]
        lead = np.arange(5) < np.array(runs)[:, None]
        ref = [np.linalg.norm(np.linalg.inv(R[i, :p, :p])) if p else 0.0 for i, p in enumerate(runs)]
        inorm = lc._leading_inverse_norm(R, lead)
        assert np.allclose(inorm, ref, rtol=1e-13, atol=0)
        assert inorm.tobytes() == leading_inverse_norm_two_buffers(R, lead).tobytes()  # R11^-1 in place
        assert inorm[2] == 0.0
        assert lc._leading_inverse_norm(R[:, :0, :0], np.zeros((5, 0), bool)).tolist() == [0.0] * 5

    def test_leading_inverse_norm_overflow(self):
        # R11^-1 has entries (1e-200)^-2 past the largest float
        R = np.array([[[1e-200, 1.0], [0.0, 1e-200]], [[1.0, 0.0], [0.0, 1.0]]])
        lead = np.ones((2, 2), bool)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inorm = lc._leading_inverse_norm(R, lead)
            assert inorm.tobytes() == leading_inverse_norm_two_buffers(R, lead).tobytes()
        assert not np.isfinite(inorm[0])
        assert inorm[1] == np.sqrt(2.0)

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
            assert lc.bareiss_pivots(M) == rat_rref(rational_matrix(M))[1]

    def test_integer_rows_are_not_converted(self, monkeypatch):
        def no_fraction(*args):
            raise AssertionError("integer rows must not go through Fraction")

        monkeypatch.setattr(lc, "Fraction", no_fraction)
        assert lc.bareiss_pivots([[2, 4, 0], [1, 2, 1], [0, 0, 0]]) == [0, 2]


class TestPfaffian:
    def test_two_by_two(self):
        S = np.array([[0.0, 5.0], [-5.0, 0.0]])
        assert lc.pfaffian_exact(S) == 5
        assert np.isclose(pfaffian_combinatorial(S), 5.0)

    def test_matches_combinatorial(self, rng):
        # the float matrices at their exact values, against the expansion in Fractions
        for n in (2, 4, 6):
            for _ in range(5):
                S = random_skew(rng, n)
                assert lc.pfaffian_exact(S) == pfaffian_combinatorial(np.vectorize(Q, otypes=[object])(S))

    def test_square_is_determinant(self, rng):
        S = random_skew(rng, 8)
        assert np.isclose(float(lc.pfaffian_exact(S)) ** 2, np.linalg.det(S))

    def test_odd_dimension_rejected(self):
        with pytest.raises(InputError):
            lc.pfaffian_exact(np.zeros((3, 3)))

    def test_not_skew_rejected(self):
        with pytest.raises(InputError):
            lc.pfaffian_exact(np.eye(2))

    @pytest.mark.parametrize("s", [1e-20, 1e-8, 1.0, 1e8])
    def test_skewness_is_relative(self, s):
        S = np.array([[0.0, 1.0], [-0.8, 0.0]])  # off skew by a fifth of its norm
        with pytest.raises(InputError):
            lc.pfaffian_exact(s * S)
        assert lc.pfaffian_exact(s * np.array([[0.0, 1.0], [-1.0, 0.0]])) == s
        assert lc.pfaffian_exact(np.zeros((2, 2))) == 0

    def test_exact(self):
        S = [[Q(0), Q(1, 2), Q(3), Q(0)],
             [Q(-1, 2), Q(0), Q(1), Q(2)],
             [Q(-3), Q(-1), Q(0), Q(5)],
             [Q(0), Q(-2), Q(-5), Q(0)]]
        pf = lc.pfaffian_exact(S)
        assert pf == Q(1, 2) * Q(5) - Q(3) * Q(2) + Q(0) * Q(1)
        dense = np.array([[float(x) for x in row] for row in S])  # dyadic entries: the same values
        assert lc.pfaffian_exact(dense) == pf

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
        M = rational_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        assert rat_rank(M) == 2

    def test_rref_on_mixed_int_and_fraction_rows(self):
        # an int pivot must not turn the elimination into floats
        M = [[3, Q(7, 3), 0, Q(7, 3)], [1, 0, 0, 0], [0, 1, 0, 1]]
        assert rat_rank(M) == 2
        assert all(type(x) is Q for row in rat_rref(M)[0] for x in row)

    def test_inv_solve(self):
        M = rational_matrix([[2, 1], [1, 1]])
        inv = rat_inv(M)
        prod = [[sum(M[i][k] * inv[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        assert prod == [[1, 0], [0, 1]]
        x = rat_solve(M, [Q(3), Q(2)])
        assert x == [Q(1), Q(1)]

    def test_solve_inconsistent(self):
        M = rational_matrix([[1, 1], [1, 1]])
        assert rat_solve(M, [Q(0), Q(1)]) is None

    def test_bareiss_rank(self):
        M = rational_matrix([[1, 2, 3], [2, 4, 6], [0, 1, 1], [1, 0, 1]])
        assert lc.bareiss_rank(M) == rat_rank(M)

    def test_bareiss_rank_with_fractions(self):
        M = [[Q(1, 2), Q(1, 3)], [Q(1, 4), Q(1, 6)]]
        assert lc.bareiss_rank(M) == 1

    def test_bareiss_pivots_match_rref(self):
        M = rational_matrix([[0, 2, 3, 1], [0, 4, 6, 2], [0, 1, 1, Q(1, 3)], [0, 0, 0, 5]])
        assert lc.bareiss_pivots(M) == rat_rref(M)[1] == [1, 2, 3]
        assert lc.bareiss_pivots([]) == []

    def test_bareiss_solve_singular_square(self):
        M = [[1, 2], [2, 4]]
        assert lc.bareiss_solve(M, [1, 2]) == [1, 0]  # the free unknown is zero
        assert lc.bareiss_solve(M, [1, 3]) is None

    def test_bareiss_solve_wide(self):
        M = [[1, 2, 3], [0, 1, 1]]
        x = lc.bareiss_solve(M, [Q(1, 2), 2])
        assert x == [Q(-7, 2), 2, 0]
        assert [sum(m * v for m, v in zip(row, x)) for row in M] == [Q(1, 2), 2]

    def test_bareiss_solve_tall(self):
        M = [[1, 0], [0, 1], [1, 1]]
        assert lc.bareiss_solve(M, [1, 2, 3]) == [1, 2]
        assert lc.bareiss_solve(M, [1, 2, 4]) is None

    def test_bareiss_solve_zero_matrix(self):
        assert lc.bareiss_solve([[0, 0], [0, 0]], [0, 0]) == [0, 0]
        assert lc.bareiss_solve([[0, 0], [0, 0]], [0, Q(1, 3)]) is None

    def test_bareiss_solve_empty(self):
        assert lc.bareiss_solve([], []) == []
        assert lc.bareiss_solve([[], []], [0, 0]) == []
        assert lc.bareiss_solve([[], []], [0, 1]) is None

    def test_bareiss_solve_length_mismatch(self):
        with pytest.raises(InputError):
            lc.bareiss_solve([[1, 0], [0, 1]], [1])


class TestBareissSolve:
    @st.composite
    def _systems(draw):
        """Rational M and b, with maybe a row and a column of M that combine
        two others, and b either M times a rational vector or free."""
        import random

        r, k = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        gen = random.Random(draw(st.integers(0, 2**32 - 1)))
        pool = [0, 0, 1, -1, 2, -3, 4, Q(1, 2), Q(-2, 3), Q(5, 3)]
        q = lambda: gen.choice(pool)
        M = [[q() for _ in range(k)] for _ in range(r)]
        if r > 2 and draw(st.booleans()):
            a, c = q(), q()
            M[-1] = [a * x + c * y for x, y in zip(M[0], M[1])]
        if k > 2 and draw(st.booleans()):
            a, c = q(), q()
            for row in M:
                row[-1] = a * row[0] + c * row[1]
        if draw(st.booleans()):
            x = [q() for _ in range(k)]
            b = [sum(m * v for m, v in zip(row, x)) for row in M]
        else:
            b = [q() for _ in range(r)]
        return M, b

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_systems())
    def test_matches_fraction_rref(self, system):
        M, b = system
        x = lc.bareiss_solve(M, b)
        assert (x is None) == (rat_solve(rational_matrix(M), b) is None)
        if x is not None:
            assert [sum(m * v for m, v in zip(row, x)) for row in M] == b
        assert lc.bareiss_rank(M) == rat_rank(rational_matrix(M))


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_substitute_linear_rejects_non_finite_values(self, bad):
        with pytest.raises(InputError):
            lc.HomogeneousPolynomial2(2, (1.0, bad, 0.0)).substitute_linear(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(InputError):
            lc.HomogeneousPolynomial2(2, (Q(1), Q(0), Q(1))).substitute_linear(Q(1), bad, Q(0), Q(1))

    def test_rounded_past_float_range(self):
        with pytest.raises(InputError, match="too large for a float"):
            lc.HomogeneousPolynomial2(1, (Q(10) ** 400, Q(1))).rounded()

    def test_interpolate_exact(self):
        p = lc.HomogeneousPolynomial2(3, (Q(1), Q(-2), Q(0), Q(5)))
        pts = [(Q(0), Q(1)), (Q(1), Q(0)), (Q(1), Q(1)), (Q(1), Q(2))]
        rec = lc.interpolate_homogeneous2([((x, y), p(x, y)) for x, y in pts], 3)
        assert rec.coeffs == p.coeffs
        assert rec.is_exact

    def test_interpolate_float(self):
        # a float point coordinate or value is rejected, even one with an exact value
        p = lc.HomogeneousPolynomial2(2, (Q(1), Q(2), Q(3)))
        evals = [((x, y), p(x, y)) for x, y in [(0, 1), (1, 0), (1, 1), (2, 1)]]
        for i, j in itertools.product(range(len(evals)), range(3)):
            bad = [[x, y, v] for (x, y), v in evals]
            bad[i][j] = float(bad[i][j])
            with pytest.raises(InputError, match="exact"):
                lc.interpolate_homogeneous2([((x, y), v) for x, y, v in bad], 2)

    def test_interpolate_rejects_non_finite_values(self):
        pts = [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        for bad in (float("nan"), float("inf")):
            with pytest.raises(InputError):
                lc.interpolate_homogeneous2([(p, v) for p, v in zip(pts, [1.0, bad, 2.0])], 1)

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

    def test_interpolate_inconsistent_at_small_scale(self):
        # the data of test_interpolate_inconsistent, values scaled by 10^-12
        pts = [((Q(0), Q(1)), Q(1)), ((Q(1), Q(0)), Q(2)), ((Q(1), Q(1)), Q(3)), ((Q(1), Q(2)), Q(5))]
        with pytest.raises(InterpolationError, match="inconsistent"):
            lc.interpolate_homogeneous2([(p, v / 10**12) for p, v in pts], 1)

    def test_interpolate_at_small_points(self):
        # a quartic sampled at points scaled by 10^-5: the values are about 10^-20
        p = lc.HomogeneousPolynomial2(4, (Q(1), Q(-2), Q(1, 2), Q(3), Q(1)))
        pts = [(Q(x, 10**5), Q(y, 10**5)) for x, y in [(0, 1), (1, 0), (1, 1), (1, 2), (1, -1), (2, 1)]]
        rec = lc.interpolate_homogeneous2([((x, y), p(x, y)) for x, y in pts], 4)
        assert rec.coeffs == p.coeffs

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
            assert rat_rank(rows) == degree + 1
            expected = rat_solve(rows, [v for _, v in evals])
            assert lc.interpolate_homogeneous2(evals, degree).coeffs == tuple(expected) == p.coeffs
