"""Dense real and exact-rational linear algebra kernels.

Floating point paths are rank-revealing (SVD or certified QR) with the
relative threshold :data:`TAU_RANK`, which certificates record.  Exact
ranks, pivots and solves are one fraction-free Bareiss elimination of
the rows scaled to integers (:func:`_echelon`); exact Pfaffians are its
skew variant.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, InterpolationError

# the one relative singular-value cut of every numerical rank decision
TAU_RANK = 1e-9
# below this many columns one dense SVD is faster than finding and solving
# the independent blocks of :func:`nullspace` (timed per system shape; README)
BLOCK_MIN_COLS = 48


def as_matrix(a) -> np.ndarray:
    """Coerce to a float 2-D array, rejecting non-finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise InputError(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix entries must be finite")
    return m


def nullspace(A) -> np.ndarray:
    """Orthonormal basis (rows, ``(k, n)``) of the numerical nullspace of ``A``.

    Rank counts the singular values above ``TAU_RANK`` times the largest one.
    A system of at least ``BLOCK_MIN_COLS`` columns whose exact nonzero
    pattern falls apart into independent blocks is solved block by block
    (:func:`_block_nullspace`): the same rank and span, each basis vector
    supported on the columns of one block.
    """
    A = as_matrix(A)
    if A.size == 0 or not np.any(A):
        return np.eye(A.shape[1])
    if A.shape[1] >= BLOCK_MIN_COLS:
        row_block, col_block = _blocks(A != 0)
        if col_block.max() > 0:
            return _block_nullspace(A, row_block, col_block)
    # U is never used; a wide A still needs the full V for its nullspace
    _, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.sum(s > TAU_RANK * s[0]))
    return vt[rank:]


def _blocks(nz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The connected components of the nonzero pattern ``nz`` (columns
    linked through shared rows): the block of each row (-1 for a zero row)
    and of each column, blocks numbered in the order of their first columns.

    Every column starts labelled by itself and takes the smallest label
    among the columns it shares a row with, then the label of its label,
    until nothing changes; each column is then labelled by the first column
    of its block.
    """
    n = nz.shape[1]
    r, c = np.nonzero(nz)  # row-major: r is sorted
    new_row = np.diff(r, prepend=-1) != 0
    row_start = np.flatnonzero(new_row)
    row_of = np.cumsum(new_row) - 1  # position of each entry's row among the nonzero rows
    by_col = np.argsort(c, kind="stable")
    col_start = np.flatnonzero(np.diff(c[by_col], prepend=-1))
    cols = c[by_col[col_start]]
    label = np.arange(n)
    while True:
        row_min = np.minimum.reduceat(label[c], row_start)[row_of]
        new = label.copy()
        new[cols] = np.minimum(label[cols], np.minimum.reduceat(row_min[by_col], col_start))
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    col_block = (np.cumsum(label == np.arange(n)) - 1)[label]
    row_block = np.full(nz.shape[0], -1)
    row_block[r[row_start]] = col_block[c[row_start]]
    return row_block, col_block


def _block_nullspace(A: np.ndarray, row_block: np.ndarray, col_block: np.ndarray) -> np.ndarray:
    """:func:`nullspace` of ``A`` from its independent blocks (:func:`_blocks`),
    one stacked SVD per block shape.

    Every block is cut at ``TAU_RANK`` times the largest singular value over
    all blocks, which is the dense SVD's largest, so rank and span stay the
    dense path's; a cut per block would keep a block's own small values.
    Each block's null vectors go back into its own columns; an all-zero
    column is a block with no rows and gives a unit vector.
    """
    n = A.shape[1]
    rows = np.argsort(row_block, kind="stable")[np.count_nonzero(row_block < 0):]  # grouped by block
    cols = np.argsort(col_block, kind="stable")
    n_rows = np.bincount(row_block[row_block >= 0], minlength=col_block.max() + 1)
    n_cols = np.bincount(col_block)
    first_row, first_col = np.cumsum(n_rows) - n_rows, np.cumsum(n_cols) - n_cols
    solved = []
    for r, c in dict.fromkeys(zip(n_rows.tolist(), n_cols.tolist())):
        which = np.flatnonzero((n_rows == r) & (n_cols == c))
        R = rows[first_row[which, None] + np.arange(r)]
        C = cols[first_col[which, None] + np.arange(c)]
        _, s, vt = np.linalg.svd(A[R[:, :, None], C[:, None, :]], full_matrices=r < c)
        solved.append((C, s, vt))
    cut = TAU_RANK * max(s.max(initial=0.0) for _, s, _ in solved)
    basis = []
    for C, s, vt in solved:
        block, j = np.nonzero(np.arange(C.shape[1]) >= np.count_nonzero(s > cut, axis=1)[:, None])
        N = np.zeros((len(block), n))
        N[np.arange(len(block))[:, None], C[block]] = vt[block, j]
        basis.append(N)
    return np.concatenate(basis)


def least_squares(A, b) -> tuple[np.ndarray, float]:
    """Minimum-norm least squares solution of ``Ax = b`` and its residual,
    with the rank cut at ``TAU_RANK`` times the largest singular value."""
    A = as_matrix(A)
    b = np.asarray(b, dtype=float).ravel()
    if A.shape[0] != b.shape[0]:
        raise InputError(f"dimension mismatch: {A.shape[0]} rows vs {b.shape[0]} entries")
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=TAU_RANK)
    residual = float(np.linalg.norm(A @ x - b))
    return x, residual


def batch_residuals(A, b) -> np.ndarray:
    """Residuals of the stacked least-squares systems ``A[i] x = b[i]``.

    The residual is the distance from ``b[i]`` to the span of the left
    singular vectors of ``A[i]`` with singular values above ``TAU_RANK``
    times the largest, i.e. the residual that :func:`least_squares`
    reports.  Each system gets one R-only Householder QR of its columns
    mixed by a fixed random orthogonal matrix, which reveals its rank
    (:func:`_qr_residuals`); a system whose R does not prove the SVD's
    residual is retried with a second mixer, and only the systems left go
    through one stacked SVD.  Non-finite data raises InputError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 3 or b.shape != A.shape[:2]:
        raise InputError(f"expected stacked systems, got A {A.shape} and b {b.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise InputError("system entries must be finite")
    residual = np.linalg.norm(b, axis=1)  # the residual when there are no unknowns
    if len(A) and min(A.shape[1:]):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            anorm = np.linalg.norm(A, axis=(1, 2))
            res, certified = _qr_residuals(A, b, anorm, 0)
            retry = np.flatnonzero(~certified)
            if len(retry):
                res[retry], certified[retry] = _qr_residuals(A[retry], b[retry], anorm[retry], 1)
        residual[certified] = res[certified]
        if not certified.all():
            residual[~certified] = _svd_residuals(A[~certified], b[~certified])
    if not np.all(np.isfinite(residual)):
        raise InputError("least-squares residual is not finite")
    return residual


@functools.lru_cache(maxsize=64)
def _mixer(k: int, seed: int) -> np.ndarray:
    """A fixed random k x k orthogonal matrix, the Q of ``default_rng((k,
    seed))`` normals; built once per (k, seed) and read-only."""
    q = np.linalg.qr(np.random.default_rng((k, seed)).standard_normal((k, k)))[0]
    q.flags.writeable = False
    return q


# systems per np.linalg.qr call of _qr_residuals
_QR_SLICE = 64


def _qr_residuals(A, b, anorm, seed) -> tuple[np.ndarray, np.ndarray]:
    """Residuals from the R of ``[A[i] Ω | b[i]]`` (Ω = :func:`_mixer`), and
    which of them R proves to be the SVD's residual within ``1e-12 |b[i]|``.

    The rank rho is the leading run of ``|R_jj| > TAU_RANK |A|_F`` (|A|_F is
    ``anorm``), and the residual is ``|R[rho:, k]|``.  With ``R11 =
    R[:rho, :rho]``, ``R22 = R[rho:, rho:k]``, ``n = min(r, k)`` and u the
    unit round-off, R proves it when
    - ``|R22|_F <= TAU_RANK |A|_F / sqrt(n)``: the SVD keeps at most rho values;
    - ``(|R22|_F + n u |A|_F) |R11^-1|_F <= 1e-12``: the span of the first
      rho columns is within that angle of the SVD's (Wedin's sin theta
      theorem, with the QR's round-off added to R22).
    The second implies ``1/|R11^-1|_F > TAU_RANK |A|_F`` (the SVD keeps at
    least rho values): ``TAU_RANK |A|_F |R11^-1|_F <= 1e-12 TAU_RANK / (n
    u) < 1``.  Callers silence the floating-point warnings.
    """
    B, r, k = A.shape
    n = min(r, k)
    M = np.empty((B, r, k + 1))
    np.matmul(A, _mixer(k, seed), out=M[:, :, :k])
    M[:, :, k] = b
    # numpy copies its input and returns a new R: one slice at a time keeps
    # both slice-sized, and each slice's R overwrites its own systems
    rows = min(r, k + 1)
    for s in range(0, B, _QR_SLICE):
        M[s:s + _QR_SLICE, :rows] = np.linalg.qr(M[s:s + _QR_SLICE], mode="r")
    R = M[:, :rows]
    cut = TAU_RANK * anorm
    lead = np.logical_and.accumulate(np.abs(np.diagonal(R, axis1=1, axis2=2)[:, :n]) > cut[:, None], axis=1)
    inorm = _leading_inverse_norm(R, lead)
    trail = np.ones(R.shape[:2])
    trail[:, :n] = ~lead
    colsq = np.einsum("bi,bij->bj", trail, np.square(R, out=R))  # squared column norms of R[rho:]
    r22 = np.sqrt(colsq[:, :k].sum(axis=1))
    certified = r22 <= cut / math.sqrt(n)
    certified &= (r22 + n * np.finfo(float).eps / 2 * anorm) * inorm <= 1e-12
    return np.sqrt(colsq[:, k]), certified


def _leading_inverse_norm(R, lead) -> np.ndarray:
    """``|R11^-1|_F`` for the leading blocks R11 of a stack of upper
    triangular R, R11 spanning the rows and columns where ``lead`` is true
    (a leading run), by back substitution over the stack; inf or nan
    where R11^-1 overflows."""
    p = int(lead.sum(axis=1).max(initial=0))
    X = np.where(lead[:, None, :p], R[:, :p, :p], np.eye(p))  # R11 padded by the identity
    eye = np.eye(p)
    # row i of R11^-1 reads row i of R11 and the rows of R11^-1 below it,
    # so it overwrites row i of R11
    for i in range(p - 1, -1, -1):
        X[:, i] = (eye[i] - (X[:, i, None, i + 1:] @ X[:, i + 1:])[:, 0]) / X[:, i, i, None]
    X *= lead[:, :p, None]
    return np.sqrt(np.square(X, out=X).sum(axis=(1, 2)))


def _svd_residuals(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The residuals of :func:`batch_residuals` from one stacked SVD."""
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    if not np.all(np.isfinite(s)):
        raise InputError("singular values are not finite")
    coords = np.einsum("brk,br->bk", u, b) * (s > TAU_RANK * s[:, :1])
    residual = np.linalg.norm(b - np.einsum("brk,bk->br", u, coords), axis=1)
    if not np.all(np.isfinite(residual)):
        raise InputError("least-squares residual is not finite")
    return residual


# ---------------------------------------------------------------------------
# exact rational path
# ---------------------------------------------------------------------------


def _echelon(M) -> tuple[list[list[int]], list[int]]:
    """Integer echelon rows of a rational matrix and their pivot columns.

    Fraction-free Bareiss (1968) elimination on the rows scaled to
    integers: each pivot row is a rational combination of the rows of M,
    its entries left of its pivot column are zero, and dividing by the
    previous pivot is exact.  Rows of Python ints are taken as they are;
    only the other rows have their denominators cleared.  Zero rows are
    dropped as they appear, so the rows returned are the pivot rows.
    """
    rows = []
    for row in M:
        if all(type(x) is int for x in row):
            rows.append(list(row))
            continue
        fr = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in fr))
        rows.append([int(x * den) for x in fr])
    if not rows:
        return [], []
    ncols = len(rows[0])
    rows = [row for row in rows if any(row)]  # a zero row stays zero and never pivots
    prev = 1
    r = 0
    pivots = []
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv, tail = rows[r][c], rows[r][c:]
        below = []
        for ri in rows[r + 1:]:
            f = ri[c]
            if f:
                ri[c:] = [(piv * x - f * y) // prev for x, y in zip(ri[c:], tail)]
            else:
                ri[c:] = [piv * x // prev for x in ri[c:]]
            if any(ri[c + 1:]):
                below.append(ri)
        rows[r + 1:] = below
        prev = piv
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _back_substitute(rows, pivots, n) -> list[Fraction]:
    """The solution of the echelon system ``rows = [U | c]`` in ``n``
    unknowns with the free unknowns set to zero."""
    x = [Fraction(0)] * n
    for row, c in zip(reversed(rows), reversed(pivots)):
        x[c] = Fraction(row[n] - sum(row[j] * x[j] for j in range(c + 1, n)), row[c])
    return x


def bareiss_pivots(M) -> list[int]:
    """Pivot columns of a rational matrix, in order (:func:`_echelon`)."""
    return _echelon(M)[1]


def bareiss_rank(M) -> int:
    """Rank of an integer (or rational, after denominator clearing) matrix."""
    return len(_echelon(M)[1])


def bareiss_solve(M, b):
    """One exact solution of ``M x = b`` with the free unknowns set to zero,
    or ``None`` if the system is inconsistent.

    One :func:`_echelon` of ``[M | b]`` and a back substitution; a pivot
    in the right-hand column means inconsistent.
    """
    if len(M) != len(b):
        raise InputError(f"dimension mismatch: {len(M)} rows vs {len(b)} entries")
    n = len(M[0]) if len(M) else 0
    rows, pivots = _echelon([[*row, v] for row, v in zip(M, b)])
    if n in pivots:
        return None
    return _back_substitute(rows, pivots, n)


def pfaffian_exact(M) -> Fraction:
    """Exact Pfaffian of a rational skew-symmetric matrix.

    Fraction-free skew elimination on the matrix scaled to integers by the
    common denominator ``den`` of its entries, then Pf(M) = Pf(den M) /
    den^(n/2).  After the pivot block (k, k+1) the entry (i, j) is the
    Pfaffian of rows and columns {0, ..., k+1, i, j}, so dividing by the
    previous pivot is exact (the Pfaffian form of Bareiss 1968).  Python
    ints are taken as they are.
    """
    n = len(M)
    if n % 2 != 0:
        raise InputError("pfaffian needs even dimension")
    a = [[x if type(x) is int else Fraction(x) for x in row] for row in M]
    for i in range(n):
        for j in range(n):
            if a[i][j] != -a[j][i]:
                raise InputError("matrix is not skew-symmetric")
    den = math.lcm(*(x.denominator for row in a for x in row))
    if den != 1:
        a = [[int(x * den) for x in row] for row in a]
    sign, prev = 1, 1
    for k in range(0, n, 2):
        j = next((c for c in range(k + 1, n) if a[k][c] != 0), None)
        if j is None:
            return Fraction(0)
        if j != k + 1:
            a[k + 1], a[j] = a[j], a[k + 1]
            for row in a:
                row[k + 1], row[j] = row[j], row[k + 1]
            sign = -sign
        piv, rk, rk1 = a[k][k + 1], a[k], a[k + 1]
        for i in range(k + 2, n):
            ri = a[i]
            for j in range(i + 1, n):
                ri[j] = (piv * ri[j] - rk[i] * rk1[j] + rk[j] * rk1[i]) // prev
                a[j][i] = -ri[j]
        prev = piv
    return Fraction(sign * prev, den ** (n // 2))


# ---------------------------------------------------------------------------
# homogeneous bivariate polynomials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneousPolynomial2:
    """Homogeneous bivariate polynomial sum_a coeffs[a] * x^a * y^(degree-a).

    Coefficients may be floats or exact Fractions.
    """

    degree: int
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise InputError("need degree+1 coefficients")

    def __call__(self, x, y):
        return sum(c * x**a * y ** (self.degree - a) for a, c in enumerate(self.coeffs))

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, (Fraction, int)) for c in self.coeffs)

    def normalized_sign(self) -> "HomogeneousPolynomial2":
        """Flip the global sign so the leading nonzero coefficient is positive."""
        for c in self.coeffs:
            if c != 0:
                if c < 0:
                    return HomogeneousPolynomial2(self.degree, tuple(-v for v in self.coeffs))
                break
        return self

    def rounded(self) -> "HomogeneousPolynomial2":
        """The form with each coefficient rounded once to float; InputError past the float range."""
        try:
            return HomogeneousPolynomial2(self.degree, tuple(float(c) for c in self.coeffs))
        except OverflowError:
            raise InputError("a form coefficient is too large for a float") from None

    def substitute_linear(self, a, b, c, d) -> "HomogeneousPolynomial2":
        """Precompose with the substitution (x, y) -> (a x + b y, c x + d y).

        Computed on the exact values of the coefficients and of a, b, c, d;
        the result is rounded once to float unless all of them are exact.
        """
        exact = all(isinstance(v, (Fraction, int)) for v in (*self.coeffs, a, b, c, d))
        p = HomogeneousPolynomial2(self.degree, tuple(map(_exact, self.coeffs)))
        a, b, c, d = map(_exact, (a, b, c, d))
        evals = [((x, y), p(a * x + b * y, c * x + d * y)) for x, y in interpolation_points(self.degree)]
        q = interpolate_homogeneous2(evals, self.degree)
        return q if exact else q.rounded()


def _exact(v):
    """The exact value of an int, a Fraction or a finite float; InputError when it is not finite."""
    if isinstance(v, (int, Fraction)):
        return v
    if not math.isfinite(v):
        raise InputError("values must be finite")
    return Fraction(v)


def interpolation_points(degree: int) -> list:
    """The degree + 1 integer points (0, 1), (1, j) at which a form of ``degree`` is sampled."""
    return [(0, 1)] + [(1, j) for j in range(degree)]


def interpolate_homogeneous2(evals, degree: int) -> HomogeneousPolynomial2:
    """Recover a homogeneous bivariate polynomial from exact point evaluations.

    Every point coordinate and value must be an int or a Fraction
    (InputError otherwise).  One exact elimination of the augmented
    Vandermonde rows gives the rank and the consistency.
    """
    if degree < 0:
        raise InputError("degree must be non-negative")
    if len(evals) < degree + 1:
        raise InterpolationError(f"need at least {degree + 1} evaluation points")
    pts = [(p[0], p[1], v) for (p, v) in evals]
    if not all(isinstance(u, (int, Fraction)) for pt in pts for u in pt):
        raise InputError("interpolation needs exact points and values (int or Fraction)")
    rows, pivots = _echelon([[x**a * y ** (degree - a) for a in range(degree + 1)] + [v] for x, y, v in pts])
    if pivots[: degree + 1] != list(range(degree + 1)):
        raise InterpolationError("evaluation points do not determine the polynomial")
    if len(pivots) > degree + 1:
        raise InterpolationError("inconsistent evaluations")
    return HomogeneousPolynomial2(degree, tuple(_back_substitute(rows, pivots, degree + 1)))
