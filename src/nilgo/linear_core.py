"""Dense real and exact-rational linear algebra kernels.

Floating point paths are rank-revealing (SVD based) with an explicit
relative threshold ``tau_rank`` that every caller passes, so certificates
can record it.  The rational path works on nested lists of
:class:`fractions.Fraction` and is the in-repo oracle for derived values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError, InterpolationError

DEFAULT_TAU_RANK = 1e-9


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


def nullspace(A, tau_rank: float = DEFAULT_TAU_RANK) -> list[np.ndarray]:
    """Orthonormal basis of the numerical nullspace of ``A``.

    Rank is decided by singular values relative to the largest one.
    """
    if tau_rank <= 0:
        raise InputError("tau_rank must be positive")
    A = as_matrix(A)
    if A.size == 0 or not np.any(A):
        return [e for e in np.eye(A.shape[1])]
    # U is never used; a wide A still needs the full V for its nullspace
    _, s, vt = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    cutoff = tau_rank * s[0]
    rank = int(np.sum(s > cutoff))
    return [vt[i] for i in range(rank, A.shape[1])]


def least_squares(A, b) -> tuple[np.ndarray, float]:
    """Minimum-norm least squares solution of ``Ax = b`` and its residual."""
    A = as_matrix(A)
    b = np.asarray(b, dtype=float).ravel()
    if A.shape[0] != b.shape[0]:
        raise InputError(f"dimension mismatch: {A.shape[0]} rows vs {b.shape[0]} entries")
    x, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.linalg.norm(A @ x - b))
    return x, residual


def batch_residuals(A, b, tau_rank: float = DEFAULT_TAU_RANK) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and effective condition numbers of the stacked systems ``A[i] x = b[i]``.

    One stacked SVD serves both.  The residual is the distance from
    ``b[i]`` to the numerical column space of ``A[i]``, with the rank
    cutoff of ``np.linalg.lstsq(rcond=None)`` (singular values above
    ``eps * max(rows, cols) * s_max``), i.e. the residual that
    :func:`least_squares` reports.  The effective condition number is
    ``s_max`` over the smallest singular value above ``tau_rank * s_max``,
    and 1 for a zero matrix.  Non-finite data raises InputError.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 3 or b.shape != A.shape[:2]:
        raise InputError(f"expected stacked systems, got A {A.shape} and b {b.shape}")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise InputError("system entries must be finite")
    rows, cols = A.shape[1:]
    if cols == 0:
        return np.linalg.norm(b, axis=1), np.ones(len(A))
    u, s, _ = np.linalg.svd(A, full_matrices=False)
    if not np.all(np.isfinite(s)):
        raise InputError("singular values are not finite")
    top = s[:, :1]
    coords = np.einsum("brk,br->bk", u, b) * (s > np.finfo(float).eps * max(rows, cols) * top)
    residual = np.linalg.norm(b - np.einsum("brk,bk->br", u, coords), axis=1)
    if not np.all(np.isfinite(residual)):
        raise InputError("least-squares residual is not finite")
    smallest = np.where(s > tau_rank * top, s, np.inf).min(axis=1)
    cond = np.where(top[:, 0] > 0.0, top[:, 0] / smallest, 1.0)
    return residual, cond


def _check_skew(S: np.ndarray) -> np.ndarray:
    S = as_matrix(S)
    n, m = S.shape
    if n != m:
        raise InputError("pfaffian needs a square matrix")
    if n % 2 != 0:
        raise InputError("pfaffian needs even dimension")
    scale = np.linalg.norm(S)
    if np.linalg.norm(S + S.T) > 1e-12 * max(scale, 1.0):
        raise InputError("matrix is not skew-symmetric")
    return S


def pfaffian_numeric(S) -> float:
    """Pfaffian of a skew-symmetric matrix.

    Uses skew-symmetric elimination (Parlett--Reid) with full pivoting;
    Pf of the 2x2 block [[0, a], [-a, 0]] is a.
    """
    S = _check_skew(S)
    A = S.copy()
    n = A.shape[0]
    pf = 1.0
    for k in range(0, n, 2):
        # pivot: bring the largest entry of row k into position (k, k+1)
        j = k + 1 + int(np.argmax(np.abs(A[k, k + 1:])))
        if A[k, j] == 0.0:
            return 0.0
        if j != k + 1:
            A[[k + 1, j]] = A[[j, k + 1]]
            A[:, [k + 1, j]] = A[:, [j, k + 1]]
            pf = -pf
        pivot = A[k, k + 1]
        pf *= pivot
        if k + 2 < n:
            f = A[k, k + 2:] / pivot
            A[k + 2:, :] -= np.outer(f, A[k + 1, :])
            A[:, k + 2:] -= np.outer(A[:, k + 1], f)
    return float(pf)


def pfaffian_combinatorial(S) -> float:
    """Recursive expansion along the first row; kept as a cross-check (dim <= 6)."""
    S = _check_skew(S)
    if S.shape[0] > 6:
        raise InputError("combinatorial expansion is limited to dimension 6")

    def rec(a: np.ndarray) -> float:
        n = a.shape[0]
        if n == 0:
            return 1.0
        total = 0.0
        rest = list(range(1, n))
        for pos, j in enumerate(rest):
            keep = [i for i in rest if i != j]
            sub = a[np.ix_(keep, keep)]
            total += (-1.0) ** pos * a[0, j] * rec(sub)
        return total

    return float(rec(S))


# ---------------------------------------------------------------------------
# exact rational path
# ---------------------------------------------------------------------------

RationalMatrix = list  # nested lists of Fraction; helpers below construct them


def rational_matrix(rows) -> list[list[Fraction]]:
    """Build a rational matrix from any nested numeric data."""
    out = []
    width = None
    for row in rows:
        r = [Fraction(x) for x in row]
        if width is None:
            width = len(r)
        elif len(r) != width:
            raise InputError("ragged rational matrix")
        out.append(r)
    return out


def rat_rref(M: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (copy) and pivot column indices."""
    m = [row[:] for row in M]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rat_rank(M: list[list[Fraction]]) -> int:
    return len(rat_rref(M)[1])


def rat_solve(M: list[list[Fraction]], b: Sequence[Fraction]):
    """One exact solution of ``Mx = b``, or ``None`` if inconsistent."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    aug = [list(M[i]) + [Fraction(b[i])] for i in range(rows)]
    rref, pivots = rat_rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = rref[r][cols]
    return x


def rat_inv(M: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(M)
    aug = [[Fraction(M[i][j]) for j in range(n)] + [Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    rref, pivots = rat_rref(aug)
    if pivots[:n] != list(range(n)):
        raise InputError("matrix is singular")
    return [row[n:] for row in rref]


def bareiss_pivots(M) -> list[int]:
    """Pivot columns of a rational matrix, in order.

    Fraction-free Bareiss elimination on the rows scaled to integers;
    much faster than Fraction rref on the large witness-verification
    systems.  Rows of Python ints are taken as they are; only the other
    rows have their denominators cleared.
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
        return []
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
    return pivots


def bareiss_rank(M) -> int:
    """Rank of an integer (or rational, after denominator clearing) matrix."""
    return len(bareiss_pivots(M))


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

    def float_coeffs(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs])

    def normalized_sign(self) -> "HomogeneousPolynomial2":
        """Flip the global sign so the leading nonzero coefficient is positive."""
        for c in self.coeffs:
            if c != 0:
                if c < 0:
                    return HomogeneousPolynomial2(self.degree, tuple(-v for v in self.coeffs))
                break
        return self

    def substitute_linear(self, a, b, c, d) -> "HomogeneousPolynomial2":
        """Precompose with the substitution (x, y) -> (a x + b y, c x + d y)."""
        exact = self.is_exact and all(isinstance(v, (Fraction, int)) for v in (a, b, c, d))
        zero = Fraction(0) if exact else 0.0
        out = [zero] * (self.degree + 1)
        one = Fraction(1) if exact else 1.0
        for k, coef in enumerate(self.coeffs):
            if coef == 0:
                continue
            # (a x + b y)^k * (c x + d y)^(degree-k), expanded by convolution
            poly = [one]
            for _ in range(k):
                poly = _mul_linear(poly, a, b, zero)
            for _ in range(self.degree - k):
                poly = _mul_linear(poly, c, d, zero)
            for i, v in enumerate(poly):
                # poly[i] is the coefficient of x^(len-1-i) y^i; map into x^a y^(d-a)
                xp = len(poly) - 1 - i
                out[xp] = out[xp] + coef * v
        return HomogeneousPolynomial2(self.degree, tuple(out))


def _mul_linear(poly, u, v, zero):
    # poly is a dense coefficient list for powers of (x, y) with poly[i] the
    # coefficient of x^(len-1-i) y^i; multiply by (u x + v y)
    out = [zero] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i] = out[i] + c * u
        out[i + 1] = out[i + 1] + c * v
    return out


def interpolate_homogeneous2(evals, degree: int) -> HomogeneousPolynomial2:
    """Recover a homogeneous bivariate polynomial from point evaluations.

    Uses exact rational solving whenever every input is rational, otherwise
    floating least squares with a consistency check at 1e-9 relative.
    """
    if degree < 0:
        raise InputError("degree must be non-negative")
    if len(evals) < degree + 1:
        raise InterpolationError(f"need at least {degree + 1} evaluation points")
    pts = [(p[0], p[1], v) for (p, v) in evals]
    exact = all(
        isinstance(x, (int, Fraction)) and isinstance(y, (int, Fraction)) and isinstance(v, (int, Fraction))
        for x, y, v in pts
    )
    if exact:
        # one elimination of the augmented Vandermonde rows gives the rank and the consistency
        aug = [[Fraction(x) ** a * Fraction(y) ** (degree - a) for a in range(degree + 1)] + [Fraction(v)]
               for x, y, v in pts]
        rref, pivots = rat_rref(aug)
        if pivots[: degree + 1] != list(range(degree + 1)):
            raise InterpolationError("evaluation points do not determine the polynomial")
        if len(pivots) > degree + 1:
            raise InterpolationError("inconsistent evaluations")
        return HomogeneousPolynomial2(degree, tuple(row[degree + 1] for row in rref[: degree + 1]))
    A = np.array([[float(x) ** a * float(y) ** (degree - a) for a in range(degree + 1)] for x, y, v in pts])
    b = np.array([float(v) for _, _, v in pts])
    if np.linalg.matrix_rank(A, tol=1e-12 * max(1.0, np.linalg.norm(A))) < degree + 1:
        raise InterpolationError("evaluation points do not determine the polynomial")
    coeffs, residual = least_squares(A, b)
    if residual > 1e-9 * max(1.0, np.linalg.norm(b)):
        raise InterpolationError("inconsistent evaluations")
    return HomogeneousPolynomial2(degree, tuple(float(c) for c in coeffs))
