"""Fraction Gauss-Jordan kernels: the test oracles of the library's
fraction-free Bareiss elimination (``linear_core._echelon``)."""

from fractions import Fraction
from typing import Sequence

from nilgo.errors import InputError


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
        inv = Fraction(1) / m[r][c]  # exact also for an int pivot
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
