"""Reference objects of the unit tests: the combinatorial Pfaffian, the
oracle of ``linear_core.pfaffian_exact``, and the diagonal centralizer of
the 4k+6 family."""

import numpy as np

from nilgo.families import r_matrix
from nilgo.operator_subspaces import SkewOperatorSubspace


def pfaffian_combinatorial(S):
    """Recursive expansion of the Pfaffian of a skew matrix along its first
    row (dim <= 6), in the arithmetic of its entries: exact on Fractions."""
    S = np.asarray(S)
    assert S.shape[0] <= 6, "combinatorial expansion is limited to dimension 6"

    def rec(a: np.ndarray):
        n = a.shape[0]
        if n == 0:
            return 1
        total = 0
        rest = list(range(1, n))
        for pos, j in enumerate(rest):
            keep = [i for i in rest if i != j]
            sub = a[np.ix_(keep, keep)]
            total += (-1) ** pos * a[0, j] * rec(sub)
        return total

    return rec(S)


def thm2_diagonal_centralizer(k: int) -> SkewOperatorSubspace:
    """The subalgebra diag(D, D, ..., D) inside so(4k+4)."""
    n = 4 * (k + 1)
    mats = []
    for e in np.eye(3):
        D = r_matrix(*e)
        M = np.zeros((n, n))
        for c in range(k + 1):
            M[4 * c: 4 * c + 4, 4 * c: 4 * c + 4] = D
        mats.append(M)
    return SkewOperatorSubspace(n, mats)
