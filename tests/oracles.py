"""Reference objects of the unit tests: the combinatorial Pfaffian, the
oracle of ``linear_core.pfaffian_exact``; the right-multiplication blocks of
so(4) and the centralizers of n10 and of the 4k+6 family built from them;
and equality of operator subspaces as mutual containment."""

import numpy as np

from nilgo.operator_subspaces import SkewOperatorSubspace, subspace_contains


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


def r_matrix(g1, g2, g3) -> np.ndarray:
    """Right multiplication by g1 i + g2 j + g3 k on H = R^4 (basis 1, i, j, k)."""
    return np.array(
        [
            [0, -g1, -g2, -g3],
            [g1, 0, g3, -g2],
            [g2, -g3, 0, g1],
            [g3, g2, -g1, 0],
        ],
        dtype=float,
    )


def centralizer_basis_n10() -> SkewOperatorSubspace:
    """The 6 generators diag(D_1(e_i), 0), diag(0, D_2(e_j)) of the centralizer of V_t."""
    mats = []
    zeros = np.zeros((4, 4))
    for e in np.eye(3):
        D = r_matrix(*e)
        mats.append(np.block([[D, zeros], [zeros, zeros]]))
    for e in np.eye(3):
        D = r_matrix(*e)
        mats.append(np.block([[zeros, zeros], [zeros, D]]))
    return SkewOperatorSubspace(8, mats)


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


def subspaces_equal(a: SkewOperatorSubspace, b: SkewOperatorSubspace) -> bool:
    return a.dim == b.dim and subspace_contains(a, b) and subspace_contains(b, a)
