"""Reference objects of the unit tests: the combinatorial Pfaffian, the
oracle of ``linear_core.pfaffian_exact``; the split derivation system from
the products of the generators with the skew bases, the oracle of
``operator_subspaces.split_derivation_system``; the QR certificate of a
whole stack in one call and R11^-1 beside R11, the oracles of
``linear_core._qr_residuals`` and ``_leading_inverse_norm``; the
right-multiplication blocks of so(4) and the centralizers of n10 and of
the 4k+6 family built from them; and equality of operator subspaces as
mutual containment."""

import math

import numpy as np

from nilgo import linear_core as lc
from nilgo.operator_subspaces import SkewOperatorSubspace, _upper_pairs, brackets, skew_basis, subspace_contains


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


def split_derivation_system_products(J):
    """The rows of ``[J_i, A] = sum_j C_ij J_j`` from the products: the
    commutators ``J_i E_k - E_k J_i`` with the skew basis E of so(n) as the
    A columns, ``-(F_l J)_i`` with the skew basis F of so(m) as the C
    columns, each kept at the pairs a < b, in J's dtype."""
    m, n = J.shape[0], J.shape[-1]
    iu, ju = _upper_pairs(n)
    E, F = (skew_basis(k).astype(np.int64).astype(J.dtype) for k in (n, m))
    rows_a = brackets(J, E)[:, :, iu, ju].transpose(0, 2, 1).reshape(m * len(iu), len(E))
    CJ = np.tensordot(F, J, 1)[:, :, iu, ju]
    return np.hstack([rows_a, -CJ.transpose(1, 2, 0).reshape(m * len(iu), -1)])


def leading_inverse_norm_two_buffers(R, lead):
    """``linear_core._leading_inverse_norm`` with R11^-1 back-substituted
    into a buffer of its own, beside R11."""
    p = int(lead.sum(axis=1).max(initial=0))
    R11 = np.where(lead[:, None, :p], R[:, :p, :p], np.eye(p))  # padded by the identity
    X = np.zeros_like(R11)
    eye = np.eye(p)
    for i in range(p - 1, -1, -1):
        X[:, i] = (eye[i] - (R11[:, i, None, i + 1:] @ X[:, i + 1:])[:, 0]) / R11[:, i, i, None]
    return np.sqrt(np.square(X * lead[:, :p, None]).sum(axis=(1, 2)))


def qr_residuals_whole_stack(A, b, anorm, seed):
    """``linear_core._qr_residuals`` with one ``np.linalg.qr`` call over the
    whole mixed stack and :func:`leading_inverse_norm_two_buffers`.
    Callers silence the floating-point warnings."""
    B, r, k = A.shape
    n = min(r, k)
    M = np.empty((B, r, k + 1))
    np.matmul(A, lc._mixer(k, seed), out=M[:, :, :k])
    M[:, :, k] = b
    R = np.linalg.qr(M, mode="r")
    cut = lc.TAU_RANK * anorm
    lead = np.logical_and.accumulate(np.abs(np.diagonal(R, axis1=1, axis2=2)[:, :n]) > cut[:, None], axis=1)
    inorm = leading_inverse_norm_two_buffers(R, lead)
    trail = np.ones(R.shape[:2])
    trail[:, :n] = ~lead
    colsq = np.einsum("bi,bij->bj", trail, np.square(R))  # squared column norms of R[rho:]
    r22 = np.sqrt(colsq[:, :k].sum(axis=1))
    certified = r22 <= cut / math.sqrt(n)
    certified &= (r22 + n * np.finfo(float).eps / 2 * anorm) * inorm <= 1e-12
    return np.sqrt(colsq[:, k]), certified


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
