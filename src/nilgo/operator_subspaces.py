"""Subspaces of skew-symmetric operators: derivations, normalizers, centralizers.

All subspace computations reduce to one nullspace call on a linear
constraint system over a basis of skew matrices; spans are compared with
the Frobenius inner product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import linear_core as lc
from .algebra import MetricLieAlgebra, TwoStepSplit, split_two_step
from .errors import InputError, NotTwoStepError, PreconditionError
from .jmaps import split_family


@dataclass(frozen=True)
class SkewOperatorSubspace:
    ambient_dim: int
    basis: list  # list of (n, n) skew float arrays

    def __post_init__(self):
        n = self.ambient_dim
        for B in self.basis:
            if B.shape != (n, n):
                raise InputError("basis matrix shape mismatch")
            if np.max(np.abs(B + B.T)) > 1e-12 * max(1.0, np.max(np.abs(B))):
                raise InputError("basis matrix is not skew-symmetric")
        if self.basis:
            M = np.array([B.ravel() for B in self.basis])
            if np.linalg.matrix_rank(M, tol=lc.DEFAULT_TAU_RANK * np.linalg.norm(M)) < len(self.basis):
                raise InputError("basis matrices are linearly dependent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coeffs) -> np.ndarray:
        out = np.zeros((self.ambient_dim, self.ambient_dim))
        for c, B in zip(coeffs, self.basis):
            out += c * B
        return out

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the span in vec space (Frobenius)."""
        n2 = self.ambient_dim**2
        if not self.basis:
            return np.zeros((n2, n2))
        Q, _ = np.linalg.qr(np.array([B.ravel() for B in self.basis]).T)
        return Q @ Q.T


@dataclass(frozen=True)
class DerivationAlgebra:
    parent: MetricLieAlgebra
    basis: list  # list of (d, d) float arrays

    @property
    def dim(self) -> int:
        return len(self.basis)


def skew_basis(n: int) -> list[np.ndarray]:
    """Standard basis E_ij - E_ji (i < j) of so(n)."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            B = np.zeros((n, n))
            B[i, j] = 1.0
            B[j, i] = -1.0
            out.append(B)
    return out


def span_matrices(mats, n: int, tau_rank: float = lc.DEFAULT_TAU_RANK) -> SkewOperatorSubspace:
    """Orthonormal (Frobenius) spanning basis of a list of skew matrices."""
    mats = [np.asarray(M, dtype=float) for M in mats]
    if not mats:
        return SkewOperatorSubspace(n, [])
    A = np.array([M.ravel() for M in mats])
    if not np.any(A):
        return SkewOperatorSubspace(n, [])
    _, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > tau_rank * s[0]))
    return SkewOperatorSubspace(n, [vt[i].reshape(n, n) for i in range(rank)])


def subspace_contains(
    outer: SkewOperatorSubspace, inner: SkewOperatorSubspace, tau_rank: float = lc.DEFAULT_TAU_RANK
) -> bool:
    if inner.dim == 0:
        return True
    P = outer.projector()
    for B in inner.basis:
        v = B.ravel()
        if np.linalg.norm(v - P @ v) > tau_rank * max(1.0, np.linalg.norm(v)):
            return False
    return True


def subspaces_equal(a: SkewOperatorSubspace, b: SkewOperatorSubspace, tau_rank: float = lc.DEFAULT_TAU_RANK) -> bool:
    return a.dim == b.dim and subspace_contains(a, b, tau_rank) and subspace_contains(b, a, tau_rank)


def derivation_defect(c: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Residual D[e_i, e_j] - [D e_i, e_j] - [e_i, D e_j] of the derivation
    identity on each basis pair, indexed (i, j, k), for the structure tensor c."""
    return np.einsum("ab,ijb->ija", D, c) - np.einsum("ki,kjm->ijm", D, c) - np.einsum("kj,ikm->ijm", D, c)


def derivation_system(c: np.ndarray, params) -> np.ndarray:
    """Linear system of the derivation identity over the span of ``params``.

    Column p is the derivation defect of ``params[p]``, one row per basis
    pair i < j and coordinate k (pair-major).  Works in the dtype of the
    inputs: float for the numerical path, integer or object (Python int)
    for the exact one.
    """
    iu, ju = np.triu_indices(c.shape[0], 1)
    return np.array([derivation_defect(c, M)[iu, ju].ravel() for M in params]).T


def skew_derivations(
    L: MetricLieAlgebra, tau_rank: float = lc.DEFAULT_TAU_RANK, split: Optional[TwoStepSplit] = None
) -> DerivationAlgebra:
    """Basis of the gram-skew derivations D[X,Y] = [DX,Y] + [X,DY].

    Gram-skewness is built into the parametrization D = G^{-1} S with S
    skew.  A two-step algebra (``split``, computed when not given) is
    solved in its split-native form (:func:`split_derivation_system`);
    any other algebra (abelian, class >= 3) through the general
    derivation identity.  The basis is orthonormal for the coefficients
    of S = G D over :func:`skew_basis`, i.e. for half the Frobenius
    product of G D.
    """
    d = L.dim
    if d <= 1:
        return DerivationAlgebra(L, [])
    if split is None:
        try:
            split = split_two_step(L, tau_rank)
        except (NotTwoStepError, InputError):  # abelian, class >= 3 or not nilpotent
            pass
    ginv = np.linalg.inv(L.gram)
    if split is None:
        params = ginv @ np.reshape(skew_basis(d), (-1, d, d))
        coeffs = np.reshape(lc.nullspace(derivation_system(L.structure, params), tau_rank), (-1, len(params)))
    else:
        iu, ju = np.triu_indices(d, 1)
        coeffs = np.linalg.qr(_split_derivation_forms(split, tau_rank)[:, iu, ju].T)[0].T
    return DerivationAlgebra(L, list(ginv @ _skew_from_upper(coeffs, d)))


def _skew_from_upper(coeffs: np.ndarray, n: int) -> np.ndarray:
    """The skew matrices with the given upper-triangle entries (rows of ``coeffs``)."""
    iu, ju = np.triu_indices(n, 1)
    S = np.zeros((len(coeffs), n, n))
    S[:, iu, ju] = coeffs
    S[:, ju, iu] = -coeffs
    return S


def split_derivation_system(J: np.ndarray) -> np.ndarray:
    """Linear system of ``[J_i, A] = sum_j C_ij J_j`` over ``so(n) + so(m)``.

    ``J`` stacks the m generators J_i of a two-step split on v, in
    orthonormal coordinates.  Column k < n(n-1)/2 is the skew basis
    element E_k of so(n) as A, the remaining columns are those of so(m)
    as C; one row per generator i and pair a < b (generator-major).  The
    solutions are the skew derivations D = (A, C) (Eberlein 1994).
    """
    m, n = J.shape[0], J.shape[-1]
    iu, ju = np.triu_indices(n, 1)
    E = np.reshape(skew_basis(n), (-1, n, n))
    comm = np.einsum("iab,kbc->ikac", J, E) - np.einsum("kab,ibc->ikac", E, J)
    rows_a = comm[:, :, iu, ju].transpose(0, 2, 1).reshape(m * len(iu), len(E))
    CJ = np.einsum("lij,jab->liab", np.reshape(skew_basis(m), (-1, m, m)), J)[:, :, iu, ju]
    return np.hstack([rows_a, -CJ.transpose(1, 2, 0).reshape(m * len(iu), -1)])


def _split_derivation_forms(split: TwoStepSplit, tau_rank: float) -> np.ndarray:
    """G D for a basis of the skew derivations of a two-step algebra, stacked."""
    m, n = split.m, split.n
    J = np.reshape(split_family(split).generators, (m, n, n))
    sol = np.reshape(lc.nullspace(split_derivation_system(J), tau_rank), (-1, n * (n - 1) // 2 + m * (m - 1) // 2))
    k = n * (n - 1) // 2
    A, C = _skew_from_upper(sol[:, :k], n), _skew_from_upper(sol[:, k:], m)
    Pv, Pz = split.v_basis @ split.parent.gram, split.z_basis @ split.parent.gram
    return np.einsum("ai,pab,bj->pij", Pv, A, Pv) + np.einsum("ai,pab,bj->pij", Pz, C, Pz)


def _constrained_so_subspace(V: SkewOperatorSubspace, project_out_span: bool, tau_rank: float) -> SkewOperatorSubspace:
    n = V.ambient_dim
    sb = skew_basis(n)
    if V.dim == 0:
        return SkewOperatorSubspace(n, sb)
    P = V.projector() if project_out_span else None
    cols = []
    for S in sb:
        rows = []
        for B in V.basis:
            w = (S @ B - B @ S).ravel()
            if P is not None:
                w = w - P @ w
            rows.append(w)
        cols.append(np.concatenate(rows))
    A = np.array(cols).T
    coeff_vectors = lc.nullspace(A, tau_rank)
    mats = []
    for v in coeff_vectors:
        X = np.zeros((n, n))
        for a, S in zip(v, sb):
            X += a * S
        mats.append(X)
    return span_matrices(mats, n, tau_rank)


def normalizer_in_so(V: SkewOperatorSubspace, tau_rank: float = lc.DEFAULT_TAU_RANK) -> SkewOperatorSubspace:
    """{X in so(n) : [X, V] in span(V)}."""
    return _constrained_so_subspace(V, project_out_span=True, tau_rank=tau_rank)


def centralizer_in_so(V: SkewOperatorSubspace, tau_rank: float = lc.DEFAULT_TAU_RANK) -> SkewOperatorSubspace:
    """{X in so(n) : [X, V] = 0}."""
    return _constrained_so_subspace(V, project_out_span=False, tau_rank=tau_rank)


def is_subalgebra(V: SkewOperatorSubspace, tau_rank: float = lc.DEFAULT_TAU_RANK) -> bool:
    if V.dim <= 1:
        return True
    P = V.projector()
    for i, A in enumerate(V.basis):
        for B in V.basis[i + 1:]:
            w = (A @ B - B @ A).ravel()
            if np.linalg.norm(w - P @ w) > tau_rank * max(1.0, np.linalg.norm(w)):
                return False
    return True


def generated_subalgebra(V: SkewOperatorSubspace, tau_rank: float = lc.DEFAULT_TAU_RANK) -> SkewOperatorSubspace:
    """Smallest bracket-closed subspace containing V, by iterated augmentation."""
    n = V.ambient_dim
    current = span_matrices(V.basis, n, tau_rank)
    cap = n * (n - 1) // 2
    for _ in range(cap + 1):
        brackets = [
            A @ B - B @ A for i, A in enumerate(current.basis) for B in current.basis[i + 1:]
        ]
        grown = span_matrices(current.basis + brackets, n, tau_rank)
        if grown.dim == current.dim:
            return current
        if grown.dim > cap:
            raise PreconditionError("closure exceeded dim so(n); inconsistent input")
        current = grown
    raise PreconditionError("closure did not stabilize")  # defensive, cannot happen


def compact_split(
    A: SkewOperatorSubspace, tau_rank: float = lc.DEFAULT_TAU_RANK, require_subalgebra: bool = True
) -> tuple[SkewOperatorSubspace, SkewOperatorSubspace]:
    """Center and derived (semisimple) part of a subalgebra of so(n).

    For subalgebras of the compact so(n) the derived subspace is the
    semisimple part and the sum is direct.
    """
    if require_subalgebra and not is_subalgebra(A, tau_rank):
        raise PreconditionError("compact_split needs a Lie subalgebra")
    n = A.ambient_dim
    if A.dim == 0:
        empty = SkewOperatorSubspace(n, [])
        return empty, empty
    cols = []
    for B in A.basis:
        rows = [(B @ C - C @ B).ravel() for C in A.basis]
        cols.append(np.concatenate(rows))
    M = np.array(cols).T
    coeffs = lc.nullspace(M, tau_rank)
    center = span_matrices([A.element(v) for v in coeffs], n, tau_rank)
    brackets = [B @ C - C @ B for i, B in enumerate(A.basis) for C in A.basis[i + 1:]]
    der = span_matrices(brackets, n, tau_rank)
    if center.dim + der.dim != A.dim:
        raise PreconditionError("center + derived is not a direct sum decomposition")
    return center, der
