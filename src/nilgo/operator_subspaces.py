"""Subspaces of skew-symmetric operators: derivations, normalizers, centralizers.

All subspace computations reduce to one nullspace call on a linear
constraint system over a basis of skew matrices; spans are compared with
the Frobenius inner product.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linear_core as lc
from .algebra import MetricLieAlgebra, TwoStepSplit, split_two_step
from .errors import InputError, NotTwoStepError, PreconditionError
from .jmaps import split_family


@dataclass(frozen=True)
class SkewOperatorSubspace:
    ambient_dim: int
    basis: np.ndarray  # (k, n, n) skew float array; any sequence of n x n matrices is stacked

    def __post_init__(self):
        n = self.ambient_dim
        try:
            B = np.array(self.basis, dtype=float)
        except (TypeError, ValueError) as e:  # ragged or non-numeric
            raise InputError(f"basis is not a stack of matrices: {e}") from None
        if B.shape == (0,):
            B = B.reshape(0, n, n)
        if B.shape[1:] != (n, n):
            raise InputError("basis matrix shape mismatch")
        if not np.all(np.isfinite(B)):
            raise InputError("basis matrix has non-finite entries")
        asym = np.abs(B + B.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0)
        if np.any(asym > 1e-12 * np.abs(B).max(axis=(1, 2), initial=0.0)):
            raise InputError("basis matrix is not skew-symmetric")
        if len(B):
            s = np.linalg.svd(B.reshape(len(B), -1), compute_uv=False)
            if np.count_nonzero(s > lc.TAU_RANK * s.max(initial=0.0)) < len(B):
                raise InputError("basis matrices are linearly dependent")
        object.__setattr__(self, "basis", B)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def element(self, coeffs) -> np.ndarray:
        return (np.asarray(coeffs, dtype=float)[:, None, None] * self.basis).sum(axis=0)

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the span in vec space (Frobenius)."""
        Q, _ = np.linalg.qr(self.basis.reshape(self.dim, self.ambient_dim**2).T)
        return Q @ Q.T


@dataclass(frozen=True)
class DerivationAlgebra:
    parent: MetricLieAlgebra
    basis: np.ndarray  # (k, d, d) float array

    @property
    def dim(self) -> int:
        return len(self.basis)


@functools.lru_cache(maxsize=32)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, 1)``, built once per n and read-only, so that an
    in-place write fails."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


@functools.lru_cache(maxsize=32)
def skew_basis(n: int) -> np.ndarray:
    """Standard basis E_ij - E_ji (i < j) of so(n), stacked; built once per n
    and read-only."""
    iu, ju = _upper_pairs(n)
    p = np.arange(len(iu))
    S = np.zeros((len(iu), n, n))
    S[p, iu, ju] = 1.0
    S[p, ju, iu] = -1.0
    S.flags.writeable = False
    return S


def brackets(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Stacked commutators: ``brackets(A, B)[p, q] = A_p B_q - B_q A_p``."""
    return A[:, None] @ B - B @ A[:, None]


def span_matrices(mats, n: int) -> SkewOperatorSubspace:
    """Orthonormal (Frobenius) spanning basis of a stack of skew matrices."""
    A = np.reshape(mats, (len(mats), n * n))
    if not np.any(A):
        return SkewOperatorSubspace(n, [])
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    rank = int(np.sum(s > lc.TAU_RANK * s[0]))
    return SkewOperatorSubspace(n, vt[:rank].reshape(rank, n, n))


def _off_span(V: SkewOperatorSubspace, W: np.ndarray) -> np.ndarray:
    """The rows w of W (vectorized matrices) minus their projections onto
    span(V), through an orthonormal basis Q of the span from one thin QR."""
    Q = np.linalg.qr(V.basis.reshape(V.dim, V.ambient_dim**2).T)[0]
    return W - (W @ Q) @ Q.T


def _span_gaps(V: SkewOperatorSubspace, W: np.ndarray) -> np.ndarray:
    """|w - P w| for every matrix w of the stack W, P projecting onto span(V)."""
    return np.linalg.norm(_off_span(V, W.reshape(-1, V.ambient_dim**2)), axis=1)


def subspace_contains(outer: SkewOperatorSubspace, inner: SkewOperatorSubspace) -> bool:
    """Whether every basis element w of ``inner`` lies within TAU_RANK |w| of span(outer)."""
    norms = np.linalg.norm(inner.basis, axis=(1, 2))
    return not np.any(_span_gaps(outer, inner.basis) > lc.TAU_RANK * norms)


def _normalizes(N: np.ndarray, V: SkewOperatorSubspace) -> bool:
    """Whether every [N_p, B_q] (N_p in the stack N, B_q in V's basis) lies in
    span(V), i.e. N lies in the normalizer of V, tested without building the
    normalizer.  Each bracket of unit N_p and B_q must lie within TAU_RANK
    of the span: bounded by its inputs, not by itself, since its round-off
    can lie almost wholly off the span."""

    def unit(S):
        return S / np.linalg.norm(S, axis=(1, 2))[:, None, None]

    return not np.any(_span_gaps(V, brackets(unit(N), unit(V.basis))) > lc.TAU_RANK)


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
    iu, ju = _upper_pairs(c.shape[0])
    return np.array([derivation_defect(c, M)[iu, ju].ravel() for M in params]).T


def skew_derivations(L: MetricLieAlgebra) -> DerivationAlgebra:
    """Basis of the gram-skew derivations D[X,Y] = [DX,Y] + [X,DY].

    Gram-skewness is built into the parametrization D = G^{-1} S with S
    skew.  A two-step algebra is solved in its split-native form
    (:func:`split_derivations`), whose pairs (A, C) lift to S = Pv^T A Pv
    + Pz^T C Pz; any other algebra (abelian, class >= 3) through the
    general derivation identity.  The basis is orthonormal for the
    coefficients of S = G D over :func:`skew_basis`, i.e. for half the
    Frobenius product of G D.
    """
    d = L.dim
    if d <= 1:
        return DerivationAlgebra(L, np.zeros((0, d, d)))
    try:
        split = split_two_step(L)
    except (NotTwoStepError, InputError):  # abelian, class >= 3 or not nilpotent
        split = None
    ginv = np.linalg.inv(L.gram)
    if split is None:
        coeffs = lc.nullspace(derivation_system(L.structure, ginv @ skew_basis(d)))
    else:
        A, C = split_derivations(split)
        Pv, Pz = split.v_basis @ L.gram, split.z_basis @ L.gram
        iu, ju = _upper_pairs(d)
        coeffs = np.linalg.qr((Pv.T @ A @ Pv + Pz.T @ C @ Pz)[:, iu, ju].T)[0].T
    return DerivationAlgebra(L, ginv @ _skew_from_upper(coeffs, d))


def _skew_from_upper(coeffs: np.ndarray, n: int) -> np.ndarray:
    """The skew matrices with the given upper-triangle entries (rows of ``coeffs``)."""
    iu, ju = _upper_pairs(n)
    S = np.zeros((len(coeffs), n, n))
    S[:, iu, ju] = coeffs
    S[:, ju, iu] = -coeffs
    return S


@functools.lru_cache(maxsize=32)
def _commutator_terms(n: int) -> tuple[tuple[np.ndarray, ...], ...]:
    """Where the entries of J land in the upper triangles of the commutators
    ``[J, E_pq]`` with the skew basis (:func:`skew_basis`): entry a < b is
    ``J_ap [q=b] - J_aq [p=b] - [a=p] J_qb + [a=q] J_pb``.

    Four groups of ``(row pair (a, b), column pair (p, q), J row, J
    column)`` index arrays, one per term in that order; no group holds a
    (row pair, column pair) twice.  Built once per n and read-only.
    """
    iu, ju = _upper_pairs(n)
    pair = np.zeros((n, n), dtype=np.intp)
    pair[iu, ju] = pair[ju, iu] = np.arange(len(iu))
    k, c = (x.ravel() for x in np.indices((len(iu), n)))
    a, b = iu[k], ju[k]
    groups = (
        (c < b, pair[c, b], a, c),  # J_ap at (p, q) = (c, b)
        (c > b, pair[b, c], a, c),  # J_aq at (p, q) = (b, c)
        (c > a, pair[a, c], c, b),  # J_qb at (p, q) = (a, c)
        (c < a, pair[c, a], c, b),  # J_pb at (p, q) = (c, a)
    )
    terms = tuple(tuple(x[keep] for x in (k, col, row, j_col)) for keep, col, row, j_col in groups)
    for group in terms:
        for x in group:
            x.flags.writeable = False
    return terms


def split_derivation_system(J: np.ndarray) -> np.ndarray:
    """Linear system of ``[J_i, A] = sum_j C_ij J_j`` over ``so(n) + so(m)``.

    ``J`` stacks the m generators J_i of a two-step split on v, in
    orthonormal coordinates: floats, or integers (int64, or Python ints in
    an object array) whose rows then stay exact.  Column k < n(n-1)/2 is
    the skew basis element E_k of so(n) as A, the remaining columns are
    those of so(m) as C; one row per generator i and pair a < b
    (generator-major).  The solutions are the skew derivations D = (A, C)
    (Eberlein 1994).

    Every entry is at most two entries of J, so the rows are assembled by
    index (:func:`_commutator_terms`), in J's dtype and without a product.
    Each entry rounds as the products ``J E_k - E_k J`` and ``-(F_l J)``
    would (F_l the skew basis of so(m)): every term is added to a zero,
    and the C columns are negated last.
    """
    m, n = J.shape[0], J.shape[-1]
    iu, ju = _upper_pairs(n)
    s, t = _upper_pairs(m)
    (k1, l1, r1, c1), (k2, l2, r2, c2), (k3, l3, r3, c3), (k4, l4, r4, c4) = _commutator_terms(n)
    P = len(iu)
    system = np.zeros((m, P, P + len(s)), dtype=J.dtype)
    A, C = system[:, :, :P], system[:, :, P:]
    A[:, k1, l1] += J[:, r1, c1]
    A[:, k2, l2] -= J[:, r2, c2]
    A[:, k3, l3] -= J[:, r3, c3]
    A[:, k4, l4] += J[:, r4, c4]
    # column l = (s, t) of so(m) holds -(F_l J)_i: -J_t for i = s, +J_s for i = t
    upper, cols = J[:, iu, ju], np.arange(len(s))
    C[s, :, cols] += upper[t]
    C[t, :, cols] -= upper[s]
    np.negative(C, out=C)
    return system.reshape(m * P, P + len(s))


def split_derivations(split: TwoStepSplit) -> tuple[np.ndarray, np.ndarray]:
    """Basis of the skew derivations of a two-step algebra as stacked pairs
    ``(A, C)``: A in so(n) acts on v and C in so(m) on z, both in the
    split's orthonormal coordinates (the nullspace of
    :func:`split_derivation_system`)."""
    sol = lc.nullspace(split_derivation_system(split_family(split).generators))
    k = split.n * (split.n - 1) // 2
    return _skew_from_upper(sol[:, :k], split.n), _skew_from_upper(sol[:, k:], split.m)


def _constrained_so_subspace(V: SkewOperatorSubspace, project_out_span: bool) -> SkewOperatorSubspace:
    n = V.ambient_dim
    sb = skew_basis(n)
    if V.dim == 0:
        return SkewOperatorSubspace(n, sb)
    W = brackets(sb, V.basis).reshape(len(sb), V.dim, n * n)  # [p, q] = [S_p, B_q]
    if project_out_span:
        # a bracket inside span(V) leaves only round-off off the span: zero it
        # relative to the largest bracket entry, or the nullspace counts it as rank
        cut = 1e-12 * np.abs(W).max()
        W = _off_span(V, W)
        W[np.abs(W) <= cut] = 0.0
    coeffs = lc.nullspace(W.reshape(len(sb), -1).T)
    # sum_p a_p S_p: the skew matrices with upper triangle a_p.  "+ 0.0" turns
    # their negative zeros positive, as a sum from zero does: the SVD in
    # span_matrices can depend on the sign of a zero
    return span_matrices(_skew_from_upper(coeffs, n) + 0.0, n)


def normalizer_in_so(V: SkewOperatorSubspace) -> SkewOperatorSubspace:
    """{X in so(n) : [X, V] in span(V)}."""
    return _constrained_so_subspace(V, project_out_span=True)


def centralizer_in_so(V: SkewOperatorSubspace) -> SkewOperatorSubspace:
    """{X in so(n) : [X, V] = 0}."""
    return _constrained_so_subspace(V, project_out_span=False)


def _pair_brackets(V: SkewOperatorSubspace) -> np.ndarray:
    """[B_p, B_q] for the basis pairs p < q, stacked."""
    iu, ju = _upper_pairs(V.dim)
    return brackets(V.basis, V.basis)[iu, ju]


def is_subalgebra(V: SkewOperatorSubspace) -> bool:
    return _normalizes(V.basis, V)


def generated_subalgebra(V: SkewOperatorSubspace) -> SkewOperatorSubspace:
    """Smallest bracket-closed subspace containing V, by iterated augmentation."""
    n = V.ambient_dim
    current = span_matrices(V.basis, n)
    cap = n * (n - 1) // 2
    for _ in range(cap + 1):
        grown = span_matrices(np.concatenate([current.basis, _pair_brackets(current)]), n)
        if grown.dim == current.dim:
            return current
        if grown.dim > cap:
            raise PreconditionError("closure exceeded dim so(n); inconsistent input")
        current = grown
    raise PreconditionError("closure did not stabilize")  # defensive, cannot happen


def compact_split(A: SkewOperatorSubspace) -> tuple[SkewOperatorSubspace, SkewOperatorSubspace]:
    """Center and derived (semisimple) part of a subalgebra of so(n).

    For subalgebras of the compact so(n) the derived subspace is the
    semisimple part and the sum is direct.
    """
    if not is_subalgebra(A):
        raise PreconditionError("compact_split needs a Lie subalgebra")
    n = A.ambient_dim
    if A.dim == 0:
        return A, A
    coeffs = lc.nullspace(brackets(A.basis, A.basis).reshape(A.dim, -1).T)
    center = span_matrices([A.element(v) for v in coeffs], n)
    der = span_matrices(_pair_brackets(A), n)
    if center.dim + der.dim != A.dim:
        raise PreconditionError("center + derived is not a direct sum decomposition")
    return center, der
