"""Geodesic-orbit criteria: the Kowalski--Vanhecke equation, Gordon's
nilmanifold criterion, transitive normalizer conditions and the
centralizer-type structure theory.

Universal quantifiers over continua are certified by a deterministic
sweep plus seeded random sampling; verification is reported as
``verified_sampled`` while refutations carry an explicit witness (and,
when rational data is available, an exact infeasibility re-check).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import jmaps, linear_core as lc
from .algebra import MetricLieAlgebra, TwoStepSplit, make_algebra, nilpotency_class, require_spd, split_two_step
from .errors import InputError, PreconditionError
from .families import algebra_from_jmaps
from .linear_core import bareiss_pivots as _bareiss_pivots  # perfbench/tracer.py times the re-check under this name
from .operator_subspaces import (
    SkewOperatorSubspace,
    centralizer_in_so,
    compact_split,
    derivation_system,
    generated_subalgebra,
    is_subalgebra,
    normalizer_in_so,
    skew_basis,
    skew_derivations,
    span_matrices,
    subspace_contains,
)

VERIFIED_SAMPLED = "verified_sampled"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    samples: int = 200
    tau_feas: float = 1e-8
    tau_refute: float = 1e-4
    cond_limit: float = 1e10
    tau_rank: float = lc.DEFAULT_TAU_RANK

    def __post_init__(self):
        if self.samples < 0:
            raise InputError(f"samples must be non-negative, got {self.samples}")
        if self.seed < 0:  # default_rng takes no negative seed
            raise InputError(f"seed must be non-negative, got {self.seed}")

    def tolerances(self) -> dict:
        return {
            "tau_feas": self.tau_feas,
            "tau_refute": self.tau_refute,
            "cond_limit": self.cond_limit,
            "tau_rank": self.tau_rank,
        }


@dataclass(frozen=True)
class GOCertificate:
    status: str
    samples: int
    max_residual: float
    tolerances: dict
    seed: int
    witness: Optional[dict] = None
    exact_refutation: bool = False

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED_SAMPLED

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "tolerances": dict(self.tolerances),
            "witness": self.witness,
            "exact_refutation": self.exact_refutation,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MetricParameter:
    """SPD Gram matrix of the inner product on the center image V."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise InputError("metric parameter must be square")
        require_spd(q, "metric parameter")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class ReductiveDecomposition:
    """g = h + p with h acting on p; only the data the KV criterion needs."""

    p_dim: int
    h_basis: list  # matrices acting on p
    structure: np.ndarray  # [p, p] with p-projection, c[i][j][k]
    gram: np.ndarray

    def ad_p(self, X: np.ndarray) -> np.ndarray:
        """ad(X) on p; X may be a stack of vectors (last axis)."""
        return np.einsum("...i,ijk->...kj", X, self.structure)


def isometry_decomposition(L: MetricLieAlgebra, tau_rank: float = lc.DEFAULT_TAU_RANK) -> ReductiveDecomposition:
    """The full-isometry decomposition (D(n), n) of a nilmanifold."""
    require_spd(L.gram, "gram matrix")
    nilpotency_class(L, tau_rank)  # raises InputError unless L is nilpotent
    ders = skew_derivations(L, tau_rank)
    return ReductiveDecomposition(L.dim, ders.basis, L.structure, L.gram)


def _sweep(k: int, sums: bool = True) -> np.ndarray:
    """Basis vectors of R^k, then (if ``sums``) every e_i + e_j with i < j, as rows."""
    eye, (iu, ju) = np.eye(k), np.triu_indices(k, 1)
    return np.vstack([eye, eye[iu] + eye[ju]]) if sums else eye


def _sample_plan(config: SamplerConfig, dims, sums: bool = True) -> tuple[tuple, int]:
    """One array of sample vectors per entry of ``dims``, and the sweep length.

    The sweep (all combinations of the per-factor sweeps, the first factor
    outermost) comes first, then ``config.samples`` seeded unit vectors
    per factor: row i of one ``default_rng(seed)`` block of
    ``samples x sum(dims)`` normals, split by factor and normalised, so
    the first k random rows do not depend on ``samples``.
    """
    sweeps = [_sweep(k, sums) for k in dims]
    combos = np.indices([len(s) for s in sweeps]).reshape(len(dims), -1)
    block = np.random.default_rng(config.seed).standard_normal((config.samples, sum(dims)))
    draws = np.split(block, np.cumsum(dims)[:-1], axis=1)
    plan = tuple(
        np.vstack([s[c], r / np.linalg.norm(r, axis=1, keepdims=True)]) for s, c, r in zip(sweeps, combos, draws)
    )
    return plan, combos.shape[1]


CHUNK = 256  # samples per stacked solve: bounds the memory of one batch


def _adjudicate(config: SamplerConfig, dims, system, witness) -> GOCertificate:
    """Sampled certificate that the systems on the plan of ``dims`` are solvable.

    ``system`` maps a chunk of the plan (one array per factor) to blocks
    ``(A, b, scale)`` of stacked systems ``A[i] z = b[i]`` in plan order;
    each block is one :func:`linear_core.batch_residuals` call.  Scanning
    in plan order, the first sample whose residual relative to its scale
    exceeds tau_refute with a well-conditioned system refutes, with
    ``witness(sample, residual, from_sweep)``; any other sample above
    tau_feas makes the result inconclusive.  Non-finite systems, scales
    or residuals raise InputError.
    """
    plan, n_sweep = _sample_plan(config, dims)
    status, max_res = VERIFIED_SAMPLED, 0.0
    for start in range(0, len(plan[0]), CHUNK):
        chunk = [f[start:start + CHUNK] for f in plan]
        rel, cond = [], []
        # overflow surfaces as a non-finite system, scale or residual below
        with np.errstate(over="ignore", invalid="ignore"):
            for A, b, scale in system(*chunk):
                if not np.all(np.isfinite(scale)):
                    raise InputError("residual scale is not finite")
                res, c = lc.batch_residuals(A, b, config.tau_rank)
                rel.append(res / np.maximum(scale, 1e-300))
                cond.append(c)
        rel, cond = np.concatenate(rel), np.concatenate(cond)
        over = rel > config.tau_feas
        refuting = np.flatnonzero(over & (rel > config.tau_refute) & (cond < config.cond_limit))
        stop = refuting[0] + 1 if refuting.size else len(rel)
        max_res = max(max_res, float(rel[:stop].max()))
        if over[:stop].any():
            status = INCONCLUSIVE
        if refuting.size:
            i = refuting[0]
            found = witness(tuple(f[i] for f in chunk), float(rel[i]), bool(start + i < n_sweep))
            return GOCertificate(REFUTED, config.samples, max_res, config.tolerances(), config.seed, found)
    return GOCertificate(status, config.samples, max_res, config.tolerances(), config.seed)


def _kv_system(decomp: ReductiveDecomposition, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked KV systems for the rows of X: column h of A[i] is H_h^T G X_i."""
    gx = X @ decomp.gram.T
    H = np.reshape(decomp.h_basis, (-1, decomp.p_dim, decomp.p_dim))
    return np.einsum("hji,bj->bih", H, gx), -np.einsum("bkj,bk->bj", decomp.ad_p(X), gx)


def kv_solve(decomp: ReductiveDecomposition, X) -> tuple[np.ndarray, float]:
    """Solve ([X+Z, Y]_p, X) = 0 for Z in h, minimum-norm least squares.

    Returns coefficients of Z over h_basis and the residual norm.
    """
    A, b = _kv_system(decomp, np.asarray(X, dtype=float)[None])
    return lc.least_squares(A[0], b[0])


def kv_go_check(decomp: ReductiveDecomposition, config: SamplerConfig = SamplerConfig()) -> GOCertificate:
    """Sampled KV GO-criterion over basis vectors, pairwise sums, and random unit X."""
    cnorm = max(float(np.max(np.abs(decomp.structure))), 1.0)
    return _adjudicate(
        config,
        (decomp.p_dim,),
        lambda X: [(*_kv_system(decomp, X), cnorm * np.einsum("bi,bi->b", X, X))],
        lambda s, rel, _: {"X": s[0].tolist(), "residual": rel},
    )


# ---------------------------------------------------------------------------
# Gordon's criterion for two-step nilmanifolds
# ---------------------------------------------------------------------------


def _gordon_blocks(split, maps, extra, X, Y):
    """Stacked systems for 'exists D: D(X) = 0, D(Y) = J_X(Y)' over rows of
    X and Y, one column per derivation.  With ``maps = (CX, AY, TY)``,
    ``CX[p] X`` and ``AY[p] Y - TY J_X Y`` are D_p(X) and D_p(Y) - J_X(Y) in
    orthonormal coordinates of z and of v; the rows ``extra`` follow."""
    CX, AY, TY = maps
    J = np.reshape(jmaps.split_family(split).generators, (split.m, split.n, split.n))
    JXY = np.einsum("bi,iac,bc->ba", X, J, Y)
    extra_rows = np.broadcast_to(extra, (len(X), *extra.shape))
    A = np.concatenate([np.einsum("pij,bj->bip", CX, X), np.einsum("pij,bj->bip", AY, Y), extra_rows], axis=1)
    b = np.concatenate([np.zeros_like(X), JXY @ TY.T, np.zeros((len(X), len(extra)))], axis=1)
    scale = np.linalg.norm(JXY, axis=1) + np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=1)
    return [(A, b, scale)]


def apply_center_metric(L: MetricLieAlgebra, metric: MetricParameter) -> MetricLieAlgebra:
    """Replace the inner product on the center by the SPD matrix q.

    The Lie algebra structure is unchanged; only the gram matrix is
    rebuilt so that the current orthonormal central basis has gram q.
    """
    split = split_two_step(L)
    q = metric.q
    if q.shape != (split.m, split.m):
        raise InputError(f"metric must be {split.m} x {split.m}")
    zb = split.z_basis
    W = L.gram @ zb.T  # functionals of the orthonormal central basis
    gram = L.gram + W @ (q - np.eye(split.m)) @ W.T
    return make_algebra(L.structure, gram)


def gordon_go_check(
    L: MetricLieAlgebra,
    restrict_to: Optional[SkewOperatorSubspace] = None,
    metric: Optional[MetricParameter] = None,
    config: SamplerConfig = SamplerConfig(),
) -> GOCertificate:
    """Gordon's criterion: for X in z, Y in v find D in D(n) with
    D(X) = 0 and D(Y) = J_X(Y); sampled over a sweep plus random pairs."""
    require_spd(L.gram, "gram matrix")
    if metric is not None:
        L = apply_center_metric(L, metric)
    split = split_two_step(L, config.tau_rank)
    if not split.derived_equals_center:
        raise PreconditionError("[n, n] = z is required (strip the flat factor first)")
    Ds = np.reshape(skew_derivations(L, config.tau_rank, split).basis, (-1, L.dim, L.dim))
    extra = np.zeros((0, len(Ds)))
    if restrict_to is not None:
        if restrict_to.ambient_dim != split.n:
            raise InputError("restrict_to must act on v")
        # the restrictions of D to v must lie in restrict_to
        phi = np.einsum("ai,pij,bj->pab", split.v_basis @ L.gram, Ds, split.v_basis).reshape(len(Ds), -1)
        extra = (phi - phi @ restrict_to.projector().T).T

    # D keeps z and v, so the ambient residual is the one in orthonormal
    # coordinates of the two subspaces
    Qz, Qv = np.linalg.qr(split.z_basis.T)[0].T, np.linalg.qr(split.v_basis.T)[0].T
    maps = (Qz @ Ds @ split.z_basis.T, Qv @ Ds @ split.v_basis.T, Qv @ split.v_basis.T)
    cert = _adjudicate(
        config,
        (split.m, split.n),
        functools.partial(_gordon_blocks, split, maps, extra),
        lambda s, rel, sweep: {"X": s[0].tolist(), "Y": s[1].tolist(), "residual": rel, "from_sweep": sweep},
    )
    w = cert.witness
    if w is not None and w["from_sweep"] and L.is_exact and split.is_exact and restrict_to is None:
        cert = replace(cert, exact_refutation=gordon_refute_exact(L, split, w["X"], w["Y"], config.tau_rank))
    return cert


def gordon_refute_exact(L: MetricLieAlgebra, split: TwoStepSplit, X, Y, tau_rank: float = lc.DEFAULT_TAU_RANK) -> bool:
    """Exact infeasibility check of the Gordon system for rational X, Y.

    Builds the combined linear system {skew derivation identity,
    D(X) = 0, D(Y) = J_X(Y)} over the rationals and tests whether the
    augmented rank exceeds the plain rank (Farkas-style refutation).
    An exact split has the identity Gram, so the skew derivations are
    parametrized by the skew basis itself; the derivation rows come from
    :func:`derivation_system` on the stored integer tensor ``c = den *
    structure``, which scales each row by ``den`` and leaves the pivots
    unchanged.
    """
    if not (L.is_exact and split.is_exact):
        raise PreconditionError("exact re-check needs rational data")
    d = L.dim
    Xq = [Fraction(v).limit_denominator(10**6) for v in X]
    Yq = [Fraction(v).limit_denominator(10**6) for v in Y]
    if any(abs(float(a) - float(b)) > 1e-12 for a, b in zip(Xq, list(X))) or any(
        abs(float(a) - float(b)) > 1e-12 for a, b in zip(Yq, list(Y))
    ):
        raise PreconditionError("witness is not rational")
    c, den = L.structure_exact
    # each defect entry sums three entries of c, up to sign; past int64
    # the same expression runs on Python ints
    exact_dtype = np.int64 if 3 * max(map(abs, c.flat)) <= np.iinfo(np.int64).max else object
    S = np.array(skew_basis(d), dtype=np.int64)
    A = derivation_system(c.astype(exact_dtype), S.astype(exact_dtype))
    # witness rows over the same skew basis, in ambient coordinates
    Xa = np.full(d, Fraction(0), dtype=object)
    Xa[list(split.z_index)] = Xq
    Ya = np.full(d, Fraction(0), dtype=object)
    Ya[list(split.v_index)] = Yq
    JXY = np.einsum("b,bak,k->a", Ya, c, Xa) / den  # (J_X Y, e_a) = ([Y, e_a], X)
    lhs = np.vstack([A, np.einsum("pkm,m->kp", S, Xa), np.einsum("pkm,m->kp", S, Ya)])
    rhs = np.concatenate([np.zeros(A.shape[0] + d, dtype=object), JXY])
    pivots = _bareiss_pivots(np.column_stack([lhs, rhs]).tolist())
    return len(S) in pivots  # pivot in the rhs column <=> infeasible


# ---------------------------------------------------------------------------
# transitive normalizer condition
# ---------------------------------------------------------------------------


def _nprime(nprime_mats, n: int) -> tuple[np.ndarray, float]:
    """The basis of N' stacked as n x n matrices, with its largest norm
    (the round-off scale of every commutant inside N')."""
    N = np.reshape(nprime_mats, (-1, n, n))
    return N, max((np.linalg.norm(M) for M in N), default=0.0)


def _commutant(nprime, Z_mat, tau_rank) -> np.ndarray:
    """Basis of the commutant of Z inside span(N), stacked, for ``nprime =
    (N, max |N_i|)`` from :func:`_nprime`."""
    N, nnorm = nprime
    if not len(N):
        return N
    K = (N @ Z_mat - Z_mat @ N).reshape(len(N), -1).T
    # suppress roundoff from the matrix products so that exactly
    # commuting elements are not ranked by noise singular values
    kscale = nnorm * np.linalg.norm(Z_mat)
    K[np.abs(K) <= 1e-12 * max(kscale, 1.0)] = 0.0
    return np.tensordot(np.reshape(lc.nullspace(K, tau_rank), (-1, len(N))), N, 1)


def _tnc_blocks(V, nprime, tau_rank, cache, zc, Y):
    """Stacked systems X(Y) = Z(Y), X in the commutant of Z inside N'
    (``nprime`` from :func:`_nprime`), over rows of zc (Z in V's basis) and
    Y.  The commutant is computed once per distinct Z (kept in ``cache``);
    consecutive samples with commutants of one dimension share a block."""
    systems = []
    for z, y in zip(zc, Y):
        if z.tobytes() not in cache:
            Z_mat = V.element(z)
            cache[z.tobytes()] = Z_mat, _commutant(nprime, Z_mat, tau_rank)
        Z_mat, mats = cache[z.tobytes()]
        b = Z_mat @ y
        systems.append(((mats @ y).T, b, np.linalg.norm(b) + np.linalg.norm(Z_mat) * np.linalg.norm(y)))
    groups = itertools.groupby(systems, key=lambda system: system[0].shape[1])
    return [tuple(np.array(part) for part in zip(*group)) for _, group in groups]


def tnc_check(
    V: SkewOperatorSubspace,
    Nprime: SkewOperatorSubspace,
    config: SamplerConfig = SamplerConfig(),
) -> GOCertificate:
    """Transitive normalizer condition of V with respect to Nprime.

    For sampled Y in R^n and Z in V, find X in Nprime with [X, Z] = 0 and
    X(Y) = Z(Y).  Success is probabilistic; refutation is a concrete
    infeasible sample.
    """
    if not subspace_contains(normalizer_in_so(V, config.tau_rank), Nprime, 1e-7):
        raise InputError("Nprime is not contained in the normalizer of V")
    return _adjudicate(
        config,
        (V.dim, V.ambient_dim),
        functools.partial(_tnc_blocks, V, _nprime(Nprime.basis, V.ambient_dim), config.tau_rank, {}),
        lambda s, rel, _: {"Z": s[0].tolist(), "Y": s[1].tolist(), "residual": rel},
    )


def normalizer_resolve_residual(V: SkewOperatorSubspace, config: SamplerConfig = SamplerConfig()) -> float:
    """Re-solve the TNC samples against the full normalizer of V and
    report the worst relative centralizer residual max_i |[X, V_i]| of
    the minimum-norm solutions found."""
    nprime = _nprime(normalizer_in_so(V, config.tau_rank).basis, V.ambient_dim)
    plan, _ = _sample_plan(config, (V.dim, V.ambient_dim), sums=False)
    Bs = np.reshape(V.basis, (-1, V.ambient_dim, V.ambient_dim))
    bnorm = max(np.linalg.norm(B) for B in Bs)
    worst = 0.0
    for zc, Y in zip(*plan):
        Z_mat = V.element(zc)
        mats = _commutant(nprime, Z_mat, config.tau_rank)
        coeffs, _ = lc.least_squares((mats @ Y).T, Z_mat @ Y)
        X_mat = np.tensordot(coeffs, mats, 1)
        worst = max(worst, float(np.max(np.abs(X_mat @ Bs - Bs @ X_mat))) / max(np.linalg.norm(X_mat) * bnorm, 1.0))
    return worst


def centralizer_type_check(V: SkewOperatorSubspace, config: SamplerConfig = SamplerConfig()) -> GOCertificate:
    """TNC with Nprime = the centralizer of V in so(n)."""
    return tnc_check(V, centralizer_in_so(V, config.tau_rank), config)


def naturally_reductive_flag(V: SkewOperatorSubspace, tau_rank: float = lc.DEFAULT_TAU_RANK) -> bool:
    """V generates a naturally reductive GO-nilmanifold iff V is a subalgebra."""
    return is_subalgebra(V, tau_rank)


def build_nilalgebra_from_subspace(V, q=None) -> MetricLieAlgebra:
    """Metric algebra on V + R^n with ([X, Y], Z)_1 = (Z(X), Y)_2.

    ``V`` may be a SkewOperatorSubspace (float path) or a list of exact
    rational matrices (nested lists); ``q`` is the inner product on V.
    """
    return algebra_from_jmaps(V.basis if isinstance(V, SkewOperatorSubspace) else V, q)


# ---------------------------------------------------------------------------
# centralizer-type structure operations
# ---------------------------------------------------------------------------


def semisimple_projection(V: SkewOperatorSubspace, tau_rank: float = lc.DEFAULT_TAU_RANK) -> SkewOperatorSubspace:
    """Project V onto the semisimple part of the subalgebra it generates."""
    A = generated_subalgebra(V, tau_rank)
    if A.dim == 0:
        return SkewOperatorSubspace(V.ambient_dim, [])
    center_part, derived_part = compact_split(A, tau_rank)
    basis_mats = center_part.basis + derived_part.basis
    M = np.array([B.ravel() for B in basis_mats]).T
    projected = []
    for B in V.basis:
        coords, res = lc.least_squares(M, B.ravel())
        if res > 1e-8 * max(1.0, np.linalg.norm(B)):
            raise PreconditionError("V does not lie in the generated subalgebra")
        s = np.zeros((V.ambient_dim, V.ambient_dim))
        for c, D in zip(coords[center_part.dim:], derived_part.basis):
            s += c * D
        projected.append(s)
    return span_matrices(projected, V.ambient_dim, tau_rank)


def center_of_centralizer(V: SkewOperatorSubspace, tau_rank: float = lc.DEFAULT_TAU_RANK) -> SkewOperatorSubspace:
    Zc = centralizer_in_so(V, tau_rank)
    return compact_split(Zc, tau_rank)[0]


def center_shift(V: SkewOperatorSubspace, psi: list, tau_rank: float = lc.DEFAULT_TAU_RANK) -> SkewOperatorSubspace:
    """The shifted subspace {Z + psi(Z)}; psi given by images of the V basis.

    Requires V inside the semisimple part of its generated subalgebra and
    psi mapping into the center of the centralizer.
    """
    if len(psi) != V.dim:
        raise InputError("psi must give one image per basis element of V")
    A = generated_subalgebra(V, tau_rank)
    _, derived_part = compact_split(A, tau_rank)
    if not subspace_contains(derived_part, V, 1e-7):
        raise PreconditionError("V must lie in the semisimple part of its generated subalgebra")
    cz = center_of_centralizer(V, tau_rank)
    P = cz.projector()
    for img in psi:
        w = np.asarray(img, dtype=float).ravel()
        if np.linalg.norm(w - P @ w) > 1e-8 * max(1.0, np.linalg.norm(w)):
            raise InputError("psi image lies outside the center of the centralizer")
    shifted = [B + np.asarray(img, dtype=float) for B, img in zip(V.basis, psi)]
    return span_matrices(shifted, V.ambient_dim, tau_rank)


# ---------------------------------------------------------------------------
# spectral lemmas
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigenComponent:
    eigenvalue: float  # eigenvalue of U^2 (non-positive)
    in_subspace: bool
    v2_residual: float


@dataclass(frozen=True)
class CommonEigenspaceReport:
    subspace_dim: int
    invariant_under_u: bool
    invariant_under_v: bool
    components: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (
            self.invariant_under_u
            and self.invariant_under_v
            and all(c.in_subspace and c.v2_residual <= 1e-8 for c in self.components)
        )


def common_eigenspace_check(U, V, Z=None, tau_rank: float = lc.DEFAULT_TAU_RANK) -> CommonEigenspaceReport:
    """Analyze L = {Z : U(Z) = V(Z)} for commuting skew U, V.

    Verifies invariance of L under both operators and, if Z in L is
    supplied, that its U^2-eigencomponents stay in L and are
    V^2-eigenvectors with the same eigenvalue.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    scale = max(np.linalg.norm(U) * np.linalg.norm(V), 1.0)
    if np.max(np.abs(U @ V - V @ U)) > 1e-10 * scale:
        raise PreconditionError("U and V must commute")
    basis = lc.nullspace(U - V, tau_rank)
    if basis:
        B = np.array(basis)
        P = B.T @ B  # orthogonal projector onto L
    else:
        B = np.zeros((0, U.shape[0]))
        P = np.zeros(U.shape)

    def invariant(W):
        for v in basis:
            w = W @ v
            if np.linalg.norm(w - P @ w) > 1e-8 * max(1.0, np.linalg.norm(w)):
                return False
        return True

    report_components = []
    if Z is not None:
        Z = np.asarray(Z, dtype=float)
        if np.linalg.norm(Z - P @ Z) > 1e-8 * max(1.0, np.linalg.norm(Z)):
            raise PreconditionError("Z must lie in the common subspace L")
        U2 = U @ U
        w, E = np.linalg.eigh((U2 + U2.T) / 2)
        # cluster eigenvalues and project Z on each eigenspace
        order = np.argsort(w)
        w, E = w[order], E[:, order]
        i = 0
        tol = 1e-8 * max(1.0, abs(w).max())
        while i < len(w):
            j = i
            while j + 1 < len(w) and abs(w[j + 1] - w[i]) <= tol:
                j += 1
            Evs = E[:, i: j + 1]
            Zi = Evs @ (Evs.T @ Z)
            if np.linalg.norm(Zi) > 1e-10 * max(1.0, np.linalg.norm(Z)):
                in_l = np.linalg.norm(Zi - P @ Zi) <= 1e-8 * np.linalg.norm(Zi)
                v2r = float(
                    np.linalg.norm(V @ (V @ Zi) - w[i] * Zi) / max(np.linalg.norm(Zi), 1e-300)
                ) / max(1.0, np.linalg.norm(V) ** 2)
                report_components.append(EigenComponent(float(w[i]), bool(in_l), v2r))
            i = j + 1
    return CommonEigenspaceReport(len(basis), invariant(U), invariant(V), report_components)


def commuting_triple_check(U, V, W, tol: float = 1e-9) -> bool:
    """Under [U,V]=[U,W]=0 and a simple-spectrum condition on U, test [V,W]=0.

    Preconditions (checked): U has no repeated nonzero eigenvalue pair and
    a zero eigenvalue of multiplicity at most 2.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    su = max(np.linalg.norm(U), 1.0)
    if np.max(np.abs(U @ V - V @ U)) > 1e-10 * su * max(np.linalg.norm(V), 1.0):
        raise PreconditionError("[U, V] != 0")
    if np.max(np.abs(U @ W - W @ U)) > 1e-10 * su * max(np.linalg.norm(W), 1.0):
        raise PreconditionError("[U, W] != 0")
    U2 = U @ U
    w = np.linalg.eigvalsh((U2 + U2.T) / 2)
    tol_sep = 1e-8 * max(1.0, abs(w).max())
    clusters: list[list[float]] = []
    for val in sorted(w):
        if clusters and abs(val - clusters[-1][0]) <= tol_sep:
            clusters[-1].append(val)
        else:
            clusters.append([val])
    for cl in clusters:
        if abs(cl[0]) <= tol_sep:
            if len(cl) > 2:
                raise PreconditionError("zero eigenvalue of multiplicity > 2")
        elif len(cl) != 2:
            raise PreconditionError("repeated nonzero eigenvalue pair")
    scale = max(np.linalg.norm(V) * np.linalg.norm(W), 1.0)
    return bool(np.max(np.abs(V @ W - W @ V)) <= tol * scale)


def riehm_predict(m: int, n: int, isotypic: Optional[str] = None) -> bool:
    """Riehm's GO classification of H-type groups by (m, n) and isotypy."""
    if m in (1, 2, 3):
        return True
    if m in (5, 6):
        return n == 8
    if m == 7:
        return n in (8, 16, 24) and isotypic in ("plus_id", "minus_id")
    return False
