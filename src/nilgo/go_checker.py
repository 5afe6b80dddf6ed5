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
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import jmaps, linear_core as lc
from .algebra import MetricLieAlgebra, TwoStepSplit, nilpotency_class, require_spd, split_two_step
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
VERIFIED_EXACT = "verified_exact"
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

    def rng(self, index: int) -> np.random.Generator:
        # per-sample generator: reproducible and parallelism-independent
        return np.random.default_rng((self.seed, index))

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
        return self.status in (VERIFIED_SAMPLED, VERIFIED_EXACT)

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
        return np.einsum("i,ijk->kj", X, self.structure)


def isometry_decomposition(L: MetricLieAlgebra, tau_rank: float = lc.DEFAULT_TAU_RANK) -> ReductiveDecomposition:
    """The full-isometry decomposition (D(n), n) of a nilmanifold."""
    require_spd(L.gram, "gram matrix")
    nilpotency_class(L, tau_rank)  # raises InputError unless L is nilpotent
    ders = skew_derivations(L, tau_rank)
    return ReductiveDecomposition(L.dim, ders.basis, L.structure, L.gram)


def _effective_cond(A: np.ndarray, tau_rank: float) -> float:
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 1.0
    nz = s[s > tau_rank * s[0]]
    return float(s[0] / nz[-1])


def _floats(v) -> list[float]:
    return [float(x) for x in v]


def _sweep(k: int, sums: bool = True) -> list[np.ndarray]:
    """Basis vectors of R^k, then (if ``sums``) every e_i + e_j with i < j."""
    eye = np.eye(k)
    out = [eye[i] for i in range(k)]
    if sums:
        out += [eye[i] + eye[j] for i in range(k) for j in range(i + 1, k)]
    return out


def _sample_plan(config: SamplerConfig, dims, sums: bool = True) -> tuple[list, int]:
    """Samples as tuples of vectors, one vector per entry of ``dims``.

    The deterministic sweep (all combinations of the per-factor sweeps)
    comes first, then ``config.samples`` seeded tuples of unit vectors,
    drawn factor by factor from one generator per sample.  Returns the
    samples and the length of the sweep.
    """
    plan = list(itertools.product(*(_sweep(k, sums) for k in dims)))
    n_sweep = len(plan)
    for idx in range(config.samples):
        rng = config.rng(idx)
        draws = [rng.standard_normal(k) for k in dims]
        plan.append(tuple(v / np.linalg.norm(v) for v in draws))
    return plan, n_sweep


def _adjudicate(config: SamplerConfig, dims, system, witness) -> GOCertificate:
    """Sampled certificate that ``system(*sample)`` is solvable on the plan of ``dims``.

    ``system`` returns ``(A, b, scale)``; the least-squares residual of
    ``A z = b`` relative to ``scale`` is compared with the tolerances.
    The first sample above tau_refute whose system is well conditioned
    refutes, with ``witness(sample, residual, from_sweep)`` as witness;
    any other sample above tau_feas makes the result inconclusive.
    """
    plan, n_sweep = _sample_plan(config, dims)
    status, found, max_res = VERIFIED_SAMPLED, None, 0.0
    for idx, sample in enumerate(plan):
        A, b, scale = system(*sample)
        _, res = lc.least_squares(A, b)
        rel = res / max(scale, 1e-300)
        max_res = max(max_res, rel)
        if rel > config.tau_feas:
            if rel > config.tau_refute and _effective_cond(A, config.tau_rank) < config.cond_limit:
                status, found = REFUTED, witness(sample, rel, idx < n_sweep)
                break
            status = INCONCLUSIVE
    return GOCertificate(status, config.samples, max_res, config.tolerances(), config.seed, found)


def _kv_system(decomp: ReductiveDecomposition, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    gx = decomp.gram @ X
    if not decomp.h_basis:
        A = np.zeros((decomp.p_dim, 0))
    else:
        A = np.array([H.T @ gx for H in decomp.h_basis]).T
    return A, -decomp.ad_p(X).T @ gx


def kv_solve(decomp: ReductiveDecomposition, X) -> tuple[np.ndarray, float]:
    """Solve ([X+Z, Y]_p, X) = 0 for Z in h, minimum-norm least squares.

    Returns coefficients of Z over h_basis and the residual norm.
    """
    return lc.least_squares(*_kv_system(decomp, np.asarray(X, dtype=float)))


def kv_go_check(decomp: ReductiveDecomposition, config: SamplerConfig = SamplerConfig()) -> GOCertificate:
    """Sampled KV GO-criterion over basis vectors, pairwise sums, and random unit X."""
    cnorm = max(float(np.max(np.abs(decomp.structure))), 1.0)
    return _adjudicate(
        config,
        (decomp.p_dim,),
        lambda X: (*_kv_system(decomp, X), cnorm * float(X @ X)),
        lambda s, rel, _: {"X": _floats(s[0]), "residual": rel},
    )


# ---------------------------------------------------------------------------
# Gordon's criterion for two-step nilmanifolds
# ---------------------------------------------------------------------------


def _gordon_system(L, split, ders, extra, X, Y):
    """Constraint matrix/vector for 'exists D in D(n): D(X)=0, D(Y)=J_X(Y)',
    plus the rows ``extra`` (when given) that must vanish on the solution."""
    Xa = split.z_basis.T @ X
    Ya = split.v_basis.T @ Y
    JX = jmaps.build_jmap(split, X)
    target = split.v_basis.T @ (JX @ Y)
    cols = [np.concatenate([D @ Xa, D @ Ya]) for D in ders.basis]
    A = np.array(cols).T if cols else np.zeros((2 * L.dim, 0))
    b = np.concatenate([np.zeros(L.dim), target])
    if extra is not None:
        A = np.vstack([A, extra])
        b = np.concatenate([b, np.zeros(extra.shape[0])])
    scale = np.linalg.norm(JX @ Y) + np.linalg.norm(X) * np.linalg.norm(Y)
    return A, b, scale


def _restriction_to_v(L, split, D):
    return split.v_basis @ L.gram @ D @ split.v_basis.T


def apply_center_metric(L: MetricLieAlgebra, metric: MetricParameter) -> MetricLieAlgebra:
    """Replace the inner product on the center by the SPD matrix q.

    The Lie algebra structure is unchanged; only the gram matrix is
    rebuilt so that the current orthonormal central basis has gram q.
    """
    from .algebra import make_algebra

    split = split_two_step(L)
    q = metric.q
    if q.shape != (split.m, split.m):
        raise InputError(f"metric must be {split.m} x {split.m}")
    zb = split.z_basis
    W = L.gram @ zb.T  # functionals of the orthonormal central basis
    gram = L.gram + W @ (q - np.eye(split.m)) @ W.T
    return make_algebra(L.structure, gram, exact=False)


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
    ders = skew_derivations(L, config.tau_rank)
    extra = None
    if restrict_to is not None:
        if restrict_to.ambient_dim != split.n:
            raise InputError("restrict_to must act on v")
        P = restrict_to.projector()
        rows = []
        for D in ders.basis:
            phi = _restriction_to_v(L, split, D).ravel()
            rows.append(phi - P @ phi)
        extra = np.array(rows).T  # (n^2, n_ders): must vanish on the solution

    cert = _adjudicate(
        config,
        (split.m, split.n),
        functools.partial(_gordon_system, L, split, ders, extra),
        lambda s, rel, sweep: {"X": _floats(s[0]), "Y": _floats(s[1]), "residual": rel, "from_sweep": sweep},
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
    :func:`derivation_system` on the structure tensor times the common
    denominator ``den`` of its entries, which scales each row by ``den``
    and leaves the pivots unchanged.
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
    entries = [x for plane in L.structure_exact for row in plane for x in row]
    den = math.lcm(*(x.denominator for x in entries))
    c = np.array([x.numerator * (den // x.denominator) for x in entries], dtype=object).reshape(d, d, d)
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


def _tnc_system(nprime_mats, Z_mat, Y, tau_rank):
    """X(Y) = Z(Y) for X in the commutant of Z inside span(nprime_mats).

    Returns ``(A, b, scale, mats)``: ``mats`` spans that commutant, column
    j of A is ``mats[j] @ Y`` and b is Z(Y).
    """
    if nprime_mats:
        K = np.array([(N @ Z_mat - Z_mat @ N).ravel() for N in nprime_mats]).T
        # suppress roundoff from the matrix products so that exactly
        # commuting elements are not ranked by noise singular values
        kscale = max(np.linalg.norm(N) * np.linalg.norm(Z_mat) for N in nprime_mats)
        K[np.abs(K) <= 1e-12 * max(kscale, 1.0)] = 0.0
        combos = lc.nullspace(K, tau_rank)
    else:
        combos = []
    mats = [sum(c * N for c, N in zip(combo, nprime_mats)) for combo in combos]
    A = np.array([M @ Y for M in mats]).T if mats else np.zeros((len(Y), 0))
    b = Z_mat @ Y
    scale = np.linalg.norm(b) + np.linalg.norm(Z_mat) * np.linalg.norm(Y)
    return A, b, scale, mats


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
        lambda zc, Y: _tnc_system(Nprime.basis, V.element(zc), Y, config.tau_rank)[:3],
        lambda s, rel, _: {"Z": _floats(s[0]), "Y": _floats(s[1]), "residual": rel},
    )


def normalizer_resolve_residual(V: SkewOperatorSubspace, config: SamplerConfig = SamplerConfig()) -> float:
    """Re-solve the TNC samples against the full normalizer of V and
    report the worst relative centralizer residual max_i |[X, V_i]| of
    the minimum-norm solutions found."""
    Nprime = normalizer_in_so(V, config.tau_rank)
    n = V.ambient_dim
    plan, _ = _sample_plan(config, (V.dim, n), sums=False)
    bnorm = max(np.linalg.norm(B) for B in V.basis)
    worst = 0.0
    for zc, Y in plan:
        A, b, _, mats = _tnc_system(Nprime.basis, V.element(zc), Y, config.tau_rank)
        coeffs, _ = lc.least_squares(A, b)
        X_mat = np.zeros((n, n))
        for c, M in zip(coeffs, mats):
            X_mat += c * M
        scale = max(np.linalg.norm(X_mat) * bnorm, 1.0)
        for B in V.basis:
            worst = max(worst, float(np.max(np.abs(X_mat @ B - B @ X_mat))) / scale)
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
    if isinstance(V, SkewOperatorSubspace):
        gens = [B.tolist() for B in V.basis]
    else:
        gens = V
    return algebra_from_jmaps(gens, q)


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
