"""Geodesic-orbit criteria: the Kowalski--Vanhecke equation, Gordon's
nilmanifold criterion and transitive normalizer conditions.

Universal quantifiers over continua are certified by a deterministic
sweep plus seeded random sampling; verification is reported as
``verified_sampled`` while refutations carry an explicit witness (and,
when rational data is available, an exact infeasibility re-check).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import numpy as np

from . import jmaps, linear_core as lc
from .algebra import MetricLieAlgebra, TwoStepSplit, make_algebra, nilpotency_class, require_spd, split_two_step
from .errors import InputError, PreconditionError
from .operator_subspaces import (
    DerivationAlgebra,
    SkewOperatorSubspace,
    _normalizes,
    _upper_pairs,
    brackets,
    centralizer_in_so,
    is_subalgebra,
    normalizer_in_so,
    skew_basis,
    skew_derivations,
    split_derivation_system,
    split_derivations,
)

VERIFIED_SAMPLED = "verified_sampled"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"

# the residual thresholds of every certificate, relative to each sample's scale (see _adjudicate)
TAU_FEAS = 1e-8
TAU_REFUTE = 1e-4


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    samples: int = 200

    def __post_init__(self):
        if self.samples < 0:
            raise InputError(f"samples must be non-negative, got {self.samples}")
        if self.seed < 0:  # default_rng takes no negative seed
            raise InputError(f"seed must be non-negative, got {self.seed}")

    def tolerances(self) -> dict:
        return {"tau_feas": TAU_FEAS, "tau_refute": TAU_REFUTE, "tau_rank": lc.TAU_RANK}


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


def isometry_decomposition(L: MetricLieAlgebra) -> DerivationAlgebra:
    """The isotropy algebra D(n) of the full-isometry decomposition (D(n), n) of a nilmanifold."""
    require_spd(L.gram, "gram matrix")
    nilpotency_class(L)  # raises InputError unless L is nilpotent
    return skew_derivations(L)


def _sweep(k: int, sums: bool = True) -> np.ndarray:
    """Basis vectors of R^k, then (if ``sums``) every e_i + e_j with i < j, as rows."""
    eye, (iu, ju) = np.eye(k), _upper_pairs(k)
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
    exceeds both TAU_FEAS and TAU_REFUTE refutes, with
    ``witness(sample, residual, from_sweep)``; any other sample above
    TAU_FEAS makes the result inconclusive.  Non-finite systems, scales
    or residuals raise InputError.
    """
    plan, n_sweep = _sample_plan(config, dims)
    status, max_res = VERIFIED_SAMPLED, 0.0
    for start in range(0, len(plan[0]), CHUNK):
        chunk = [f[start:start + CHUNK] for f in plan]
        rel = []
        # overflow surfaces as a non-finite system, scale or residual below
        with np.errstate(over="ignore", invalid="ignore"):
            for A, b, scale in system(*chunk):
                if not np.all(np.isfinite(scale)):
                    raise InputError("residual scale is not finite")
                rel.append(lc.batch_residuals(A, b) / np.maximum(scale, 1e-300))
                del A, b, scale  # the loop keeps no block past its solve
        rel = np.concatenate(rel)
        over = rel > TAU_FEAS
        refuting = np.flatnonzero(over & (rel > TAU_REFUTE))
        stop = refuting[0] + 1 if refuting.size else len(rel)
        max_res = max(max_res, float(rel[:stop].max()))
        if over[:stop].any():
            status = INCONCLUSIVE
        if refuting.size:
            i = refuting[0]
            found = witness(tuple(f[i] for f in chunk), float(rel[i]), bool(start + i < n_sweep))
            return GOCertificate(REFUTED, config.samples, max_res, config.tolerances(), config.seed, found)
    return GOCertificate(status, config.samples, max_res, config.tolerances(), config.seed)


def _apply(M: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The (r, k) matrices whose column p is M[p] @ X[b], for the rows of X, stacked: one matmul."""
    k, r, c = M.shape
    return (M.reshape(k * r, c) @ X.T).reshape(k, r, len(X)).transpose(2, 1, 0)


def _kv_system(ders: DerivationAlgebra, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked KV systems for the rows of X: column h of A[i] is H_h^T G X_i,
    b[i] is -ad(X_i)^T G X_i."""
    L = ders.parent
    gx = X @ L.gram.T
    # row j of np.tensordot(X, c, 1)[i] is [X_i, e_j]
    return _apply(ders.basis.transpose(0, 2, 1), gx), -(np.tensordot(X, L.structure, 1) @ gx[:, :, None])[:, :, 0]


def kv_solve(ders: DerivationAlgebra, X) -> tuple[np.ndarray, float]:
    """Solve ([X+Z, Y], X) = 0 for Z in D(n), minimum-norm least squares.

    Returns coefficients of Z over ``ders.basis`` and the residual norm.
    """
    A, b = _kv_system(ders, np.asarray(X, dtype=float)[None])
    return lc.least_squares(A[0], b[0])


def kv_go_check(ders: DerivationAlgebra, config: SamplerConfig = SamplerConfig()) -> GOCertificate:
    """Sampled KV GO-criterion over basis vectors, pairwise sums, and random unit X.

    The residual scale max|c| max|G| |X|^2 has the degree of the residual
    in the brackets and in the metric."""
    L = ders.parent
    cnorm = float(np.max(np.abs(L.structure))) * float(np.max(np.abs(L.gram)))
    return _adjudicate(
        config,
        (L.dim,),
        lambda X: [(*_kv_system(ders, X), cnorm * np.einsum("bi,bi->b", X, X))],
        lambda s, rel, _: {"X": s[0].tolist(), "residual": rel},
    )


# ---------------------------------------------------------------------------
# Gordon's criterion for two-step nilmanifolds
# ---------------------------------------------------------------------------


def _gordon_blocks(split, maps, X, Y):
    """Stacked systems for 'exists D: D(X) = 0, D(Y) = J_X(Y)' over rows of
    X and Y, one column per derivation.  With ``maps = (C, A)`` from
    :func:`split_derivations`, ``C[p] X`` and ``A[p] Y - J_X Y`` are
    D_p(X) and D_p(Y) - J_X(Y) in the split's orthonormal coordinates of
    z and of v.  The scale max_k |J_k| |X| |Y| has the residual's degree
    in J and in the metric."""
    C, A = maps
    J = jmaps.split_family(split).generators
    JXY = (np.tensordot(X, J, 1) @ Y[:, :, None])[:, :, 0]
    k, m, _ = C.shape
    # in the memory order of _apply's products: the parts copy straight in
    M = np.empty((k, m + A.shape[1], len(X))).transpose(2, 1, 0)
    M[:, :m] = _apply(C, X)
    M[:, m:] = _apply(A, Y)
    b = np.concatenate([np.zeros_like(X), JXY], axis=1)
    scale = np.linalg.norm(J, axis=(1, 2)).max() * np.linalg.norm(X, axis=1) * np.linalg.norm(Y, axis=1)
    return [(M, b, scale)]


def apply_center_metric(L: MetricLieAlgebra, q) -> MetricLieAlgebra:
    """Replace the inner product on the center by the SPD matrix q.

    The Lie algebra structure is unchanged; only the gram matrix is
    rebuilt so that the current orthonormal central basis has gram q.
    """
    split = split_two_step(L)
    q = np.asarray(q, dtype=float)
    if q.shape != (split.m, split.m):
        raise InputError(f"metric must be {split.m} x {split.m}")
    require_spd(q, "metric parameter")
    W = L.gram @ split.z_basis.T  # functionals of the orthonormal central basis
    return make_algebra(L.structure, L.gram + W @ (q - np.eye(split.m)) @ W.T)


def gordon_go_check(L: MetricLieAlgebra, config: SamplerConfig = SamplerConfig()) -> GOCertificate:
    """Gordon's criterion: for X in z, Y in v find D in D(n) with
    D(X) = 0 and D(Y) = J_X(Y); sampled over a sweep plus random pairs."""
    require_spd(L.gram, "gram matrix")
    split = split_two_step(L)
    if not split.derived_equals_center:
        raise PreconditionError("[n, n] = z is required (strip the flat factor first)")
    A, C = split_derivations(split)
    cert = _adjudicate(
        config,
        (split.m, split.n),
        functools.partial(_gordon_blocks, split, (C, A)),
        lambda s, rel, sweep: {"X": s[0].tolist(), "Y": s[1].tolist(), "residual": rel, "from_sweep": sweep},
    )
    w = cert.witness
    if w is not None and w["from_sweep"] and split.is_exact:
        cert = replace(cert, exact_refutation=gordon_refute_exact(split, w["X"], w["Y"]))
    return cert


# the elimination of the exact re-check, its only caller; perfbench/tracer.py times it under this name
_bareiss_pivots = lc.bareiss_pivots


def gordon_refute_exact(split: TwoStepSplit, X, Y) -> bool:
    """Exact infeasibility check of the Gordon system for rational X, Y.

    The unknowns are the pairs (A, C) of :func:`split_derivations`.  The
    derivation rows are :func:`split_derivation_system` on the integer
    generators ``J_int = den * J`` of the exact split, Python ints that the
    rows copy without a product.  X and Y enter as
    the integer vectors ``lx * X`` and ``ly * Y`` (lx, ly the lcm of their
    denominators), in the witness rows ``C (lx X) = 0`` and ``den lx A (ly
    Y) = sum_i (lx X)_i J_int,i (ly Y)``.  Every row is a rational row
    times a nonzero integer, so the pivots are those of the rational
    system, and a pivot in the right-hand column means infeasible
    (Farkas-style refutation).
    """
    if not split.is_exact:
        raise PreconditionError("exact re-check needs rational data")
    Xq, Yq = ([Fraction(v).limit_denominator(10**6) for v in w] for w in (X, Y))
    if any(abs(float(a) - float(b)) > 1e-12 for q, w in ((Xq, X), (Yq, Y)) for a, b in zip(q, list(w))):
        raise PreconditionError("witness is not rational")
    J, den = jmaps.split_family(split).generators_exact
    rows = split_derivation_system(J)
    lx, ly = math.lcm(*(v.denominator for v in Xq)), math.lcm(*(v.denominator for v in Yq))
    Xi = np.array([int(v * lx) for v in Xq], dtype=object)
    Yi = np.array([int(v * ly) for v in Yq], dtype=object)
    E, F = skew_basis(split.n).astype(np.int64), skew_basis(split.m).astype(np.int64)
    rows_x = np.hstack([np.zeros((split.m, len(E)), dtype=object), (F @ Xi).T])
    rows_y = np.hstack([den * lx * (E @ Yi).T, np.zeros((split.n, len(F)), dtype=object)])
    lhs = np.vstack([rows, rows_x, rows_y])
    rhs = np.concatenate([np.zeros(len(rows) + split.m, dtype=object), np.einsum("i,iab,b->a", Xi, J, Yi)])
    pivots = _bareiss_pivots(np.column_stack([lhs, rhs]).tolist())
    return lhs.shape[1] in pivots  # pivot in the rhs column <=> infeasible


# ---------------------------------------------------------------------------
# transitive normalizer condition
# ---------------------------------------------------------------------------


def _nprime(N: np.ndarray, V: SkewOperatorSubspace) -> tuple[np.ndarray, Optional[np.ndarray], float]:
    """N' (stacked basis N) ready for the TNC systems of V: ``(N, Tz, |N'|)``.

    The bracket tensor ``T[p, q] = [N_p, V_q]`` is built once per check.
    ``Tz`` is None when T vanishes at round-off, i.e. when N' centralizes
    V and so is the commutant of every Z in V; otherwise it is T as a
    ``(dim V, k n^2)`` matrix, so that ``z @ Tz`` holds the brackets
    [N_p, Z] of Z = sum_q z_q V_q.  |N'| is the largest norm of the N_p.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        T = brackets(N, V.basis)
    if not np.all(np.isfinite(T)):
        raise InputError("brackets of N' and V are not finite")
    nnorm = np.linalg.norm(N, axis=(1, 2)).max(initial=0.0)
    vnorm = np.linalg.norm(V.basis, axis=(1, 2)).max(initial=0.0)
    if np.abs(T).max(initial=0.0) <= 1e-12 * nnorm * vnorm:
        return N, None, nnorm
    return N, T.transpose(1, 0, 2, 3).reshape(V.dim, -1), nnorm


def _commutant(nprime, z, Z_mat) -> np.ndarray:
    """Basis of the commutant of Z = ``Z_mat`` (coefficients z over V)
    inside span(N'), stacked, for ``nprime`` from :func:`_nprime`."""
    N, Tz, nnorm = nprime
    if Tz is None:
        return N
    K = (z @ Tz).reshape(len(N), -1).T
    # suppress round-off from the products, relative to the scale of the
    # brackets, so that exactly commuting elements are not ranked by noise
    # singular values
    K[np.abs(K) <= 1e-12 * nnorm * np.linalg.norm(Z_mat)] = 0.0
    return np.tensordot(lc.nullspace(K), N, 1)


def _tnc_blocks(V, nprime, cache, zc, Y):
    """Stacked systems X(Y) = Z(Y), X in the commutant of Z inside N'
    (``nprime`` from :func:`_nprime`), over rows of zc (Z in V's basis) and Y.

    When N' centralizes V the chunk is one block ``A[b] = N' Y_b``.
    Otherwise the commutant is computed once per distinct Z (kept in
    ``cache``) and applied to each run of samples with that Z; consecutive
    runs with commutants of one dimension share a block."""
    N, Tz, _ = nprime
    Zs = np.tensordot(zc, V.basis, 1)
    b = (Zs @ Y[:, :, None])[:, :, 0]
    scale = np.linalg.norm(b, axis=1) + np.linalg.norm(Zs, axis=(1, 2)) * np.linalg.norm(Y, axis=1)
    if Tz is None:
        return [(_apply(N, Y), b, scale)]
    starts = np.flatnonzero(np.r_[True, np.any(zc[1:] != zc[:-1], axis=1)])
    runs = []
    for s, e in zip(starts, [*starts[1:], len(zc)]):
        key = zc[s].tobytes()
        if key not in cache:
            cache[key] = _commutant(nprime, zc[s], Zs[s])
        runs.append((_apply(cache[key], Y[s:e]), b[s:e], scale[s:e]))
    groups = itertools.groupby(runs, key=lambda run: run[0].shape[2])
    return [tuple(np.concatenate(part) for part in zip(*group)) for _, group in groups]


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
    N = Nprime.basis
    if not _normalizes(N, V):
        raise InputError("Nprime is not contained in the normalizer of V")
    return _adjudicate(
        config,
        (V.dim, V.ambient_dim),
        functools.partial(_tnc_blocks, V, _nprime(N, V), {}),
        lambda s, rel, _: {"Z": s[0].tolist(), "Y": s[1].tolist(), "residual": rel},
    )


def normalizer_resolve_residual(V: SkewOperatorSubspace, config: SamplerConfig = SamplerConfig()) -> float:
    """Re-solve the TNC samples against the full normalizer of V and
    report the worst centralizer residual max_i |[X, V_i]| / (|X| max_i
    |V_i|) of the minimum-norm solutions X found (0 for X = 0); 0.0 for a
    zero-dimensional V."""
    if V.dim == 0:
        return 0.0
    nprime = _nprime(normalizer_in_so(V).basis, V)
    plan, _ = _sample_plan(config, (V.dim, V.ambient_dim), sums=False)
    Bs = V.basis / np.linalg.norm(V.basis, axis=(1, 2)).max()
    worst = 0.0
    for zc, Y in zip(*plan):
        Z_mat = V.element(zc)
        mats = _commutant(nprime, zc, Z_mat)
        coeffs, _ = lc.least_squares((mats @ Y).T, Z_mat @ Y)
        X_mat = np.tensordot(coeffs, mats, 1)
        xnorm = np.linalg.norm(X_mat)
        if xnorm > 0:  # unit X and V: no product under- or overflows
            X_mat = X_mat / xnorm
            worst = max(worst, float(np.max(np.abs(X_mat @ Bs - Bs @ X_mat))))
    return worst


def centralizer_type_check(V: SkewOperatorSubspace, config: SamplerConfig = SamplerConfig()) -> GOCertificate:
    """TNC with Nprime = the centralizer of V in so(n)."""
    return tnc_check(V, centralizer_in_so(V), config)


def naturally_reductive_flag(V: SkewOperatorSubspace) -> bool:
    """V generates a naturally reductive GO-nilmanifold iff V is a subalgebra."""
    return is_subalgebra(V)


def riehm_predict(m: int, n: int, isotypic: Optional[str] = None) -> bool:
    """Riehm's GO classification of H-type groups by (m, n) and isotypy."""
    if m in (1, 2, 3):
        return True
    if m in (5, 6):
        return n == 8
    if m == 7:
        return n in (8, 16, 24) and isotypic in ("plus_id", "minus_id")
    return False
