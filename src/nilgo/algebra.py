"""Metric Lie algebras from structure constants, and structural queries.

An algebra is given by a dense tensor c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k and a Gram matrix for the inner product.
When all input data is rational an exact copy of the tensors is kept so
downstream checks (Pfaffian forms, witness re-verification) can run in
exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linear_core as lc
from .errors import InputError, NotTwoStepError, PreconditionError

MAX_DIM = 64


@dataclass(frozen=True)
class MetricLieAlgebra:
    dim: int
    structure: np.ndarray  # shape (d, d, d), float
    gram: np.ndarray  # shape (d, d), float
    structure_exact: Optional[list] = field(default=None, repr=False)
    gram_exact: Optional[list] = field(default=None, repr=False)

    def __post_init__(self):
        if self.dim < 0 or self.dim > MAX_DIM:
            raise InputError(f"dimension {self.dim} outside supported envelope [0, {MAX_DIM}]")
        if self.structure.shape != (self.dim,) * 3:
            raise InputError("structure tensor shape mismatch")
        if self.gram.shape != (self.dim, self.dim):
            raise InputError("gram shape mismatch")
        if not (np.all(np.isfinite(self.structure)) and np.all(np.isfinite(self.gram))):
            raise InputError("non-finite entries")

    @property
    def is_exact(self) -> bool:
        return self.structure_exact is not None and self.gram_exact is not None

    def bracket(self, X, Y) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        Y = np.asarray(Y, dtype=float)
        return np.einsum("i,j,ijk->k", X, Y, self.structure)

    def ad_matrix(self, X) -> np.ndarray:
        """Matrix of ad(X): Y -> [X, Y]."""
        return np.einsum("i,ijk->kj", np.asarray(X, dtype=float), self.structure)

    def inner(self, X, Y) -> float:
        return float(np.asarray(X) @ self.gram @ np.asarray(Y))

    def bracket_exact(self, X, Y) -> list[Fraction]:
        c = self.structure_exact
        d = self.dim
        out = [Fraction(0)] * d
        for i in range(d):
            xi = X[i]
            if xi == 0:
                continue
            for j in range(d):
                yj = Y[j]
                if yj == 0:
                    continue
                row = c[i][j]
                for k in range(d):
                    if row[k] != 0:
                        out[k] += xi * yj * row[k]
        return out


def make_algebra(structure, gram, exact: bool | None = None) -> MetricLieAlgebra:
    """Build an algebra; keeps an exact copy when the data is rational.

    ``structure`` may contain ints, Fractions or floats.  ``exact=None``
    autodetects; ``exact=False`` forces the float-only representation.
    """
    d = len(gram)
    flat_s = [structure[i][j][k] for i in range(d) for j in range(d) for k in range(d)] if d else []
    flat_g = [gram[i][j] for i in range(d) for j in range(d)]
    if exact is None:
        exact = all(isinstance(v, (int, Fraction)) for v in flat_s + flat_g)
    s_arr = np.array([[[float(structure[i][j][k]) for k in range(d)] for j in range(d)] for i in range(d)], dtype=float)
    s_arr = s_arr.reshape((d, d, d))
    g_arr = np.array([[float(gram[i][j]) for j in range(d)] for i in range(d)], dtype=float).reshape((d, d))
    se = ge = None
    if exact:
        se = [[[Fraction(structure[i][j][k]) for k in range(d)] for j in range(d)] for i in range(d)]
        ge = [[Fraction(gram[i][j]) for j in range(d)] for i in range(d)]
    return MetricLieAlgebra(d, s_arr, g_arr, se, ge)


@dataclass(frozen=True)
class Diagnostics:
    antisymmetry_residual: float
    jacobi_residual: float
    jacobi_bound: float
    gram_symmetry_residual: float
    gram_min_eigenvalue: float

    @property
    def passed(self) -> bool:
        return (
            self.antisymmetry_residual <= 1e-12 + 1e-10 * max(1.0, self.jacobi_bound)
            and self.jacobi_residual <= self.jacobi_bound
            and self.gram_symmetry_residual <= 1e-12
            and self.gram_min_eigenvalue > 0.0
        )


def validate(L: MetricLieAlgebra) -> Diagnostics:
    c = L.structure
    anti = float(np.max(np.abs(c + np.swapaxes(c, 0, 1)))) if L.dim else 0.0
    cmax = float(np.max(np.abs(c))) if L.dim else 0.0
    # [[e_i, e_j], e_k] summed over the cyclic permutations
    jac = np.einsum("ijl,lkm->ijkm", c, c)
    cyc = jac + np.transpose(jac, (1, 2, 0, 3)) + np.transpose(jac, (2, 0, 1, 3))
    jacobi = float(np.max(np.abs(cyc))) if L.dim else 0.0
    bound = 1e-10 * max(cmax**2, 1.0)
    gsym = float(np.max(np.abs(L.gram - L.gram.T))) if L.dim else 0.0
    gmin = float(np.min(np.linalg.eigvalsh((L.gram + L.gram.T) / 2))) if L.dim else 1.0
    return Diagnostics(anti, jacobi, bound, gsym, gmin)


def require_spd(g: np.ndarray, what: str) -> None:
    """Raise InputError unless ``g`` passes the Gram checks of :func:`validate`."""
    if g.size and (np.max(np.abs(g - g.T)) > 1e-12 or np.min(np.linalg.eigvalsh((g + g.T) / 2)) <= 0):
        raise InputError(f"{what} must be symmetric positive definite")


def _gram_orthonormalize(vectors: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of ``vectors`` w.r.t. the metric ``gram``."""
    if vectors.shape[0] == 0:
        return vectors
    M = vectors @ gram @ vectors.T
    w, U = np.linalg.eigh(M)
    keep = w > 1e-12 * max(w.max(), 1.0)
    return (U[:, keep] / np.sqrt(w[keep])).T @ vectors


def _gram_complement(vectors: np.ndarray, gram: np.ndarray, dim: int) -> np.ndarray:
    if vectors.shape[0] == 0:
        return np.eye(dim)
    basis = lc.nullspace(vectors @ gram, 1e-12)
    return np.array(basis) if basis else np.zeros((0, dim))


def center(L: MetricLieAlgebra, tau_rank: float = lc.DEFAULT_TAU_RANK) -> np.ndarray:
    """Gram-orthonormal basis (rows) of {X : [X, Y] = 0 for all Y}."""
    d = L.dim
    A = L.structure.reshape(d, d * d).T  # rows (j, k), columns i
    basis = lc.nullspace(A, tau_rank)
    vecs = np.array(basis) if basis else np.zeros((0, d))
    return _gram_orthonormalize(vecs, L.gram)


def center_exact(L: MetricLieAlgebra) -> list[list[Fraction]]:
    d = L.dim
    c = L.structure_exact
    rows = [[c[i][j][k] for i in range(d)] for j in range(d) for k in range(d)]
    return lc.rat_nullspace(rows)


def derived(L: MetricLieAlgebra, tau_rank: float = lc.DEFAULT_TAU_RANK) -> np.ndarray:
    """Gram-orthonormal basis (rows) of span{[e_i, e_j]}."""
    d = L.dim
    vecs = L.structure.reshape(d * d, d)
    if not np.any(vecs):
        return np.zeros((0, d))
    _, s, vt = np.linalg.svd(vecs)
    rank = int(np.sum(s > tau_rank * s[0]))
    return _gram_orthonormalize(vt[:rank], L.gram)


def nilpotency_class(L: MetricLieAlgebra, tau_rank: float = lc.DEFAULT_TAU_RANK) -> int:
    """Length of the lower central series n^1 = [n, n], n^(i+1) = [n, n^i]."""
    d = L.dim
    current = np.eye(d)
    for k in range(1, d + 2):
        # span of [e_i, w] for all basis e_i and w in the current term
        images = np.einsum("ijk,wj->iwk", L.structure, current).reshape(-1, d)
        if not np.any(images):
            return k
        _, s, vt = np.linalg.svd(images)
        rank = int(np.sum(s > tau_rank * s[0]))
        if rank == 0:
            return k
        current = vt[:rank]
    raise InputError("lower central series did not terminate (not nilpotent)")


@dataclass(frozen=True)
class TwoStepSplit:
    parent: MetricLieAlgebra
    z_basis: np.ndarray  # (m, d) rows, gram-orthonormal
    v_basis: np.ndarray  # (n, d) rows, gram-orthonormal
    derived_equals_center: bool
    z_basis_exact: Optional[list] = field(default=None, repr=False)
    v_basis_exact: Optional[list] = field(default=None, repr=False)
    # the J-map family, filled in once by jmaps.split_family
    jmap_family: Optional[object] = field(default=None, init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        return self.z_basis.shape[0]

    @property
    def n(self) -> int:
        return self.v_basis.shape[0]

    @property
    def is_exact(self) -> bool:
        return self.z_basis_exact is not None


def _exact_unit_rows(vectors: list[list[Fraction]]) -> bool:
    return all(sum(1 for x in v if x != 0) == 1 and next(x for x in v if x != 0) == 1 for v in vectors)


def split_two_step(L: MetricLieAlgebra, tau_rank: float = lc.DEFAULT_TAU_RANK) -> TwoStepSplit:
    cls = nilpotency_class(L, tau_rank)
    if cls != 2:
        raise NotTwoStepError(f"nilpotency class is {cls}, need 2")
    z = center(L, tau_rank)
    v = _gram_orthonormalize(_gram_complement(z, L.gram, L.dim), L.gram)
    der = derived(L, tau_rank)
    # derived subset of center always holds for 2-step; equality is the flag
    flag = der.shape[0] == z.shape[0]
    ze = ve = None
    if L.is_exact:
        gram_is_identity = all(
            L.gram_exact[i][j] == (1 if i == j else 0) for i in range(L.dim) for j in range(L.dim)
        )
        zc = center_exact(L)
        if gram_is_identity and _exact_unit_rows(zc):
            taken = {next(i for i, x in enumerate(v) if x != 0) for v in zc}
            ze = sorted(taken)
            ve = [i for i in range(L.dim) if i not in taken]
            z = np.eye(L.dim)[ze]
            v = np.eye(L.dim)[ve]
            ze = [[Fraction(1 if i == idx else 0) for i in range(L.dim)] for idx in ze]
            ve = [[Fraction(1 if i == idx else 0) for i in range(L.dim)] for idx in ve]
    return TwoStepSplit(L, z, v, flag, ze, ve)


def detect_flat_factor(
    L: MetricLieAlgebra, tau_rank: float = lc.DEFAULT_TAU_RANK
) -> tuple[int, MetricLieAlgebra]:
    """Split off the Euclidean factor spanned by central directions orthogonal to [n, n].

    Returns the flat dimension and the reduced algebra on [n, n] + v.
    """
    cls = nilpotency_class(L, tau_rank)
    if cls > 2:
        raise PreconditionError(f"nilpotency class {cls} > 2 unsupported")
    z = center(L, tau_rank)
    der = derived(L, tau_rank)
    if z.shape[0] == 0:
        return 0, L
    # euclidean part: central vectors gram-orthogonal to the derived algebra
    if der.shape[0] == 0:
        flat = z.shape[0]
    else:
        M = z @ L.gram @ der.T
        _, s, _ = np.linalg.svd(M) if M.size else (None, np.zeros(0), None)
        rank = int(np.sum(s > tau_rank * max(s[0], 1.0))) if s.size else 0
        flat = z.shape[0] - rank
    if flat == 0:
        return 0, L
    v = _gram_orthonormalize(_gram_complement(z, L.gram, L.dim), L.gram)
    new_rows = np.vstack([der, v]) if der.size or v.size else np.zeros((0, L.dim))
    return flat, restrict_to_span(L, new_rows, tau_rank)


def restrict_to_span(L: MetricLieAlgebra, rows: np.ndarray, tau_rank: float = lc.DEFAULT_TAU_RANK) -> MetricLieAlgebra:
    """Metric subalgebra on the span of ``rows`` (must be bracket-closed)."""
    k = rows.shape[0]
    gram = rows @ L.gram @ rows.T
    structure = np.zeros((k, k, k))
    pinv = np.linalg.pinv(rows)
    for a in range(k):
        for b in range(a + 1, k):
            w = L.bracket(rows[a], rows[b])
            coords = pinv.T @ w
            back = rows.T @ coords
            if np.linalg.norm(back - w) > 1e-8 * max(1.0, np.linalg.norm(w)):
                raise PreconditionError("span is not closed under the bracket")
            structure[a, b] = coords
            structure[b, a] = -coords
    return MetricLieAlgebra(k, structure, gram)


@dataclass(frozen=True)
class NonsingularityResult:
    status: str  # "yes" | "no" | "sampled_yes"
    witness: Optional[np.ndarray] = None  # Z in orthonormal z-coordinates
    exact: bool = False

    def __bool__(self) -> bool:
        return self.status != "no"


def is_nonsingular(
    L: MetricLieAlgebra,
    tau_rank: float = lc.DEFAULT_TAU_RANK,
    samples: int = 1000,
    seed: int = 0,
) -> NonsingularityResult:
    """Decide whether every nonzero J_Z is invertible.

    Exact for m <= 2 via the Pfaffian form; sampled for m >= 3 with the
    central basis vectors swept first (those witnesses are re-checked with
    the exact determinant when rational data is available).
    """
    from . import jmaps

    split = split_two_step(L, tau_rank)
    if not split.derived_equals_center:
        raise PreconditionError("[n, n] = z is required for non-singularity analysis")
    fam = jmaps.split_family(split)
    m, n = split.m, split.n
    if m == 1:
        if fam.is_exact:
            pf = lc.pfaffian_exact(fam.generators_exact[0])
            if pf != 0:
                return NonsingularityResult("yes", exact=True)
            return NonsingularityResult("no", np.array([1.0]), exact=True)
        pf = lc.pfaffian_numeric(fam.generators[0])
        if abs(pf) > tau_rank:
            return NonsingularityResult("yes")
        return NonsingularityResult("no", np.array([1.0]))
    if m == 2:
        poly = jmaps.pfaffian_form(split)
        coeffs = poly.float_coeffs()
        if coeffs[0] == 0.0:  # p(0, 1) = 0: J_{Z_2} singular
            return NonsingularityResult("no", np.array([0.0, 1.0]), exact=poly.is_exact)
        wpoly = coeffs  # p(1, w) has w-coefficients c_0 ... c_deg, highest first
        roots = np.roots(wpoly) if len(wpoly) > 1 else np.zeros(0)
        for r in roots:
            if abs(r.imag) <= 1e-8 * max(1.0, abs(r)):
                Z = np.array([1.0, float(r.real)])
                return NonsingularityResult("no", Z / np.linalg.norm(Z))
        return NonsingularityResult("yes", exact=poly.is_exact)
    # m >= 3: sampled decision
    rng = np.random.default_rng(seed)
    candidates = [np.eye(m)[i] for i in range(m)]
    for k in range(samples):
        Z = rng.standard_normal(m)
        candidates.append(Z / np.linalg.norm(Z))
    for idx, Z in enumerate(candidates):
        J = jmaps.build_jmap(split, Z)
        smax = np.linalg.norm(J, 2)
        smin = np.linalg.svd(J, compute_uv=False)[-1]
        if smin <= tau_rank * max(smax, 1.0):
            exact = False
            if fam.is_exact and idx < m:
                exact = lc.rat_det(fam.generators_exact[idx]) == 0
            return NonsingularityResult("no", Z, exact=exact)
    return NonsingularityResult("sampled_yes")


# ---------------------------------------------------------------------------
# JSON algebra format
# ---------------------------------------------------------------------------


def _parse_value(v):
    if isinstance(v, bool):
        raise InputError("boolean is not a number")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"cannot parse value {v!r}: {e}") from None
    if isinstance(v, float):
        return v
    raise InputError(f"unsupported numeric value {v!r}")


def algebra_from_dict(data: dict) -> MetricLieAlgebra:
    """Parse the JSON algebra format (brackets given for i < j only)."""
    if not isinstance(data, dict):
        raise InputError("algebra document must be a JSON object")
    try:
        d = int(data["dim"])
        brackets = data["brackets"]
        gram_in = data["gram"]
    except (KeyError, TypeError, ValueError) as e:
        raise InputError(f"bad algebra document: {e}") from None
    if d < 0 or d > MAX_DIM:
        raise InputError(f"dim {d} out of range")
    structure = [[[Fraction(0) for _ in range(d)] for _ in range(d)] for _ in range(d)]
    exact = True
    for entry in brackets:
        try:
            i, j = int(entry["i"]), int(entry["j"])
            coeffs = entry["coeffs"]
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"bad bracket entry {entry!r}: {e}") from None
        if not (0 <= i < d and 0 <= j < d and i < j):
            raise InputError(f"bracket indices ({i}, {j}) must satisfy 0 <= i < j < dim")
        for kstr, v in coeffs.items():
            k = int(kstr)
            if not 0 <= k < d:
                raise InputError(f"coefficient index {k} out of range")
            val = _parse_value(v)
            if isinstance(val, float):
                exact = False
            structure[i][j][k] = val
            structure[j][i][k] = -val
    if len(gram_in) != d or any(len(r) != d for r in gram_in):
        raise InputError("gram must be a dim x dim array")
    gram = []
    for r in gram_in:
        row = []
        for v in r:
            val = _parse_value(v)
            if isinstance(val, float):
                exact = False
            row.append(val)
        gram.append(row)
    return make_algebra(structure, gram, exact=exact if exact else False)


def _format_value(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return str(v)
    return float(v)


def algebra_to_dict(L: MetricLieAlgebra) -> dict:
    brackets = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            coeffs = {}
            for k in range(L.dim):
                v = L.structure_exact[i][j][k] if L.is_exact else L.structure[i, j, k]
                if v != 0:
                    coeffs[str(k)] = _format_value(v)
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    if L.is_exact:
        gram = [[_format_value(x) for x in row] for row in L.gram_exact]
    else:
        gram = [[float(x) for x in row] for row in L.gram]
    return {"dim": L.dim, "brackets": brackets, "gram": gram}
