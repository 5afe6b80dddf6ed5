"""Metric Lie algebras from structure constants, and structural queries.

An algebra is given by a dense tensor c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k and a Gram matrix for the inner product.
When all input data is rational each tensor is kept exactly as an array of
Python ints over one common denominator, and the float tensors are derived
from it, so downstream checks (the exact split, Pfaffian forms, witness
re-verification) run in integer arithmetic.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import invariants, linear_core as lc
from .errors import InputError, NotTwoStepError, PreconditionError

MAX_DIM = 64


@dataclass(frozen=True)
class MetricLieAlgebra:
    dim: int
    structure: np.ndarray  # shape (d, d, d), float
    gram: np.ndarray  # shape (d, d), float
    # exact data as (integer object array, common denominator): the
    # structure tensor is c_int / den and the Gram matrix g_int / gden
    structure_exact: Optional[tuple] = field(default=None, repr=False)
    gram_exact: Optional[tuple] = field(default=None, repr=False)
    # the nilpotency class, filled in once by nilpotency_class
    nil_class: Optional[int] = field(default=None, init=False, repr=False, compare=False)

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

    def inner(self, X, Y) -> float:
        return float(np.asarray(X) @ self.gram @ np.asarray(Y))


def _over_common_denominator(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a_int, den)`` with ``a == a_int / den`` for an object array of ints and Fractions.

    ``den`` is the least common denominator, so equal rational arrays give
    equal pairs.
    """
    nz = np.flatnonzero(a)
    vals = a.flat[nz]
    den = math.lcm(*(x.denominator for x in vals))
    out = np.zeros(a.shape, dtype=object)
    out.flat[nz] = [x.numerator * (den // x.denominator) for x in vals]
    return out, den


def _float_view(a_int: np.ndarray, den: int) -> np.ndarray:
    """The correctly rounded floats of ``a_int / den`` (OverflowError past the float range)."""
    out = np.zeros(a_int.shape)
    nz = np.flatnonzero(a_int)
    out.flat[nz] = [x / den for x in a_int.flat[nz]]
    return out


def make_algebra(structure, gram) -> MetricLieAlgebra:
    """Build an algebra from nested lists or arrays of ints, Fractions or floats.

    When every entry is an int or a Fraction the algebra keeps the exact
    pairs and derives its float tensors from them; otherwise it is float
    only.  A value past the float range raises InputError.
    """
    g = np.array(gram, dtype=object)
    d = len(g)
    c = np.array(structure, dtype=object).reshape((d, d, d))
    g = g.reshape((d, d))
    try:
        if all(issubclass(t, (int, Fraction)) for t in set(map(type, itertools.chain(c.flat, g.flat)))):
            se, ge = _over_common_denominator(c), _over_common_denominator(g)
            return MetricLieAlgebra(d, _float_view(*se), _float_view(*ge), se, ge)
        return MetricLieAlgebra(d, c.astype(float), g.astype(float))
    except OverflowError:
        raise InputError("a coefficient is too large for a float") from None


@dataclass(frozen=True)
class Diagnostics:
    antisymmetry_residual: float
    jacobi_residual: float
    structure_max: float  # max|c|
    gram_symmetry_residual: float
    gram_max: float  # max|g|
    gram_min_eigenvalue: float

    @property
    def passed(self) -> bool:
        # each residual against the scale of its degree in c or g, with no absolute floor
        return (
            self.antisymmetry_residual <= 1e-10 * self.structure_max
            and self.jacobi_residual <= 1e-10 * self.structure_max**2
            and self.gram_symmetry_residual <= 1e-12 * self.gram_max
            and self.gram_min_eigenvalue > 0.0
        )


def validate(L: MetricLieAlgebra) -> Diagnostics:
    c = L.structure
    anti = float(np.max(np.abs(c + np.swapaxes(c, 0, 1)))) if L.dim else 0.0
    cmax = float(np.max(np.abs(c))) if L.dim else 0.0
    if not math.isfinite(cmax * cmax):
        raise InputError("structure constants are too large: their products overflow")
    # [[e_i, e_j], e_k] summed over the cyclic permutations
    jac = np.einsum("ijl,lkm->ijkm", c, c)
    cyc = jac + np.transpose(jac, (1, 2, 0, 3)) + np.transpose(jac, (2, 0, 1, 3))
    jacobi = float(np.max(np.abs(cyc))) if L.dim else 0.0
    gsym = float(np.max(np.abs(L.gram - L.gram.T))) if L.dim else 0.0
    gmax = float(np.max(np.abs(L.gram))) if L.dim else 0.0
    gmin = float(np.min(np.linalg.eigvalsh((L.gram + L.gram.T) / 2))) if L.dim else 1.0
    return Diagnostics(anti, jacobi, cmax, gsym, gmax, gmin)


def require_spd(g: np.ndarray, what: str) -> None:
    """Raise InputError unless ``g`` passes the Gram checks of :func:`validate`."""
    if g.size and (np.max(np.abs(g - g.T)) > 1e-12 * np.abs(g).max() or np.linalg.eigvalsh((g + g.T) / 2)[0] <= 0):
        raise InputError(f"{what} must be symmetric positive definite")


def _gram_orthonormalize(vectors: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows of ``vectors`` w.r.t. the metric ``gram``."""
    if vectors.shape[0] == 0:
        return vectors
    M = vectors @ gram @ vectors.T
    w, U = np.linalg.eigh(M)
    # relative to the largest eigenvalue, so a uniformly small Gram keeps every vector
    keep = w > 1e-12 * w.max()
    return (U[:, keep] / np.sqrt(w[keep])).T @ vectors


def _gram_complement(vectors: np.ndarray, gram: np.ndarray, dim: int) -> np.ndarray:
    if vectors.shape[0] == 0:
        return np.eye(dim)
    return lc.nullspace(vectors @ gram)


def center(L: MetricLieAlgebra) -> np.ndarray:
    """Gram-orthonormal basis (rows) of {X : [X, Y] = 0 for all Y}."""
    d = L.dim
    A = L.structure.reshape(d, d * d).T  # rows (j, k), columns i
    return _gram_orthonormalize(lc.nullspace(A), L.gram)


def derived(L: MetricLieAlgebra) -> np.ndarray:
    """Gram-orthonormal basis (rows) of span{[e_i, e_j]}."""
    d = L.dim
    vecs = L.structure.reshape(d * d, d)
    if not np.any(vecs):
        return np.zeros((0, d))
    _, s, vt = np.linalg.svd(vecs, full_matrices=False)
    rank = int(np.sum(s > lc.TAU_RANK * s[0]))
    return _gram_orthonormalize(vt[:rank], L.gram)


def nilpotency_class(L: MetricLieAlgebra) -> int:
    """Length of the lower central series n^1 = [n, n], n^(i+1) = [n, n^i],
    computed on first use and kept on the algebra.  A non-nilpotent algebra
    keeps nothing and raises InputError on every call."""
    if L.nil_class is None:
        object.__setattr__(L, "nil_class", _lower_central_series_length(L))
    return L.nil_class


def _lower_central_series_length(L: MetricLieAlgebra) -> int:
    d = L.dim
    current = np.eye(d)
    scale = None
    for k in range(1, d + 2):
        # span of [e_i, w] for all basis e_i and w in the current term
        images = np.einsum("ijk,wj->iwk", L.structure, current).reshape(-1, d)
        if not np.any(images):
            return k
        _, s, vt = np.linalg.svd(images, full_matrices=False)
        # ranks are cut relative to [n, n]: round-off in a later term's
        # orthonormal basis leaves brackets of size eps * |c| that a cut
        # relative to the term itself would count
        scale = s[0] if scale is None else scale
        rank = int(np.sum(s > lc.TAU_RANK * scale))
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
    # with an identity exact Gram and a center spanned by basis vectors,
    # z_basis and v_basis are these rows of the identity; None otherwise
    z_index: Optional[tuple] = None
    v_index: Optional[tuple] = None
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
        return self.z_index is not None


def split_two_step(L: MetricLieAlgebra) -> TwoStepSplit:
    """n = v + z, z the center: the exact index split if there is one, else the float split."""
    cls = nilpotency_class(L)
    if cls != 2:
        raise NotTwoStepError(f"nilpotency class is {cls}, need 2")
    zi = vi = None
    if L.is_exact and L.gram_exact[1] == 1 and np.array_equal(L.gram_exact[0], np.eye(L.dim, dtype=int)):
        # the center is the left nullspace of c as a d x d^2 matrix; it is
        # spanned by basis vectors iff its zero rows account for all of it
        rows = L.structure_exact[0].reshape(L.dim, -1)
        zero = [i for i, row in enumerate(rows) if not any(row)]
        # the zero columns, most of the d^2, add nothing to the rank
        if len(zero) == L.dim - lc.bareiss_rank(rows[:, np.any(rows != 0, axis=0)].tolist()):
            zi = tuple(zero)
            vi = tuple(i for i in range(L.dim) if i not in zi)
    if zi is None:
        z = center(L)
        v = _gram_orthonormalize(_gram_complement(z, L.gram, L.dim), L.gram)
    else:
        z, v = np.eye(L.dim)[list(zi)], np.eye(L.dim)[list(vi)]
    # derived subset of center always holds for 2-step; equality is the flag
    flag = derived(L).shape[0] == z.shape[0]
    return TwoStepSplit(L, z, v, flag, zi, vi)


def detect_flat_factor(L: MetricLieAlgebra) -> tuple[int, MetricLieAlgebra]:
    """Split off the Euclidean factor spanned by central directions orthogonal to [n, n].

    Returns the flat dimension and the reduced algebra on [n, n] + v.
    """
    cls = nilpotency_class(L)
    if cls > 2:
        raise PreconditionError(f"nilpotency class {cls} > 2 unsupported")
    z = center(L)
    der = derived(L)
    if z.shape[0] == 0:
        return 0, L
    # euclidean part: central vectors gram-orthogonal to the derived algebra
    flat = len(lc.nullspace(der @ L.gram @ z.T))
    if flat == 0:
        return 0, L
    v = _gram_orthonormalize(_gram_complement(z, L.gram, L.dim), L.gram)
    new_rows = np.vstack([der, v]) if der.size or v.size else np.zeros((0, L.dim))
    return flat, restrict_to_span(L, new_rows)


def restrict_to_span(L: MetricLieAlgebra, rows: np.ndarray) -> MetricLieAlgebra:
    """Metric subalgebra on the span of ``rows`` (must be bracket-closed)."""
    k = rows.shape[0]
    gram = rows @ L.gram @ rows.T
    structure = np.zeros((k, k, k))
    pinv = np.linalg.pinv(rows)
    cmax = np.abs(L.structure).max(initial=0.0)
    norms = np.linalg.norm(rows, axis=1)
    for a in range(k):
        for b in range(a + 1, k):
            w = L.bracket(rows[a], rows[b])
            coords = pinv.T @ w
            back = rows.T @ coords
            # relative to the bracket's inputs: round-off in w scales with them, not with |w|
            if np.linalg.norm(back - w) > 1e-8 * cmax * norms[a] * norms[b]:
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


def is_nonsingular(L: MetricLieAlgebra) -> NonsingularityResult:
    """Decide whether every nonzero J_Z is invertible.

    An odd n answers no at once, exactly: every skew J_Z of odd size is
    singular.  For m = 1 the answer is the Pfaffian of J_1; for m = 2 the
    real projective roots of the Pfaffian form
    (:func:`invariants.real_root`), decided exactly with Sturm's theorem
    over Q for rational data and by the root classifier of
    :func:`invariants.pfaffian_roots` for float data.  For m >= 3 it is
    sampled on the central basis vectors and then 1000 unit vectors drawn
    from ``default_rng(0)`` (the basis witnesses are re-checked with the
    exact rank when rational data is available).  For m = 1 and m >= 3
    a float J_Z counts as singular when its smallest singular value is at
    most TAU_RANK times its largest, so the answer does not depend on the
    scale of the brackets.
    """
    from . import jmaps

    split = split_two_step(L)
    if not split.derived_equals_center:
        raise PreconditionError("[n, n] = z is required for non-singularity analysis")
    m, n = split.m, split.n
    if n % 2:  # every skew J_Z of odd size is singular
        return NonsingularityResult("no", np.eye(m)[0], exact=True)
    fam = jmaps.split_family(split)
    if m == 1:
        if fam.is_exact:  # Pf(J / den) vanishes with Pf(J)
            pf = lc.pfaffian_exact(fam.generators_exact[0][0].tolist())
            if pf != 0:
                return NonsingularityResult("yes", exact=True)
            return NonsingularityResult("no", np.array([1.0]), exact=True)
        s = np.linalg.svd(fam.generators[0], compute_uv=False)
        if s[-1] > lc.TAU_RANK * s[0]:
            return NonsingularityResult("yes")
        return NonsingularityResult("no", np.array([1.0]))
    if m == 2:
        poly = jmaps.pfaffian_form(split)
        Z = invariants.real_root(poly)
        if Z is None:
            return NonsingularityResult("yes", exact=poly.is_exact)
        return NonsingularityResult("no", Z, exact=poly.is_exact)
    # m >= 3: sampled decision, the basis vectors first, on one stacked SVD
    draws = np.random.default_rng(0).standard_normal((1000, m))
    candidates = np.vstack([np.eye(m), draws / np.linalg.norm(draws, axis=1, keepdims=True)])
    pencils = (candidates @ fam.generators.reshape(m, n * n)).reshape(-1, n, n)
    s = np.linalg.svd(pencils, compute_uv=False)
    singular = np.flatnonzero(s[:, -1] <= lc.TAU_RANK * s[:, 0])
    if not singular.size:
        return NonsingularityResult("sampled_yes")
    idx = singular[0]
    exact = bool(fam.is_exact and idx < m and lc.bareiss_rank(fam.generators_exact[0][idx].tolist()) < n)
    return NonsingularityResult("no", candidates[idx], exact=exact)


# ---------------------------------------------------------------------------
# JSON algebra format
# ---------------------------------------------------------------------------


def _parse_value(v):
    if isinstance(v, bool):
        raise InputError("boolean is not a number")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"cannot parse value {v!r}: {e}") from None
    if isinstance(v, float):
        return v
    raise InputError(f"unsupported numeric value {v!r}")


def _parse_index(v, what: str) -> int:
    """An integer index: a JSON integer or a string of decimal digits."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    if isinstance(v, str) and re.fullmatch(r"[+-]?[0-9]+", v.strip()):
        return int(v)
    raise InputError(f"{what} must be an integer, got {v!r}")


def algebra_from_dict(data: dict) -> MetricLieAlgebra:
    """Parse the JSON algebra format (brackets given for i < j only, each pair at most once)."""
    if not isinstance(data, dict):
        raise InputError("algebra document must be a JSON object")
    try:
        d = _parse_index(data["dim"], "dim")
        brackets = data["brackets"]
        gram_in = data["gram"]
    except (KeyError, TypeError) as e:
        raise InputError(f"bad algebra document: {e}") from None
    if d < 1 or d > MAX_DIM:
        raise InputError(f"dim {d} outside [1, {MAX_DIM}]")
    if not isinstance(brackets, list):
        raise InputError("brackets must be an array")
    structure = np.zeros((d, d, d), dtype=object)
    seen = set()
    for entry in brackets:
        try:
            i, j = _parse_index(entry["i"], "bracket index i"), _parse_index(entry["j"], "bracket index j")
            coeffs = entry["coeffs"]
        except (KeyError, TypeError) as e:
            raise InputError(f"bad bracket entry {entry!r}: {e}") from None
        if not (0 <= i < d and 0 <= j < d and i < j):
            raise InputError(f"bracket indices ({i}, {j}) must satisfy 0 <= i < j < dim")
        if (i, j) in seen:
            raise InputError(f"bracket ({i}, {j}) is given twice")
        seen.add((i, j))
        if not isinstance(coeffs, dict):
            raise InputError(f"coeffs of bracket ({i}, {j}) must be an object")
        for kstr, v in coeffs.items():
            k = _parse_index(kstr, "coefficient index")
            if not 0 <= k < d:
                raise InputError(f"coefficient index {k} out of range")
            val = _parse_value(v)
            structure[i, j, k] = val
            structure[j, i, k] = -val
    rows_ok = isinstance(gram_in, list) and all(isinstance(r, list) and len(r) == d for r in gram_in)
    if not rows_ok or len(gram_in) != d:
        raise InputError("gram must be a dim x dim array")
    gram = np.zeros((d, d), dtype=object)
    for a, r in enumerate(gram_in):
        gram[a] = [_parse_value(v) for v in r]
    return make_algebra(structure, gram)


def _format_value(v):
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return int(v)
        return str(v)
    return float(v)


def algebra_to_dict(L: MetricLieAlgebra) -> dict:
    if L.is_exact:
        c, den = L.structure_exact
        g, gden = L.gram_exact
        gram = [[_format_value(Fraction(x, gden)) for x in row] for row in g]
    else:
        c, den = L.structure, None
        gram = [[float(x) for x in row] for row in L.gram]
    brackets = []
    for i, j, k in zip(*np.nonzero(c)):  # in index order, so grouped by (i, j)
        if i < j:
            if not brackets or (brackets[-1]["i"], brackets[-1]["j"]) != (i, j):
                brackets.append({"i": int(i), "j": int(j), "coeffs": {}})
            v = c[i, j, k]
            brackets[-1]["coeffs"][str(k)] = _format_value(Fraction(v, den) if den else v)
    return {"dim": L.dim, "brackets": brackets, "gram": gram}
