"""J-operators of a two-step split, H-type tests, Pfaffian forms and
non-singularity.

For a gram-orthonormal central basis Z_1, ..., Z_m the generators are the
skew operators on v defined by (J_{Z_i} X, Y) = ([X, Y], Z_i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import invariants, linear_core as lc
from .algebra import MetricLieAlgebra, TwoStepSplit, _over_common_denominator, split_two_step
from .errors import InputError, PreconditionError

# entrywise tolerance of the Clifford relations in is_h_type and isotypic_test
H_TYPE_TOL = 1e-10


@dataclass(frozen=True)
class JMapFamily:
    generators: np.ndarray  # (m, n, n) skew float array
    # (J_int, den): the generators are J_int[i] / den, J_int an (m, n, n)
    # integer object array
    generators_exact: Optional[tuple] = field(default=None, repr=False)


def build_jmap_family(split: TwoStepSplit) -> JMapFamily:
    L = split.parent
    d, n, v = L.dim, split.n, split.v_basis
    gens_exact = None
    if split.is_exact:
        # (J_k)_{ba} = ([v_a, v_b], z_k) = c[v_a, v_b, z_k] under the identity Gram
        block = np.ix_(split.v_index, split.v_index, split.z_index)
        pairings = L.structure[block]
        gens_exact = (L.structure_exact[0][block].transpose(2, 1, 0), L.structure_exact[1])
    else:
        # (J_k)_{ba} = ([v_a, v_b], z_k).  Each bracket is one row times the
        # Gram, which rounds as L.bracket(v_a, v_b) @ L.gram does.
        brackets = np.einsum("ai,bj,ijk->abk", v, v, L.structure).reshape(n * n, 1, d)
        pairings = (brackets @ L.gram).reshape(n, n, d) @ split.z_basis.T
    # kept below the diagonal and mirrored, so every generator is exactly skew
    lower = np.tril(pairings.transpose(2, 1, 0), -1)
    return JMapFamily(lower - lower.transpose(0, 2, 1), gens_exact)


def build_jmap(split: TwoStepSplit, Z) -> np.ndarray:
    """J_Z for Z given in coordinates of the orthonormal z-basis."""
    fam = split_family(split)
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (split.m,):
        raise InputError(f"Z must have {split.m} coordinates")
    return (Z[:, None, None] * fam.generators).sum(axis=0)


def split_family(split: TwoStepSplit) -> JMapFamily:
    """J-map family of a split, built on first use and kept on the split."""
    if split.jmap_family is None:
        object.__setattr__(split, "jmap_family", build_jmap_family(split))
    return split.jmap_family


def is_h_type(split: TwoStepSplit) -> bool:
    """Whether J_i^2 = -I and J_i J_j + J_j J_i = 0 (i != j) for all generators, entrywise within H_TYPE_TOL."""
    J = split_family(split).generators
    anti = J[:, None] @ J + J @ J[:, None]  # [i, j] = J_i J_j + J_j J_i, exactly 2 J_i^2 for i = j
    target = -2.0 * np.eye(len(J))[:, :, None, None] * np.eye(split.n)
    return bool(np.max(np.abs(anti - target), initial=0.0) <= 2 * H_TYPE_TOL)


def pfaffian_form(split: TwoStepSplit) -> lc.HomogeneousPolynomial2:
    """The Pfaffian of J_{x Z_1 + y Z_2} as a homogeneous polynomial.

    The integer Pfaffians of ``x G1 + y G2`` (the generators times their
    common denominator ``den``) are interpolated exactly at
    :func:`linear_core.interpolation_points`, and each coefficient is then
    divided once by ``den^(n/2)``.  Float generators are taken at their
    exact values over one common denominator, and each coefficient of their
    form is rounded once to float.  Sign normalized so the leading nonzero
    coefficient is positive.
    """
    if split.m != 2:
        raise PreconditionError(f"pfaffian form needs a 2-dimensional center, got m={split.m}")
    if split.n % 2 != 0:
        raise PreconditionError("v must be even-dimensional")
    fam = split_family(split)
    deg = split.n // 2
    if split.is_exact:
        (G1, G2), den = fam.generators_exact
    else:
        (G1, G2), den = _over_common_denominator(np.frompyfunc(lc._exact, 1, 1)(fam.generators))
    points = lc.interpolation_points(deg)
    evals = [((x, y), lc.pfaffian_exact((x * G1 + y * G2).tolist())) for x, y in points]
    scale = den**deg  # Pf(S / den) = Pf(S) / den^(n/2)
    coeffs = lc.interpolate_homogeneous2(evals, deg).coeffs
    form = lc.HomogeneousPolynomial2(deg, tuple(c / scale for c in coeffs)).normalized_sign()
    return form if split.is_exact else form.rounded()


def radon_hurwitz(n: int) -> int:
    """rho(n) for n = (2a+1) * 2^(4b+c) with 0 <= c <= 3; rho = 8b + 2^c."""
    if n < 1:
        raise InputError("n must be positive")
    v2 = 0
    while n % 2 == 0:
        n //= 2
        v2 += 1
    b, c = divmod(v2, 4)
    return 8 * b + 2**c


def isotypic_test(split: TwoStepSplit) -> str:
    """Classify J_{Z_1} J_{Z_2} ... J_{Z_7} as 'plus_id', 'minus_id' or 'neither', entrywise within H_TYPE_TOL."""
    if split.m != 7:
        raise PreconditionError(f"isotypic test needs m=7, got m={split.m}")
    if not is_h_type(split):
        raise PreconditionError("isotypic test needs an H-type split")
    fam = split_family(split)
    T = np.eye(split.n)
    for J in fam.generators:
        T = T @ J
    eye = np.eye(split.n)
    if np.max(np.abs(T - eye)) <= H_TYPE_TOL:
        return "plus_id"
    if np.max(np.abs(T + eye)) <= H_TYPE_TOL:
        return "minus_id"
    return "neither"


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
    split = split_two_step(L)
    if not split.derived_equals_center:
        raise PreconditionError("[n, n] = z is required for non-singularity analysis")
    m, n = split.m, split.n
    if n % 2:  # every skew J_Z of odd size is singular
        return NonsingularityResult("no", np.eye(m)[0], exact=True)
    fam = split_family(split)
    if m == 1:
        if split.is_exact:  # Pf(J / den) vanishes with Pf(J)
            pf = lc.pfaffian_exact(fam.generators_exact[0][0].tolist())
            if pf != 0:
                return NonsingularityResult("yes", exact=True)
            return NonsingularityResult("no", np.array([1.0]), exact=True)
        s = np.linalg.svd(fam.generators[0], compute_uv=False)
        if s[-1] > lc.TAU_RANK * s[0]:
            return NonsingularityResult("yes")
        return NonsingularityResult("no", np.array([1.0]))
    if m == 2:
        poly = pfaffian_form(split)
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
    exact = bool(split.is_exact and idx < m and lc.bareiss_rank(fam.generators_exact[0][idx].tolist()) < n)
    return NonsingularityResult("no", candidates[idx], exact=exact)
