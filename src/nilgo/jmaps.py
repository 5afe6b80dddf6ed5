"""J-operators of a two-step split, H-type tests, Pfaffian forms.

For a gram-orthonormal central basis Z_1, ..., Z_m the generators are the
skew operators on v defined by (J_{Z_i} X, Y) = ([X, Y], Z_i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linear_core as lc
from .algebra import TwoStepSplit
from .errors import InputError, PreconditionError

# entrywise tolerance of the Clifford relations in is_h_type and isotypic_test
H_TYPE_TOL = 1e-10


@dataclass(frozen=True)
class JMapFamily:
    split: TwoStepSplit
    generators: np.ndarray  # (m, n, n) skew float array
    # (J_int, den): the generators are J_int[i] / den, J_int an (m, n, n)
    # integer object array
    generators_exact: Optional[tuple] = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return len(self.generators)

    @property
    def is_exact(self) -> bool:
        return self.generators_exact is not None


def build_jmap_family(split: TwoStepSplit) -> JMapFamily:
    L = split.parent
    d, n, v = L.dim, split.n, split.v_basis
    # (J_k)_{ba} = ([v_a, v_b], z_k), kept below the diagonal and mirrored so
    # every generator is exactly skew.  Each bracket is one row times the Gram,
    # which rounds as L.bracket(v_a, v_b) @ L.gram does.
    brackets = np.einsum("ai,bj,ijk->abk", v, v, L.structure).reshape(n * n, 1, d)
    pairings = (brackets @ L.gram).reshape(n, n, d) @ split.z_basis.T
    lower = np.tril(pairings.transpose(2, 1, 0), -1)
    gens = lower - lower.transpose(0, 2, 1)
    gens_exact = None
    if split.is_exact:
        c, den = L.structure_exact
        # (J_k)_{ba} = ([v_a, v_b], z_k) = c[v_a, v_b, z_k] under the identity Gram
        gens_exact = (c[np.ix_(split.v_index, split.v_index, split.z_index)].transpose(2, 1, 0), den)
    return JMapFamily(split, gens, gens_exact)


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

    Exact rational interpolation whenever the split carries exact data;
    sign normalized so the leading nonzero coefficient is positive.
    """
    if split.m != 2:
        raise PreconditionError(f"pfaffian form needs a 2-dimensional center, got m={split.m}")
    if split.n % 2 != 0:
        raise PreconditionError("v must be even-dimensional")
    fam = split_family(split)
    deg = split.n // 2
    points = [(0, 1)] + [(1, j) for j in range(deg)]
    if fam.is_exact:
        (G1, G2), den = fam.generators_exact
        scale = den**deg  # Pf(S / den) = Pf(S) / den^(n/2)
        evals = [
            ((Fraction(x), Fraction(y)), Fraction(lc.pfaffian_exact((x * G1 + y * G2).tolist()), scale))
            for x, y in points
        ]
        poly = lc.interpolate_homogeneous2(evals, deg)
    else:
        G1, G2 = fam.generators
        evals = [((float(x), float(y)), lc.pfaffian_numeric(x * G1 + y * G2)) for x, y in points]
        poly = lc.interpolate_homogeneous2(evals, deg)
    return poly.normalized_sign()


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
