"""Isomorphism invariants of the determinant form of a two-dimensional
center: projective root sets and hyperbolic distance multisets.

Basis changes on the center act on the form's projective roots by real
Moebius transformations, which are isometries of the upper half-plane.
The multiset of pairwise hyperbolic distances between non-real root
pairs is therefore invariant and separates non-isomorphic families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .linear_core import HomogeneousPolynomial2

INFINITY = "inf"
# relative tolerance under which pfaffian_roots drops a leading coefficient or
# an imaginary part; roots within 1e3 times it are clustered
ROOT_TOL = 1e-10
# absolute tolerance of distinguish on the hyperbolic distances
DISTANCE_TOL = 1e-8


@dataclass(frozen=True)
class ProjectiveRootSet:
    """Roots of a binary form on the projective line, with multiplicity.

    Finite roots are complex numbers w with f(1, w) = 0; the point at
    infinity appears once per vanishing leading coefficient.
    """

    roots: tuple  # complex numbers and the marker "inf"

    @property
    def real_root_count(self) -> int:
        return sum(1 for r in self.roots if r == INFINITY or abs(complex(r).imag) < ROOT_TOL)

    def upper_half_roots(self) -> list[complex]:
        out = []
        for r in self.roots:
            if r == INFINITY:
                continue
            r = complex(r)
            if r.imag > ROOT_TOL:
                out.append(r)
        return out


def pfaffian_roots(p: HomogeneousPolynomial2) -> ProjectiveRootSet:
    """Root multiset of p(x, y) as a form in y at x = 1, plus infinity.

    Conjugate pairs are symmetrized and nearby roots are clustered so
    multiple roots come out exact up to the tolerance.
    """
    coeffs = [float(c) for c in p.coeffs]  # coeffs[a] multiplies x^a y^(d-a)
    lead = list(coeffs)  # p(1, w) has w^d coefficient coeffs[0]
    scale = max(abs(c) for c in coeffs)
    if scale == 0.0:
        raise PreconditionError("zero form has no root set")
    n_inf = 0
    while lead and abs(lead[0]) <= ROOT_TOL * scale:
        lead.pop(0)
        n_inf += 1
    finite = np.roots(lead) if len(lead) > 1 else np.array([])
    cleaned = []
    for r in finite:
        if abs(r.imag) <= ROOT_TOL * max(1.0, abs(r)):
            r = complex(r.real, 0.0)
        cleaned.append(r)
    # cluster: snap each root to the mean of its tolerance-ball
    snapped = []
    used = [False] * len(cleaned)
    for i, r in enumerate(cleaned):
        if used[i]:
            continue
        group = [r]
        used[i] = True
        for j in range(i + 1, len(cleaned)):
            if not used[j] and abs(cleaned[j] - r) <= 1e3 * ROOT_TOL * max(1.0, abs(r)):
                group.append(cleaned[j])
                used[j] = True
        mean = sum(group) / len(group)
        if abs(mean.imag) <= ROOT_TOL * max(1.0, abs(mean)):
            mean = complex(mean.real, 0.0)
        snapped.extend([mean] * len(group))
    snapped.sort(key=lambda z: (z.real, z.imag))
    return ProjectiveRootSet(tuple([INFINITY] * n_inf + snapped))


def hyperbolic_distance(z: complex, w: complex) -> float:
    if z.imag <= 0 or w.imag <= 0:
        raise PreconditionError("hyperbolic distance needs upper half-plane points")
    return math.acosh(1.0 + (abs(z - w) ** 2) / (2.0 * z.imag * w.imag))


def moebius_invariant(rootset: ProjectiveRootSet) -> list[float]:
    """Sorted multiset of pairwise hyperbolic distances of the upper
    half-plane root representatives.  Errors on real or infinite roots,
    whose hyperbolic positions are not defined."""
    if rootset.real_root_count > 0:
        raise PreconditionError("real or infinite roots carry no hyperbolic position")
    ups = rootset.upper_half_roots()
    if len(ups) == 1:
        return [0.0]
    return sorted(
        hyperbolic_distance(ups[i], ups[j]) for i in range(len(ups)) for j in range(i + 1, len(ups))
    )


DISTINCT = "distinct"
EQUIVALENT = "equivalent_invariants"
INCONCLUSIVE = "inconclusive"


def distinguish(pa: HomogeneousPolynomial2, pb: HomogeneousPolynomial2) -> str:
    """Compare two determinant forms up to center basis change.

    Returns ``distinct`` when a Moebius-invariant separates them,
    ``equivalent_invariants`` when all computed invariants agree (which
    does not certify isomorphism), and ``inconclusive`` for degenerate
    cases the invariants cannot see.
    """
    if pa.degree != pb.degree:
        return DISTINCT
    ra, rb = pfaffian_roots(pa), pfaffian_roots(pb)
    if ra.real_root_count != rb.real_root_count:
        return DISTINCT
    ups_a, ups_b = ra.upper_half_roots(), rb.upper_half_roots()
    if len(ups_a) != len(ups_b):
        return DISTINCT
    if ra.real_root_count > 0 or len(ups_a) < 2:
        # real roots or a single orbit point: the distance multiset is
        # empty and cannot separate
        return INCONCLUSIVE
    da, db = moebius_invariant(ra), moebius_invariant(rb)
    if any(abs(x - y) > DISTANCE_TOL for x, y in zip(da, db)):
        return DISTINCT
    return EQUIVALENT
