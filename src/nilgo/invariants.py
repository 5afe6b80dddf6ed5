"""Isomorphism invariants of the determinant form of a two-dimensional
center: projective root sets and hyperbolic distance multisets.

Basis changes on the center act on the form's projective roots by real
Moebius transformations, which are isometries of the upper half-plane.
The multiset of pairwise hyperbolic distances between non-real root
pairs is therefore invariant and separates non-isomorphic families.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

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

    def real_roots(self) -> list:
        return [r for r in self.roots if r == INFINITY or abs(complex(r).imag) < ROOT_TOL]

    @property
    def real_root_count(self) -> int:
        return len(self.real_roots())

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


def _sturm_root(coeffs) -> Optional[Fraction]:
    """A real root of the rational polynomial with coefficients ``coeffs``
    (highest first, the first nonzero), to within 2^-52 of its Cauchy
    bound B, or None when it has none.  By Sturm's theorem V(a) - V(b),
    V(x) the sign changes along the Sturm chain at x, counts the distinct
    roots in (a, b]; bisecting (-B, B] keeps a half that holds one."""
    p = [Fraction(c) for c in coeffs]
    chain = [p, [c * (len(p) - 1 - i) for i, c in enumerate(p[:-1])]]
    while len(chain[-1]) > 1:  # the chain goes on with -(r mod q)
        r, q = chain[-2], chain[-1]
        while len(r) >= len(q):
            r = [a - r[0] / q[0] * b for a, b in zip(r[1:], q[1:] + [0] * (len(r) - len(q)))]
        if not any(r):
            break
        chain.append([-c for c in itertools.dropwhile(lambda c: c == 0, r)])

    def at(x) -> list:
        return [functools.reduce(lambda acc, c: acc * x + c, q, 0) for q in chain]

    def changes(values) -> int:
        signs = [v > 0 for v in values if v]
        return sum(u != v for u, v in zip(signs, signs[1:]))

    bound = 1 + max(abs(c / p[0]) for c in p)
    a, b = -bound, bound
    va = changes(at(a))
    if va == changes(at(b)):
        return None
    while b - a > bound / 2**52:
        mid = (a + b) / 2
        values = at(mid)
        if values[0] == 0:
            return mid
        vm = changes(values)
        if va > vm:  # a root in (a, mid]
            b = mid
        else:
            a, va = mid, vm
    return (a + b) / 2


def real_root(p: HomogeneousPolynomial2) -> Optional[np.ndarray]:
    """A unit (x, y) with p(x, y) = 0, or None when p has no real
    projective root.

    (0, 1) when p(0, 1) = 0, the zero form included; otherwise a root
    (1, w) of p(1, w), found with Sturm's theorem over Q when p is exact
    and by the root classifier of :func:`pfaffian_roots` when it is float.
    """
    if p.coeffs[0] == 0:
        return np.array([0.0, 1.0])
    if p.is_exact:
        w = _sturm_root(p.coeffs)
    else:
        real = pfaffian_roots(p).real_roots()
        w = real[0] if real else None
    if w is None:
        return None
    Z = np.array([0.0, 1.0]) if w == INFINITY else np.array([1.0, complex(w).real])
    return Z / np.linalg.norm(Z)


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
