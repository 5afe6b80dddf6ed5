import itertools
import math
from fractions import Fraction as Q

import numpy as np
import pytest

from nilgo import (
    HomogeneousPolynomial2,
    distinguish,
    family_thm2,
    moebius_invariant,
    n10,
    n10_second,
    pfaffian_form,
    pfaffian_roots,
    split_two_step,
)
from nilgo.errors import PreconditionError
from nilgo.invariants import INFINITY, hyperbolic_distance, real_root


def form(*coeffs):
    return HomogeneousPolynomial2(len(coeffs) - 1, tuple(Q(c) for c in coeffs))


class TestRoots:
    def test_simple_pair(self):
        # x^2 + y^2: p(1, w) = w^2 + 1
        rs = pfaffian_roots(form(1, 0, 1))
        assert sorted(r.imag for r in rs.roots) == [-1.0, 1.0]
        assert rs.real_root_count == 0

    def test_multiplicity_cluster(self):
        # (x^2 + y^2)^2 has i with multiplicity 2
        rs = pfaffian_roots(form(1, 0, 2, 0, 1))
        ups = rs.upper_half_roots()
        assert len(ups) == 2
        assert abs(ups[0] - ups[1]) < 1e-8

    def test_point_at_infinity(self):
        # x * y: p(1, w) = w, leading w-coefficient vanishes once
        rs = pfaffian_roots(form(0, 1, 0))
        assert rs.roots.count(INFINITY) == 1
        assert rs.real_root_count == 2

    def test_real_roots_counted(self):
        # x^2 - y^2
        rs = pfaffian_roots(form(1, 0, -1))
        assert rs.real_root_count == 2

    def test_zero_form_rejected(self):
        with pytest.raises(PreconditionError):
            pfaffian_roots(form(0, 0, 0))



class TestRealRoot:
    def test_fourth_powers_of_linear_forms(self):
        # (a x + b y)^4 vanishes at (b, -a); in floats the four-fold root splits
        # past the classifier's tolerance for 30 of these 64 pairs
        for a, b in itertools.product((1, 2, 3, 7, 13, 29, 38, 39), repeat=2):
            Z = real_root(form(*(math.comb(4, k) * a**k * b ** (4 - k) for k in range(5))))
            assert Z is not None and abs(a * Z[0] + b * Z[1]) <= 1e-12 * (a + b)

    def test_irrational_and_zero_roots(self):
        Z = real_root(form(1, 0, -2))  # y^2 - 2 x^2
        assert abs(Z[1] ** 2 - 2 * Z[0] ** 2) <= 1e-15
        assert np.array_equal(real_root(form(1, 3, 0)), [1.0, 0.0])  # y (y + 3 x) at y = 0

    def test_definite_forms_have_none(self):
        assert real_root(form(1, 0, 1)) is None
        for t in (1, 2, 5):
            assert real_root(pfaffian_form(split_two_step(n10(t)))) is None

    def test_p01_zero_and_zero_form(self):
        assert np.array_equal(real_root(form(0, 1, 0)), [0.0, 1.0])
        assert np.array_equal(real_root(form(0, 0, 0)), [0.0, 1.0])

    def test_float_forms_use_the_root_classifier(self):
        # (3 x + y)^2: np.roots splits the double root by 3.7e-8 i, which the classifier clusters
        Z = real_root(HomogeneousPolynomial2(2, (1.0, 6.0, 9.0)))
        assert np.allclose(Z, np.array([1.0, -3.0]) / np.sqrt(10.0), rtol=0, atol=1e-12)
        assert real_root(HomogeneousPolynomial2(2, (1.0, 0.0, 1.0))) is None


class TestHyperbolicDistance:
    def test_vertical_geodesic(self):
        for t in (2.0, 3.0, 7.5):
            assert math.isclose(hyperbolic_distance(1j, t * 1j), math.log(t))

    def test_symmetry(self):
        z, w = 0.3 + 1.2j, -0.5 + 0.4j
        assert math.isclose(hyperbolic_distance(z, w), hyperbolic_distance(w, z))

    def test_rejects_lower_half(self):
        with pytest.raises(PreconditionError):
            hyperbolic_distance(1j, -1j)


class TestMoebiusInvariant:
    def test_n10_distance_is_log_t(self):
        for t in (2, 3, 5):
            inv = moebius_invariant(pfaffian_roots(pfaffian_form(split_two_step(n10(t)))))
            assert len(inv) == 1
            assert math.isclose(inv[0], math.log(t), abs_tol=1e-9)

    def test_thm2_distances(self):
        p = pfaffian_form(split_two_step(family_thm2([2, 3])))
        inv = moebius_invariant(pfaffian_roots(p))
        expected = sorted([math.log(2), math.log(3), math.log(3) - math.log(2)])
        assert np.allclose(inv, expected, atol=1e-9)

    def test_invariance_under_basis_change(self):
        # precomposing with an invertible substitution is a Moebius isometry
        p = pfaffian_form(split_two_step(n10(3)))
        q = p.substitute_linear(Q(2), Q(1), Q(1), Q(1))  # det = 1
        a = moebius_invariant(pfaffian_roots(p))
        b = moebius_invariant(pfaffian_roots(q))
        assert np.allclose(a, b, atol=1e-8)

    def test_rejects_real_roots(self):
        with pytest.raises(PreconditionError):
            moebius_invariant(pfaffian_roots(form(1, 0, -1)))


class TestDistinguish:
    def test_n10_parameters_distinct(self):
        pa = pfaffian_form(split_two_step(n10(2)))
        pb = pfaffian_form(split_two_step(n10(3)))
        assert distinguish(pa, pb) == "distinct"

    def test_different_degrees_distinct(self):
        assert distinguish(form(1, 0, 1), form(1, 0, 2, 0, 1)) == "distinct"

    def test_equivalent_invariants(self):
        pa = pfaffian_form(split_two_step(n10(1)))
        pb = pfaffian_form(split_two_step(n10_second()))
        assert distinguish(pa, pb) == "equivalent_invariants"

    def test_self_equivalent(self):
        p = pfaffian_form(split_two_step(n10(2)))
        assert distinguish(p, p) == "equivalent_invariants"

    def test_real_root_degenerate_inconclusive(self):
        assert distinguish(form(1, 0, -1), form(1, 0, -4)) == "inconclusive"

    def test_single_orbit_point_inconclusive(self):
        assert distinguish(form(1, 0, 1), form(1, 0, 2)) == "inconclusive"

    def test_real_root_count_separates(self):
        assert distinguish(form(1, 0, 1), form(1, 0, -1)) == "distinct"
