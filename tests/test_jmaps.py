from fractions import Fraction as Q

import numpy as np
import pytest
from conftest import change_basis

from nilgo import (
    build_jmap,
    family_thm2,
    h_type_clifford,
    heisenberg,
    is_h_type,
    isotypic_test,
    n10,
    n10_second,
    pfaffian_form,
    quaternionic_heisenberg,
    radon_hurwitz,
    split_two_step,
)
from nilgo.errors import InputError, PreconditionError
from nilgo.invariants import distinguish
from nilgo.jmaps import build_jmap_family, split_family


def _pair_loop_generators(split):
    """The loop over pairs v_a, v_b that build_jmap_family replaces."""
    L, v, n = split.parent, split.v_basis, split.n
    gens = []
    for z in split.z_basis:
        J = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                J[b, a] = L.bracket(v[a], v[b]) @ L.gram @ z
                J[a, b] = -J[b, a]
        gens.append(J)
    return gens


# exact splits, a rational center metric (as `family n10 --metric 2,1/3,1`) and an off-basis center
LOOP_ALGEBRAS = {
    "n10": lambda: n10(2),
    "n10_rational_metric": lambda: n10(2, q=[[Q(2), Q(1, 3)], [Q(1, 3), Q(1)]]),
    "h_type_clifford_4": lambda: h_type_clifford(4),
    "thm2_dim22": lambda: family_thm2([2, 3, 5, 7]),
    "h_type_clifford_4_rebased": lambda: change_basis(
        h_type_clifford(4), np.eye(12, dtype=int) + 2 * np.eye(12, k=4, dtype=int)
    ),
}


class TestJmapDefinition:
    def test_heisenberg_block(self):
        split = split_two_step(heisenberg(1))
        J = build_jmap(split, [1.0])
        assert np.allclose(J @ J, -np.eye(2))
        assert np.allclose(J, -J.T)

    def test_defining_identity(self, rng):
        # (J_Z X, Y) = ([X, Y], Z) on a non-trivial family
        L = n10(2)
        split = split_two_step(L)
        fam = build_jmap_family(split)
        for _ in range(10):
            Zc = rng.standard_normal(split.m)
            Xc = rng.standard_normal(split.n)
            Yc = rng.standard_normal(split.n)
            J = build_jmap(split, Zc)
            X = split.v_basis.T @ Xc
            Y = split.v_basis.T @ Yc
            Z = split.z_basis.T @ Zc
            lhs = (J @ Xc) @ Yc
            rhs = L.bracket(X, Y) @ L.gram @ Z
            assert np.isclose(lhs, rhs)
        assert fam.is_exact

    @pytest.mark.parametrize("name", sorted(LOOP_ALGEBRAS))
    def test_generators_equal_pair_loop(self, name):
        # the same products summed in the same order: equal to the last bit
        split = split_two_step(LOOP_ALGEBRAS[name]())
        for G, ref in zip(build_jmap_family(split).generators, _pair_loop_generators(split), strict=True):
            assert np.array_equal(G, ref)

    def test_build_jmap_matches_accumulating_loop(self, rng):
        split = split_two_step(family_thm2([2, 3]))
        for _ in range(20):
            Z = rng.standard_normal(split.m)
            ref = np.zeros((split.n, split.n))
            for z, J in zip(Z, split_family(split).generators):
                ref += z * J
            assert np.array_equal(build_jmap(split, Z), ref)

    def test_generators_skew(self):
        split = split_two_step(family_thm2([2, 3]))
        for G in build_jmap_family(split).generators:
            assert np.allclose(G, -G.T)

    def test_wrong_z_dimension(self):
        split = split_two_step(heisenberg(1))
        with pytest.raises(InputError):
            build_jmap(split, [1.0, 0.0])

    def test_family_is_built_once_per_split(self):
        L = n10(2)
        split = split_two_step(L)
        fam = split_family(split)
        assert split.jmap_family is fam
        assert split_family(split) is fam
        other = split_two_step(L)
        assert split_family(other) is not fam
        assert split_family(other).split is other


class TestHType:
    def test_clifford_families_are_h_type(self):
        for m in (1, 2, 3, 5, 7):
            assert is_h_type(split_two_step(h_type_clifford(m, 1)))

    def test_quaternionic_heisenberg(self):
        L = quaternionic_heisenberg(2)
        split = split_two_step(L)
        assert (split.m, split.n) == (3, 8)
        assert is_h_type(split)

    def test_n10_not_h_type_for_t_above_1(self):
        assert not is_h_type(split_two_step(n10(2)))

    def test_isotypic(self):
        assert isotypic_test(split_two_step(h_type_clifford(7, 1))) in ("plus_id", "minus_id")

    def test_isotypic_needs_m7(self):
        with pytest.raises(PreconditionError):
            isotypic_test(split_two_step(h_type_clifford(3, 1)))


class TestPfaffianForm:
    def test_n10_form(self):
        # (x^2 + y^2)(t^2 x^2 + y^2) with coeffs[a] on x^a y^(d-a)
        for t in (1, 2, 3):
            p = pfaffian_form(split_two_step(n10(t)))
            assert p.is_exact
            assert p.coeffs == (Q(1), Q(0), Q(1 + t * t), Q(0), Q(t * t))

    def test_n10_second_form(self):
        p = pfaffian_form(split_two_step(n10_second()))
        assert p.coeffs == (Q(1), Q(0), Q(2), Q(0), Q(1))

    def test_evaluates_to_pfaffian(self, rng):
        from nilgo.linear_core import pfaffian_numeric

        split = split_two_step(n10(2))
        p = pfaffian_form(split)
        for _ in range(5):
            x, y = rng.standard_normal(2)
            assert np.isclose(float(p(x, y)), pfaffian_numeric(build_jmap(split, [x, y])), atol=1e-8)

    def test_requires_m2(self):
        with pytest.raises(PreconditionError):
            pfaffian_form(split_two_step(heisenberg(1)))

    def test_float_path(self):
        p = pfaffian_form(split_two_step(n10(2.0)))
        assert not p.is_exact
        assert np.allclose(np.array(p.coeffs, dtype=float), [1.0, 0.0, 5.0, 0.0, 4.0])

    @pytest.mark.parametrize("ts", [(Q(3, 2), 2, 3), (2, 3, 5, 7)])
    def test_float_path_matches_exact_at_high_degree(self, ts):
        # degree 8 and 10: the float points must keep the interpolation well conditioned
        exact = pfaffian_form(split_two_step(family_thm2(list(ts))))
        approx = pfaffian_form(split_two_step(family_thm2([float(t) for t in ts])))
        assert exact.is_exact and not approx.is_exact
        ref = np.array(exact.coeffs, dtype=float)
        assert np.max(np.abs(np.array(approx.coeffs, dtype=float) - ref)) <= 1e-9 * np.max(np.abs(ref))
        assert distinguish(exact, approx) == "equivalent_invariants"


class TestRadonHurwitz:
    def test_table(self):
        assert {n: radon_hurwitz(n) for n in (2, 4, 8, 16)} == {2: 2, 4: 4, 8: 8, 16: 9}

    def test_odd(self):
        assert radon_hurwitz(1) == 1
        assert radon_hurwitz(3) == 1

    def test_more_values(self):
        assert radon_hurwitz(32) == 10
        assert radon_hurwitz(64) == 12
        assert radon_hurwitz(128) == 16

    def test_rejects_nonpositive(self):
        with pytest.raises(InputError):
            radon_hurwitz(0)
