from fractions import Fraction as Q

import numpy as np
import pytest

from nilgo import (
    algebra_from_dict,
    algebra_to_dict,
    center,
    derived,
    detect_flat_factor,
    heisenberg,
    h_type_clifford,
    make_algebra,
    n10,
    nilpotency_class,
    split_two_step,
    validate,
)
from nilgo.algebra import is_nonsingular, restrict_to_span
from nilgo.errors import InputError, NotTwoStepError, PreconditionError
from nilgo.families import algebra_from_jmaps


class TestValidation:
    def test_heisenberg_passes(self):
        diag = validate(heisenberg(1))
        assert diag.passed
        assert diag.jacobi_residual == 0.0

    def test_three_step_passes(self, three_step):
        assert validate(three_step).passed

    def test_jacobi_violation_detected(self):
        # [e1,e2] = e3 with [e1,e3] = e1 fails Jacobi on (e1,e2,e3)
        c = [[[Q(0)] * 3 for _ in range(3)] for _ in range(3)]
        for (i, j, k) in [(0, 1, 2), (0, 2, 0)]:
            c[i][j][k] = Q(1)
            c[j][i][k] = Q(-1)
        L = make_algebra(c, np.eye(3).tolist())
        assert not validate(L).passed

    def test_overflowing_products_raise_input_error(self):
        # [e0, e1] = 1e308 e2: finite, but the Jacobi products overflow
        c = np.zeros((3, 3, 3))
        c[0, 1, 2], c[1, 0, 2] = 1e308, -1e308
        with pytest.raises(InputError, match="too large"):
            validate(make_algebra(c, np.eye(3)))

    def test_indefinite_gram_detected(self):
        c = [[[Q(0)]] ]
        L = make_algebra([[[Q(0)]]], [[Q(-1)]])
        assert not validate(L).passed


class TestExactPair:
    def test_integers_over_least_common_denominator(self):
        c = np.zeros((3, 3, 3), dtype=object)
        c[0, 1, 2], c[1, 0, 2] = Q(1, 2), Q(-1, 2)
        c[0, 2, 1], c[2, 0, 1] = Q(2, 3), Q(-2, 3)
        L = make_algebra(c, [[Q(1, 4), 0, 0], [0, 1, 0], [0, 0, 1]])
        c_int, den = L.structure_exact
        assert den == 6 and all(type(x) is int for x in c_int.flat)
        assert (c_int[0, 1, 2], c_int[1, 0, 2], c_int[0, 2, 1]) == (3, -3, 4)
        g_int, gden = L.gram_exact
        assert gden == 4 and g_int.tolist() == [[1, 0, 0], [0, 4, 0], [0, 0, 4]]
        assert np.array_equal(L.structure, (c_int / den).astype(float))
        assert np.array_equal(L.gram, np.diag([0.25, 1.0, 1.0]))

    def test_float_views_are_correctly_rounded(self):
        L = n10(Q(10, 7))
        c_int, den = L.structure_exact
        assert den == 7
        assert all(L.structure.flat[i] == float(Q(x, den)) for i, x in enumerate(c_int.flat))

    def test_any_float_entry_drops_the_exact_pair(self):
        L = make_algebra(np.zeros((2, 2, 2), dtype=int), [[1, 0], [0, 1.0]])
        assert not L.is_exact and L.structure_exact is None and L.gram_exact is None

    @pytest.mark.parametrize("top", [10**400, Q(10**400, 3)], ids=["integer", "fraction"])
    def test_coefficient_past_float_range_raises_input_error(self, top):
        c = np.zeros((3, 3, 3), dtype=object)
        c[0, 1, 2], c[1, 0, 2] = top, -top
        with pytest.raises(InputError, match="too large for a float"):
            make_algebra(c, np.eye(3, dtype=int))

    def test_huge_integer_in_float_algebra_raises_input_error(self):
        c = np.zeros((3, 3, 3), dtype=object)
        c[0, 1, 2], c[1, 0, 2] = 10**400, 0.5
        with pytest.raises(InputError, match="too large for a float"):
            make_algebra(c, np.eye(3))


class TestStructure:
    def test_center_of_heisenberg(self):
        z = center(heisenberg(2))
        assert z.shape == (1, 5)
        assert np.allclose(np.abs(z[0]), [0, 0, 0, 0, 1])

    def test_derived_equals_center_for_heisenberg(self):
        L = heisenberg(1)
        assert np.allclose(np.abs(derived(L)), np.abs(center(L)))

    def test_nilpotency_classes(self, abelian, three_step):
        assert nilpotency_class(abelian) == 1
        assert nilpotency_class(heisenberg(1)) == 2
        assert nilpotency_class(three_step) == 3

    def test_bracket(self):
        L = heisenberg(1)
        w = L.bracket([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        assert np.allclose(w, [0.0, 0.0, 1.0])

    def test_bracket_exact(self):
        c, den = heisenberg(1).structure_exact
        w = np.einsum("i,j,ijk->k", np.array([Q(1), Q(0), Q(0)]), np.array([Q(0), Q(1), Q(0)]), c) / den
        assert w.tolist() == [Q(0), Q(0), Q(1)]


class TestSplit:
    def test_split_two_step_exact(self):
        split = split_two_step(n10(2))
        assert (split.m, split.n) == (2, 8)
        assert split.is_exact
        assert split.derived_equals_center

    def test_exact_split_indices(self):
        split = split_two_step(n10(2))
        assert split.z_index == (0, 1)
        assert split.v_index == tuple(range(2, 10))
        assert np.array_equal(split.z_basis, np.eye(10)[:2])
        assert np.array_equal(split.v_basis, np.eye(10)[2:])

    def test_no_indices_for_non_identity_gram(self):
        L = n10(2, q=[[2, 1], [1, 3]])
        assert L.is_exact
        split = split_two_step(L)
        assert split.z_index is None and split.v_index is None
        assert not split.is_exact

    def test_no_indices_when_center_is_off_the_basis(self, off_basis_heisenberg):
        L = off_basis_heisenberg
        assert L.is_exact and nilpotency_class(L) == 2
        split = split_two_step(L)
        assert (split.m, split.n) == (1, L.dim - 1) and split.derived_equals_center
        assert split.z_index is None and split.v_index is None
        assert not split.is_exact

    def test_split_rejects_three_step(self, three_step):
        with pytest.raises(NotTwoStepError):
            split_two_step(three_step)

    def test_split_rejects_abelian(self, abelian):
        with pytest.raises(NotTwoStepError):
            split_two_step(abelian)

    def test_flat_factor_not_derived_center(self, heisenberg_plus_flat):
        split = split_two_step(heisenberg_plus_flat)
        assert not split.derived_equals_center

    def test_z_basis_gram_orthonormal(self):
        L = n10(2, q=[[2, 1], [1, 3]])
        split = split_two_step(L)
        zg = split.z_basis @ L.gram @ split.z_basis.T
        assert np.allclose(zg, np.eye(split.m))
        vg = split.v_basis @ L.gram @ split.v_basis.T
        assert np.allclose(vg, np.eye(split.n))
        assert np.allclose(split.z_basis @ L.gram @ split.v_basis.T, 0.0)


class TestFlatFactor:
    def test_heisenberg_plus_flat(self, heisenberg_plus_flat):
        flat_dim, reduced = detect_flat_factor(heisenberg_plus_flat)
        assert flat_dim == 2
        assert reduced.dim == 3
        assert nilpotency_class(reduced) == 2
        assert split_two_step(reduced).derived_equals_center

    def test_no_flat_factor(self):
        flat_dim, reduced = detect_flat_factor(heisenberg(1))
        assert flat_dim == 0
        assert reduced.dim == 3

    def test_restrict_to_span_keeps_brackets(self):
        L = heisenberg(1)
        R = restrict_to_span(L, np.eye(3))
        assert np.allclose(R.structure, L.structure)


class TestNonsingularity:
    def test_n10_yes_exact(self):
        for t in (1, 2, 5):
            r = is_nonsingular(n10(t))
            assert r.status == "yes"

    def test_heisenberg_yes(self):
        assert is_nonsingular(heisenberg(1)).status == "yes"

    def test_singular_with_witness(self):
        # two commuting heisenberg blocks sharing no center direction:
        # [e1,e2] = e5, [e3,e4] = e6 with J_{e5 - e6} ... both J nonzero,
        # but J_{Z} is singular for Z = e5 (kernel contains e3, e4)
        c = [[[Q(0)] * 6 for _ in range(6)] for _ in range(6)]
        for (i, j, k) in [(0, 1, 4), (2, 3, 5)]:
            c[i][j][k] = Q(1)
            c[j][i][k] = Q(-1)
        L = make_algebra(c, np.eye(6).tolist())
        r = is_nonsingular(L)
        assert r.status == "no"
        assert r.witness is not None

    def test_singular_basis_generator_is_exact_for_large_center(self):
        # m = 3 with J_{Z_1} of rank 2 on R^4: the swept witness Z_1 is confirmed by exact rank
        J1 = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        J2 = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]
        J3 = [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
        r = is_nonsingular(algebra_from_jmaps([J1, J2, J3]))
        assert r.status == "no" and r.exact
        assert np.array_equal(r.witness, [1.0, 0.0, 0.0])

    def test_sampled_for_large_center(self):
        r = is_nonsingular(h_type_clifford(4, 1))
        assert r.status == "sampled_yes"


class TestJson:
    def test_round_trip_exact(self):
        L = n10(Q(3, 2))
        doc = algebra_to_dict(L)
        back = algebra_from_dict(doc)
        assert back.is_exact
        for b, a in ((back.structure_exact, L.structure_exact), (back.gram_exact, L.gram_exact)):
            assert np.array_equal(b[0], a[0]) and b[1] == a[1]

    def test_fraction_strings(self):
        doc = {
            "dim": 3,
            "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1/2"}}],
            "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        }
        L = algebra_from_dict(doc)
        assert L.is_exact
        c, den = L.structure_exact
        assert Q(c[0, 1, 2], den) == Q(1, 2)
        assert Q(c[1, 0, 2], den) == Q(-1, 2)

    def test_float_breaks_exactness(self):
        doc = {
            "dim": 3,
            "brackets": [{"i": 0, "j": 1, "coeffs": {"2": 0.5}}],
            "gram": np.eye(3).tolist(),
        }
        assert not algebra_from_dict(doc).is_exact

    def test_missing_field(self):
        with pytest.raises(InputError):
            algebra_from_dict({"dim": 2})

    def test_bad_indices(self):
        doc = {"dim": 2, "brackets": [{"i": 1, "j": 0, "coeffs": {"0": 1}}], "gram": [[1, 0], [0, 1]]}
        with pytest.raises(InputError):
            algebra_from_dict(doc)

    def test_bad_gram_shape(self):
        with pytest.raises(InputError):
            algebra_from_dict({"dim": 2, "brackets": [], "gram": [[1, 0]]})

    def test_dim_cap(self):
        with pytest.raises(InputError):
            algebra_from_dict({"dim": 100, "brackets": [], "gram": []})
