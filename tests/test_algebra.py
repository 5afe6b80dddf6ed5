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

    def test_indefinite_gram_detected(self):
        c = [[[Q(0)]] ]
        L = make_algebra([[[Q(0)]]], [[Q(-1)]])
        assert not validate(L).passed


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
        L = heisenberg(1)
        w = L.bracket_exact([Q(1), Q(0), Q(0)], [Q(0), Q(1), Q(0)])
        assert w == [Q(0), Q(0), Q(1)]


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

    def test_sampled_for_large_center(self):
        r = is_nonsingular(h_type_clifford(4, 1))
        assert r.status == "sampled_yes"


class TestJson:
    def test_round_trip_exact(self):
        L = n10(Q(3, 2))
        doc = algebra_to_dict(L)
        back = algebra_from_dict(doc)
        assert back.is_exact
        assert back.structure_exact == L.structure_exact
        assert back.gram_exact == L.gram_exact

    def test_fraction_strings(self):
        doc = {
            "dim": 3,
            "brackets": [{"i": 0, "j": 1, "coeffs": {"2": "1/2"}}],
            "gram": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        }
        L = algebra_from_dict(doc)
        assert L.is_exact
        assert L.structure_exact[0][1][2] == Q(1, 2)
        assert L.structure_exact[1][0][2] == Q(-1, 2)

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
