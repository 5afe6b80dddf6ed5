import numpy as np
import pytest

import nilgo.linear_core as lc

from nilgo import MetricParameter, SkewOperatorSubspace, heisenberg, n10, skew_derivations, split_two_step
from nilgo.errors import InputError, PreconditionError
from nilgo.families import family_thm2, h_type_clifford, l_matrix, r_matrix, vt_subspace
from nilgo.go_checker import apply_center_metric
from nilgo.jmaps import split_family
from nilgo.operator_subspaces import (
    centralizer_in_so,
    compact_split,
    derivation_defect,
    derivation_system,
    generated_subalgebra,
    is_subalgebra,
    normalizer_in_so,
    skew_basis,
    span_matrices,
    split_derivation_system,
    subspace_contains,
    subspaces_equal,
)


def so3_l_copy():
    return SkewOperatorSubspace(4, [l_matrix(*e) for e in np.eye(3)])


class TestSubspaceBasics:
    def test_skew_basis_count(self):
        assert len(skew_basis(5)) == 10

    def test_rejects_non_skew(self):
        with pytest.raises(InputError):
            SkewOperatorSubspace(2, [np.eye(2)])

    def test_rejects_dependent(self):
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(InputError):
            SkewOperatorSubspace(2, [B, 2 * B])

    def test_span_collapses(self):
        B = np.array([[0.0, 1.0], [-1.0, 0.0]])
        V = span_matrices([B, 2 * B, -B], 2)
        assert V.dim == 1

    def test_element(self):
        V = so3_l_copy()
        M = V.element([1.0, 2.0, 3.0])
        assert np.allclose(M, l_matrix(1, 2, 3))

    def test_containment_and_equality(self):
        V = so3_l_copy()
        W = SkewOperatorSubspace(4, [l_matrix(1, 0, 0)])
        assert subspace_contains(V, W)
        assert not subspace_contains(W, V)
        assert subspaces_equal(V, span_matrices(V.basis, 4))

    def test_projector_idempotent(self):
        P = so3_l_copy().projector()
        assert np.allclose(P @ P, P)


class TestDerivations:
    def test_heisenberg_dim(self):
        assert skew_derivations(heisenberg(1)).dim == 1

    def test_derivation_identity(self, rng):
        L = n10(2)
        ders = skew_derivations(L)
        assert ders.dim > 0
        for D in ders.basis:
            # metric skewness and the derivation identity
            assert np.allclose(L.gram @ D, -(L.gram @ D).T, atol=1e-9)
            for _ in range(5):
                X = rng.standard_normal(L.dim)
                Y = rng.standard_normal(L.dim)
                lhs = D @ L.bracket(X, Y)
                rhs = L.bracket(D @ X, Y) + L.bracket(X, D @ Y)
                assert np.allclose(lhs, rhs, atol=1e-8)

    def test_abelian_derivations_are_all_of_so(self, abelian):
        assert skew_derivations(abelian).dim == 3


SPLIT_CASES = {
    "n10(2) center metric": lambda: apply_center_metric(n10(2), MetricParameter(np.array([[2.0, 0.5], [0.5, 1.0]]))),
    "h_type_clifford(4)": lambda: h_type_clifford(4),
    "h_type_clifford(7)": lambda: h_type_clifford(7),
    "thm2 dim 22": lambda: family_thm2([2, 3, 5, 7]),
}


def _upper_coefficients(L, mats):
    """Coefficients of G D over skew_basis(d), one row per D."""
    iu, ju = np.triu_indices(L.dim, 1)
    return np.array([(L.gram @ D)[iu, ju] for D in mats])


class TestSplitNativeDerivations:
    @pytest.mark.parametrize("name", sorted(SPLIT_CASES))
    def test_same_space_as_general_system_and_orthonormal(self, name):
        L = SPLIT_CASES[name]()
        ginv = np.linalg.inv(L.gram)
        params = [ginv @ S for S in skew_basis(L.dim)]
        general = np.array(lc.nullspace(derivation_system(L.structure, params)))  # coefficients over params
        split = skew_derivations(L).basis
        assert len(split) == len(general)
        C = _upper_coefficients(L, split)
        # orthonormal for the coefficients of G D over skew_basis(d)
        assert np.allclose(C @ C.T, np.eye(len(C)), atol=1e-12)
        # the same subspace: each spans the other
        assert np.linalg.norm(C - (C @ general.T) @ general) <= 1e-10
        assert np.linalg.norm(general - (general @ C.T) @ C) <= 1e-10

    def test_system_size_thm2_dim22(self):
        split = split_two_step(family_thm2([2, 3, 5, 7]))
        A = split_derivation_system(np.array(split_family(split).generators))
        assert A.shape == (380, 191)

    def test_flat_factor_uses_split(self, heisenberg_plus_flat):
        # class two with a Euclidean factor: so(2) on v, so(2) on the flat
        # plane, and nothing else
        ders = skew_derivations(heisenberg_plus_flat)
        assert ders.dim == 2
        for D in ders.basis:
            assert np.allclose(D, -D.T, atol=1e-12)
            assert np.allclose(derivation_defect(heisenberg_plus_flat.structure, D), 0.0, atol=1e-12)


class TestNormalizerCentralizer:
    def test_l_copy_centralizer_is_r_copy(self):
        V = so3_l_copy()
        C = centralizer_in_so(V)
        R = SkewOperatorSubspace(4, [r_matrix(*e) for e in np.eye(3)])
        assert subspaces_equal(C, R)

    def test_centralizer_inside_normalizer(self):
        V = vt_subspace(2)
        assert subspace_contains(normalizer_in_so(V), centralizer_in_so(V))

    def test_self_inside_normalizer_for_subalgebra(self):
        V = so3_l_copy()
        assert subspace_contains(normalizer_in_so(V), V)

    def test_centralizer_commutes(self):
        V = vt_subspace(2)
        C = centralizer_in_so(V)
        for X in C.basis:
            for B in V.basis:
                assert np.allclose(X @ B, B @ X, atol=1e-9)


class TestSubalgebra:
    def test_l_copy_is_subalgebra(self):
        assert is_subalgebra(so3_l_copy())

    def test_vt_is_not(self):
        assert not is_subalgebra(vt_subspace(2))

    def test_one_dimensional_always(self):
        V = SkewOperatorSubspace(4, [l_matrix(1, 2, 3)])
        assert is_subalgebra(V)

    def test_generated_closure(self):
        # two so(3) generators close to the full 3-dimensional algebra
        V = SkewOperatorSubspace(4, [l_matrix(1, 0, 0), l_matrix(0, 1, 0)])
        A = generated_subalgebra(V)
        assert A.dim == 3
        assert is_subalgebra(A)

    def test_compact_split_u2(self):
        # L-copy plus one commuting R-generator: center dim 1, derived dim 3
        mats = [l_matrix(*e) for e in np.eye(3)] + [r_matrix(1, 0, 0)]
        A = SkewOperatorSubspace(4, mats)
        center_part, derived_part = compact_split(A)
        assert center_part.dim == 1
        assert derived_part.dim == 3
        assert subspaces_equal(derived_part, so3_l_copy())

    def test_compact_split_requires_subalgebra(self):
        with pytest.raises(PreconditionError):
            compact_split(vt_subspace(2))
