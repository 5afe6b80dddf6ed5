from fractions import Fraction as Q

import numpy as np
import pytest

from nilgo import (
    build_family,
    family_thm2,
    h_type_clifford,
    heisenberg,
    n10,
    n10_second,
    quaternionic_heisenberg,
    split_two_step,
    validate,
)
from nilgo.errors import InputError
from nilgo.families import (
    alpha_closed_form,
    centralizer_basis_n10,
    clifford_generators,
    d_matrix_exact,
    l_matrix,
    r_matrix,
    so4_decompose,
    thm2_diagonal_centralizer,
    thm2_subspace,
    transport_solve,
    vt_generators,
    vt_subspace,
)
from nilgo.operator_subspaces import centralizer_in_so, subspace_contains, subspaces_equal


class TestHeisenberg:
    def test_bracket_convention(self):
        L = heisenberg(2)
        c, den = L.structure_exact
        assert den == 1
        assert c[0, 1, 4] == 1 and c[1, 0, 4] == -1
        assert c[2, 3, 4] == 1 and c[3, 2, 4] == -1
        assert validate(L).passed

    def test_rejects_bad_k(self):
        with pytest.raises(InputError):
            heisenberg(0)


class TestCliffordGenerators:
    @pytest.mark.parametrize("m,n", [(1, 2), (2, 4), (3, 4), (4, 8), (5, 8), (6, 8), (7, 8)])
    def test_anticommutation(self, m, n):
        gens = [np.array(G, dtype=float) for G in clifford_generators(m, 1)]
        assert gens[0].shape == (n, n)
        for i, A in enumerate(gens):
            assert np.allclose(A @ A, -np.eye(n))
            assert np.allclose(A, -A.T)
            for B in gens[i + 1:]:
                assert np.allclose(A @ B, -B @ A)

    def test_copies_scale_module(self):
        gens = clifford_generators(3, 2)
        assert len(gens[0]) == 8

    def test_quaternionic_is_clifford3(self):
        A = quaternionic_heisenberg(1)
        B = h_type_clifford(3, 1)
        assert np.array_equal(A.structure_exact[0], B.structure_exact[0])
        assert A.structure_exact[1] == B.structure_exact[1]

    def test_rejects_m_out_of_range(self):
        with pytest.raises(InputError):
            clifford_generators(8, 1)

    def test_algebra_dims(self):
        L = h_type_clifford(5, 1)
        split = split_two_step(L)
        assert (split.m, split.n) == (5, 8)


class TestSo4Machinery:
    def test_l_and_r_commute(self, rng):
        for _ in range(5):
            b, g = rng.standard_normal(3), rng.standard_normal(3)
            Lm, Rm = l_matrix(*b), r_matrix(*g)
            assert np.allclose(Lm @ Rm, Rm @ Lm)

    def test_l_copies_bracket_into_l(self):
        A, B = l_matrix(1, 0, 0), l_matrix(0, 1, 0)
        C = A @ B - B @ A
        beta, gamma = so4_decompose(C)
        assert np.allclose(gamma, 0.0)
        assert np.allclose(l_matrix(*beta), C)

    def test_decompose_round_trip(self, rng):
        S = rng.standard_normal((4, 4))
        S = S - S.T
        beta, gamma = so4_decompose(S)
        assert np.allclose(l_matrix(*beta) + r_matrix(*gamma), S)

    def test_quaternion_unit(self):
        J = l_matrix(1, 0, 0)
        assert np.allclose(J @ J, -np.eye(4))

    def test_transport_solve(self, rng):
        U = np.array([1.0, 2.0, 0.0, -1.0])
        beta = np.array([0.5, -1.0, 2.0])
        V = l_matrix(*beta) @ U
        x = transport_solve(U, V, side="L")
        assert np.allclose(l_matrix(*x) @ U, V)

    def test_transport_rejects_non_tangent(self):
        with pytest.raises(InputError):
            transport_solve(np.array([1.0, 0, 0, 0]), np.array([1.0, 0, 0, 0]))


class TestDeformedFamilies:
    def test_n10_dimensions(self):
        L = n10(2)
        assert L.dim == 10
        split = split_two_step(L)
        assert (split.m, split.n) == (2, 8)
        assert validate(L).passed

    def test_vt_block_structure(self):
        G1, G2 = vt_generators(3)
        A = np.array(G1, dtype=float)
        assert np.allclose(A[:4, 4:], 0.0)
        assert np.allclose(A[4:, :4], 0.0)

    def test_rejects_t_below_1(self):
        with pytest.raises(InputError):
            n10(Q(1, 2))

    def test_exactness(self):
        assert n10(Q(3, 2)).is_exact
        assert not n10(1.5).is_exact

    def test_metric_gram(self):
        q = [[2, 1], [1, 3]]
        L = n10(2, q=q)
        assert np.allclose(L.gram[:2, :2], q)
        assert np.allclose(L.gram[2:, 2:], np.eye(8))

    def test_rejects_non_spd_metric(self):
        with pytest.raises(InputError):
            n10(2, q=[[1, 2], [2, 1]])

    def test_n10_second_dim(self):
        L = n10_second()
        assert L.dim == 10
        assert validate(L).passed

    def test_thm2_dims(self):
        assert family_thm2([2, 3]).dim == 14
        assert family_thm2([Q(3, 2), 2, 3]).dim == 18

    def test_thm2_rejects_unordered(self):
        with pytest.raises(InputError):
            family_thm2([3, 2])
        with pytest.raises(InputError):
            family_thm2([1, 2])


class TestCentralizerBases:
    def test_n10_centralizer_matches(self):
        for t in (2, 5):
            C = centralizer_in_so(vt_subspace(t))
            assert subspaces_equal(C, centralizer_basis_n10())

    def test_thm2_diagonal_inside_centralizer(self):
        W = thm2_subspace([2, 3])
        assert subspace_contains(centralizer_in_so(W), thm2_diagonal_centralizer(2))


class TestAlphaFormulas:
    def test_solution_property(self):
        t, x, y = Q(2), Q(1), Q(3)
        X = [Q(1), Q(-2), Q(0), Q(1), Q(2), Q(1), Q(-1), Q(3)]
        sol = alpha_closed_form(t, x, y, X)
        a = sol.alphas
        Y_blocks = [d_matrix_exact(*a[:3]), d_matrix_exact(*a[3:])]
        G1, G2 = vt_generators(t)
        for half in (0, 1):
            D = Y_blocks[half]
            for i in range(4):
                lhs = sum(D[i][j] * X[4 * half + j] for j in range(4))
                rhs = sum(
                    (x * G1[4 * half + i][4 * half + j] + y * G2[4 * half + i][4 * half + j])
                    * X[4 * half + j]
                    for j in range(4)
                )
                assert lhs == rhs

    def test_degenerate_half_free(self):
        sol = alpha_closed_form(2, 1, 0, [Q(1), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0), Q(0)])
        assert sol.free_second
        assert sol.alphas[3:] == (0, 0, 0)

    def test_rejects_t_below_1(self):
        with pytest.raises(InputError):
            alpha_closed_form(Q(1, 2), 1, 1, [Q(1)] * 8)


class TestBuildFamily:
    def test_dispatch(self):
        assert build_family("heisenberg", {"k": 2}).dim == 5
        assert build_family("n10", {"t": Q(2)}).dim == 10
        assert build_family("thm2", {"ts": [2, 3]}).dim == 14
        assert build_family("h_type_clifford", {"m": 4}).dim == 12

    def test_unknown_kind(self):
        with pytest.raises(InputError):
            build_family("nope", {})
