import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nilgo.linear_core as lc

from nilgo import SkewOperatorSubspace, heisenberg, n10, skew_derivations, split_two_step
from nilgo.errors import InputError, PreconditionError
from nilgo.families import family_thm2, h_type_clifford, l_matrix, quaternionic_heisenberg, vt_subspace
from nilgo.go_checker import SamplerConfig, apply_center_metric, normalizer_resolve_residual
from nilgo.jmaps import split_family
from nilgo.operator_subspaces import (
    _upper_pairs,
    brackets,
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
)
from oracles import r_matrix, split_derivation_system_products, subspaces_equal


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

    def test_skewness_is_relative(self):
        B = np.zeros((1, 2, 2))
        B[0, 0, 1], B[0, 1, 0] = 1.0, 0.8  # not skew at any scale
        for scale in (1e-20, 1.0, 1e20):
            with pytest.raises(InputError):
                SkewOperatorSubspace(2, scale * B)

    def test_independence_cut_at_the_largest_singular_value(self):
        # singular values (sqrt 2, sqrt 2, sqrt 2, 2.1e-9): 2.1e-9 is above
        # TAU_RANK sqrt 2 (the cut), though below TAU_RANK |M|_F = 2.45e-9
        sb = skew_basis(4)
        B = np.concatenate([sb[:3], 2.1e-9 / np.sqrt(2) * sb[3:4]])
        assert SkewOperatorSubspace(4, B).dim == 4
        with pytest.raises(InputError):
            SkewOperatorSubspace(4, np.concatenate([sb[:3], 1.3e-9 / np.sqrt(2) * sb[3:4]]))

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

    def test_containment_is_relative_to_each_element(self):
        # s E02 is as far from span{E01} as E02 is, at every scale s
        E = skew_basis(3)
        for s in (1e-10, 1.0, 1e10):
            assert not subspace_contains(SkewOperatorSubspace(3, E[:1]), SkewOperatorSubspace(3, s * E[1:2]))
            assert subspace_contains(SkewOperatorSubspace(3, E[:2]), SkewOperatorSubspace(3, s * (E[:1] + E[1:2])))

    def test_projector_idempotent(self):
        P = so3_l_copy().projector()
        assert np.allclose(P @ P, P)


def _j_span(L):
    split = split_two_step(L)
    return SkewOperatorSubspace(split.n, split_family(split).generators)


def _constrained_pair_loop(V, project_out_span):
    """The normalizer (projected) or centralizer of V in so(n) by one loop over
    skew-basis/basis pairs, each solution summed from zero."""
    n = V.ambient_dim
    sb = []
    for i in range(n):
        for j in range(i + 1, n):
            S = np.zeros((n, n))
            S[i, j], S[j, i] = 1.0, -1.0
            sb.append(S)
    P = V.projector()
    cols = []
    for S in sb:
        rows = []
        for B in V.basis:
            w = (S @ B - B @ S).ravel()
            rows.append(w - P @ w if project_out_span else w)
        cols.append(np.concatenate(rows))
    mats = []
    for v in lc.nullspace(np.array(cols).T):
        X = np.zeros((n, n))
        for a, S in zip(v, sb):
            X += a * S
        mats.append(X)
    return span_matrices(mats, n)


class TestStackedFormat:
    """Bases and families are (k, n, n) float arrays."""

    def test_matrices_of_another_size_rejected(self, rng):
        # two 8 x 8 matrices must not be re-cut into eight 4 x 4 blocks
        A = rng.standard_normal((2, 8, 8))
        with pytest.raises(InputError):
            SkewOperatorSubspace(4, A - A.transpose(0, 2, 1))

    def test_ragged_basis_rejected(self):
        with pytest.raises(InputError):
            SkewOperatorSubspace(2, [[[0.0, 1.0], [-1.0]]])

    def test_empty_basis_shape(self):
        assert SkewOperatorSubspace(5, []).basis.shape == (0, 5, 5)
        assert span_matrices([], 3).basis.shape == (0, 3, 3)
        assert SkewOperatorSubspace(5, []).projector().shape == (25, 25)

    def test_sequences_are_stacked(self):
        V = vt_subspace(2)
        assert V.basis.shape == (2, 8, 8) and V.basis.dtype == float
        assert np.array_equal(SkewOperatorSubspace(4, list(so3_l_copy().basis)).basis, so3_l_copy().basis)

    def test_skew_basis_is_stacked_without_negative_zeros(self):
        S = skew_basis(4)
        assert S.shape == (6, 4, 4)
        assert not np.signbit(S[S == 0]).any()
        assert [tuple(np.argwhere(B == 1)[0]) for B in S] == [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def test_index_tables_are_shared_and_read_only(self):
        iu, ju = _upper_pairs(5)
        S = skew_basis(5)
        assert _upper_pairs(5)[0] is iu and skew_basis(5) is S
        assert all(np.array_equal(a, b) for a, b in zip((iu, ju), np.triu_indices(5, 1)))
        for a in (iu, ju, S):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_element_matches_accumulating_loop(self, rng):
        V = vt_subspace(2)
        for _ in range(20):
            c = rng.standard_normal(V.dim)
            ref = np.zeros((8, 8))
            for a, B in zip(c, V.basis):
                ref += a * B
            assert np.array_equal(V.element(c), ref)

    @pytest.mark.parametrize(
        "build",
        [so3_l_copy, lambda: vt_subspace(2), lambda: _j_span(h_type_clifford(4)), lambda: _j_span(family_thm2([2, 3]))],
        ids=["so3_copy", "vt_2", "clifford_4", "thm2_2_3"],
    )
    def test_constrained_subspaces_match_pair_loop(self, build):
        # the same products and sums as the loop over skew-basis/basis pairs: the same bytes
        V = build()
        for project, computed in ((True, normalizer_in_so(V)), (False, centralizer_in_so(V))):
            assert computed.basis.tobytes() == _constrained_pair_loop(V, project).basis.tobytes()

    def test_brackets(self, rng):
        A, B = rng.standard_normal((3, 4, 4)), rng.standard_normal((2, 4, 4))
        C = brackets(A, B)
        assert C.shape == (3, 2, 4, 4)
        for p in range(3):
            for q in range(2):
                assert np.array_equal(C[p, q], A[p] @ B[q] - B[q] @ A[p])


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
    "n10(2) center metric": lambda: apply_center_metric(n10(2), np.array([[2.0, 0.5], [0.5, 1.0]])),
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
        # the 0.55 MB result is the only array of its size the build makes
        J = split_family(split_two_step(family_thm2([2, 3, 5, 7]))).generators
        tracemalloc.start()
        try:
            A = split_derivation_system(J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.shape == (380, 191)
        assert A.nbytes <= peak < 2**20

    def test_flat_factor_uses_split(self, heisenberg_plus_flat):
        # class two with a Euclidean factor: so(2) on v, so(2) on the flat
        # plane, and nothing else
        ders = skew_derivations(heisenberg_plus_flat)
        assert ders.dim == 2
        for D in ders.basis:
            assert np.allclose(D, -D.T, atol=1e-12)
            assert np.allclose(derivation_defect(heisenberg_plus_flat.structure, D), 0.0, atol=1e-12)


ASSEMBLY_CASES = {
    **{f"thm2 dim {4 * len(ts) + 6}": (lambda ts=ts: family_thm2(ts))
       for ts in ([2, 3], [Fraction(3, 2), 2, 3], [2, 3, 5, 7], [2, 3, 5, 7, 11])},
    **{f"h_type_clifford({m}, {c})": (lambda m=m, c=c: h_type_clifford(m, c))
       for m, c in [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]},
    "n10(2)": lambda: n10(2),
    "n10(2) center metric": lambda: n10(2, q=[[2, 1], [1, 3]]),
    "n10(3/2) center metric": lambda: n10(Fraction(3, 2), q=[[1.5, 0.25], [0.25, 0.75]]),
}


def _identical(a, b) -> bool:
    """Same dtype, shape and bytes; Python ints of the same values for object arrays."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == object:
        return a.tolist() == b.tolist() and all(type(x) is type(y) is int for x, y in zip(a.flat, b.flat))
    return a.tobytes() == b.tobytes()


class TestSplitDerivationSystemAssembly:
    """The system assembled by index is the products' system entry for entry:
    float64 bytes, signed zeros included, and int64 and Python int values."""

    @pytest.mark.parametrize("name", sorted(ASSEMBLY_CASES))
    def test_families_match_products(self, name):
        fam = split_family(split_two_step(ASSEMBLY_CASES[name]()))
        stacks = [fam.generators]
        if fam.generators_exact is not None:
            J_int = fam.generators_exact[0]
            stacks += [J_int.astype(np.int64), J_int]
        for J in stacks:
            assert _identical(split_derivation_system(J), split_derivation_system_products(J))

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.integers(1, 4), st.integers(2, 7), st.booleans(), st.data())
    def test_random_stacks_match_products(self, m, n, skew, data):
        entry = st.sampled_from([0.0, -0.0, 1.0, -2.5, 1e-300, 3.0e17]) | st.floats(-4, 4)
        J = np.array(data.draw(st.lists(entry, min_size=m * n * n, max_size=m * n * n))).reshape(m, n, n)
        if skew:
            J = J - J.transpose(0, 2, 1)
        J_int = np.trunc(J).astype(np.int64)
        for stack in (J, J_int, J_int.astype(object)):
            assert _identical(split_derivation_system(stack), split_derivation_system_products(stack))


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


NORMALIZER_DIMS = {
    "n10(2)": (lambda: _j_span(n10(2)), 6),
    "thm2 2,3": (lambda: _j_span(family_thm2([2, 3])), 9),
    "clifford(3)": (lambda: _j_span(h_type_clifford(3)), 6),
    "clifford(4)": (lambda: _j_span(h_type_clifford(4)), 9),
    "clifford(7)": (lambda: _j_span(h_type_clifford(7)), 21),
    "quaternionic_heisenberg(2)": (lambda: _j_span(quaternionic_heisenberg(2)), 13),
    "vt(2)": (lambda: vt_subspace(2), 6),
    "so(3)": (lambda: SkewOperatorSubspace(3, skew_basis(3)), 3),
}


class TestNormalizerScale:
    """The normalizer's dimension does not depend on the scale of V: the
    round-off left off the span is cut relative to the largest bracket."""

    @pytest.mark.parametrize("name", sorted(NORMALIZER_DIMS))
    def test_dimension_at_every_scale(self, name):
        make, dim = NORMALIZER_DIMS[name]
        V = make()
        scales = 10.0 ** np.arange(-15, 16)
        dims = [normalizer_in_so(SkewOperatorSubspace(V.ambient_dim, s * V.basis)).dim for s in scales]
        assert dims == [dim] * len(dims)

    @pytest.mark.parametrize("name", sorted(NORMALIZER_DIMS))
    def test_resolve_residual_at_every_scale(self, name):
        # the centralizer residual is relative to |X| |V|, with no absolute floor
        V = NORMALIZER_DIMS[name][0]()
        config = SamplerConfig(samples=10)
        values = [normalizer_resolve_residual(SkewOperatorSubspace(V.ambient_dim, s * V.basis), config)
                  for s in (1e-15, 1e-10, 1e-6, 1e-5, 1.0, 1e5, 1e10, 1e15)]
        assert np.allclose(values, values[4], rtol=0, atol=1e-13)


class TestSubalgebra:
    def test_l_copy_is_subalgebra(self):
        assert is_subalgebra(so3_l_copy())

    def test_vt_is_not(self):
        assert not is_subalgebra(vt_subspace(2))

    def test_off_axis_abelian_span_is(self):
        # [E01, E01 + E23] = 0; conjugated by an orthogonal Q the bracket of the
        # unit basis is round-off (1.3e-16) lying almost wholly off the span
        # (0.998 of its norm), so it is bounded by its unit inputs, not by itself
        Q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0]
        E = skew_basis(4)
        V = SkewOperatorSubspace(4, Q @ np.stack([E[0], E[0] + E[5]]) @ Q.T)
        assert np.any(brackets(V.basis[:1], V.basis[1:]))
        assert is_subalgebra(V)

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
