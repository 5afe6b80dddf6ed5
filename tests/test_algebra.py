from fractions import Fraction as Q

import numpy as np
import pytest
from conftest import change_basis

from nilgo import (
    MetricLieAlgebra,
    algebra,
    algebra_from_dict,
    algebra_to_dict,
    center,
    derived,
    detect_flat_factor,
    family_thm2,
    heisenberg,
    h_type_clifford,
    make_algebra,
    n10,
    n10_second,
    nilpotency_class,
    quaternionic_heisenberg,
    split_two_step,
    validate,
)
from nilgo.algebra import is_nonsingular, restrict_to_span
from nilgo.errors import InputError, NotTwoStepError, PreconditionError
from nilgo.families import algebra_from_jmaps
from nilgo.linear_core import bareiss_rank


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

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3])
    def test_bounds_are_relative_to_the_constants(self, scale):
        # an antisymmetrized random tensor is no Lie bracket at any scale
        c = np.random.default_rng(0).standard_normal((4, 4, 4))
        c = c - c.transpose(1, 0, 2)
        assert not validate(make_algebra(c * scale, np.eye(4))).passed

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_lie_brackets_pass_at_every_scale(self, scale):
        L = h_type_clifford(4)
        assert validate(make_algebra(L.structure * scale, L.gram * scale)).passed

    def test_small_asymmetric_bracket_detected(self):
        # [e0, e1] = 1e-12 e2 with [e1, e0] = 0 satisfies Jacobi but not antisymmetry
        c = np.zeros((3, 3, 3))
        c[0, 1, 2] = 1e-12
        assert not validate(make_algebra(c, np.eye(3))).passed

    def test_small_asymmetric_gram_detected(self):
        L = heisenberg(1)
        g = 1e-13 * np.eye(3)
        g[0, 1] = 0.5e-13
        assert not validate(make_algebra(L.structure, g)).passed

    @pytest.mark.parametrize("scale", [1e-13, 1.0])
    def test_require_spd_symmetry_is_relative(self, scale):
        with pytest.raises(InputError, match="symmetric positive definite"):
            algebra.require_spd(scale * np.array([[1.0, 0.5], [0.0, 1.0]]), "gram matrix")
        algebra.require_spd(scale * np.array([[1.0, 0.5], [0.5, 1.0]]), "gram matrix")

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


class TestNilpotencyClassKept:
    def test_computed_once_and_kept(self, monkeypatch):
        calls = []
        series = algebra._lower_central_series_length
        monkeypatch.setattr(algebra, "_lower_central_series_length", lambda L: calls.append(L) or series(L))
        L = n10(2)
        assert L.nil_class is None
        assert [nilpotency_class(L) for _ in range(3)] == [2, 2, 2]
        assert len(calls) == 1 and L.nil_class == 2

    def test_not_part_of_the_constructor(self):
        with pytest.raises(TypeError):
            MetricLieAlgebra(3, np.zeros((3, 3, 3)), np.eye(3), nil_class=1)


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


ACCEPTANCE_FAMILIES = {
    **{f"n10_{t}": (lambda t=t: n10(t)) for t in (1, Q(3, 2), 2, 5)},
    "n10_second": n10_second,
    "thm2_2_3": lambda: family_thm2([2, 3]),
    "thm2_3/2_2_3": lambda: family_thm2([Q(3, 2), 2, 3]),
    "thm2_2_3_5_7": lambda: family_thm2([2, 3, 5, 7]),
    **{f"h_type_clifford_{m}": (lambda m=m: h_type_clifford(m)) for m in range(1, 8)},
    "h_type_clifford_3x2": lambda: h_type_clifford(3, 2),
    "heisenberg_3": lambda: heisenberg(3),
    "quaternionic_heisenberg_2": lambda: quaternionic_heisenberg(2),
    # a center off the basis vectors: no indices at either width
    "h_type_clifford_4_off_basis": lambda: change_basis(
        h_type_clifford(4), np.eye(12, dtype=int) + np.eye(12, k=4, dtype=int)
    ),
}


def relabeled(L, seed):
    """The exact algebra L in a seeded permutation of its basis, by indexing
    (change_basis with a permutation matrix gives the same algebra through a
    much slower rational contraction on the dim-22 family)."""
    perm = np.random.default_rng(seed).permutation(L.dim)
    (c, den), (g, gden) = L.structure_exact, L.gram_exact
    structure = [[[Q(x, den) for x in row] for row in plane] for plane in c[np.ix_(perm, perm, perm)]]
    return make_algebra(structure, [[Q(x, gden) for x in row] for row in g[np.ix_(perm, perm)]])


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

    @pytest.mark.parametrize("name", ["n10_2", "h_type_clifford_4", "thm2_2_3"])
    def test_exact_split_skips_the_float_center(self, monkeypatch, name):
        L = ACCEPTANCE_FAMILIES[name]()
        calls = []
        real = algebra.lc.nullspace
        monkeypatch.setattr(algebra.lc, "nullspace", lambda A: calls.append(1) or real(A))
        assert split_two_step(L).is_exact
        assert calls == []

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

    @pytest.mark.parametrize("name", sorted(ACCEPTANCE_FAMILIES))
    def test_narrowed_rank_gives_the_full_width_indices(self, name):
        # the full-width test: the rank of c as a d x d^2 matrix over all its columns
        L = relabeled(ACCEPTANCE_FAMILIES[name](), 5)
        rows = L.structure_exact[0].reshape(L.dim, -1)
        zero = [i for i, row in enumerate(rows) if not any(row)]
        full = len(zero) == L.dim - bareiss_rank(rows.tolist())
        split = split_two_step(L)
        assert split.is_exact == full
        if full:
            assert split.z_index == tuple(zero)
            assert split.v_index == tuple(i for i in range(L.dim) if i not in zero)

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

    def test_heisenberg_plus_flat_off_axis(self, heisenberg_plus_flat):
        # the SVD and Gram-Schmidt rows leave ~1e-16 of round-off in their brackets,
        # in directions outside the span; closure must not read that as |[x, y]|-sized
        P = [[2, 1, 0, 0, 1], [1, 1, 0, 0, 0], [0, 3, 1, 0, 0], [0, 1, 1, 1, 0], [1, 0, -1, 1, 1]]
        flat_dim, reduced = detect_flat_factor(change_basis(heisenberg_plus_flat, P))
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

    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    def test_restrict_to_span_closure_is_relative(self, scale):
        # [e0, e1] = e2 leaves span{e0, e1} at every scale of the brackets
        L = heisenberg(1)
        with pytest.raises(PreconditionError, match="not closed"):
            restrict_to_span(make_algebra(L.structure * scale, L.gram), np.eye(3)[:2])
        R = restrict_to_span(make_algebra(L.structure * scale, L.gram), np.eye(3)[[0, 2]])
        assert not np.any(R.structure)


# m = 3 generators on R^4, J_1 of rank 2
RANK_2_GENERATOR = [
    [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]],
    [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
]

def skew_sum(n, *pairs) -> np.ndarray:
    """The integer n x n sum of E_ij = e_j e_i^T - e_i e_j^T over the pairs (i, j)."""
    S = np.zeros((n, n), dtype=int)
    for i, j in pairs:
        S[i, j], S[j, i] = -1, 1
    return S


# m = 2 on R^4: J_Z = (3x + y)(E01 + E23) + y E02 has Pfaffian (3x + y)^2, and rank 2 at Z = (1, -3)
DOUBLE_ROOT = np.array([3 * skew_sum(4, (0, 1), (2, 3)), skew_sum(4, (0, 1), (2, 3), (0, 2))])


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
        r = is_nonsingular(algebra_from_jmaps(RANK_2_GENERATOR))
        assert r.status == "no" and r.exact
        assert np.array_equal(r.witness, [1.0, 0.0, 0.0])

    def test_double_root_of_the_pfaffian_form(self):
        # np.roots splits the double root by 3.7e-8 i: the exact form is decided
        # by a Sturm count, the float one by the root classifier of pfaffian_roots
        for generators, exact in ((DOUBLE_ROOT.tolist(), True), (DOUBLE_ROOT.astype(float), False)):
            r = is_nonsingular(algebra_from_jmaps(generators))
            assert (r.status, r.exact) == ("no", exact)
            assert np.allclose(r.witness, np.array([1.0, -3.0]) / np.sqrt(10.0), rtol=0, atol=1e-12)

    def test_odd_v_is_singular(self):
        # every J_Z on R^3 is singular; the Pfaffian form needs an even n
        r = is_nonsingular(algebra_from_jmaps([skew_sum(3, (0, 1)).tolist(), skew_sum(3, (0, 2)).tolist()]))
        assert (r.status, r.exact) == ("no", True)
        assert np.array_equal(r.witness, [1.0, 0.0])

    def test_zero_pfaffian_form(self):
        # J_Z = x (E02 + E34 + E45) + y (E12 + E35) on R^6 has rank 4 for every Z
        generators = np.array([skew_sum(6, (0, 2), (3, 4), (4, 5)), skew_sum(6, (1, 2), (3, 5))])
        for data, exact in ((generators.tolist(), True), (generators.astype(float), False)):
            r = is_nonsingular(algebra_from_jmaps(data))
            assert (r.status, r.exact) == ("no", exact)

    def test_sampled_for_large_center(self):
        r = is_nonsingular(h_type_clifford(4, 1))
        assert r.status == "sampled_yes"

    # float brackets scaled far below 1: the decision is relative to the largest singular value
    def test_small_float_brackets_one_dimensional_center(self):
        L = heisenberg(3)
        assert is_nonsingular(make_algebra(L.structure * 1e-3, L.gram)).status == "yes"

    def test_small_float_brackets_sampled(self):
        L = h_type_clifford(4)
        assert is_nonsingular(make_algebra(L.structure * 1e-10, L.gram)).status == "sampled_yes"

    def test_small_float_singular_generator_still_found(self):
        L = algebra_from_jmaps(RANK_2_GENERATOR)
        unit, small = (is_nonsingular(make_algebra(L.structure * s, L.gram)) for s in (1.0, 1e-10))
        assert unit.status == small.status == "no"
        assert np.array_equal(unit.witness, small.witness)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: h_type_clifford(4),
            lambda: h_type_clifford(7),
            lambda: algebra_from_jmaps(RANK_2_GENERATOR),
        ],
        ids=["h_type_clifford_4", "h_type_clifford_7", "rank_2_generator"],
    )
    def test_stacked_decision_matches_candidate_loop(self, build):
        L = build()
        r = is_nonsingular(L)
        status, witness, exact = _nonsingular_loop(L)
        assert (r.status, r.exact) == (status, exact)
        assert (r.witness is None and witness is None) or np.array_equal(r.witness, witness)


def _nonsingular_loop(L, samples=1000, seed=0):
    """Oracle for m >= 3: one J_Z and two SVDs per candidate, basis vectors first."""
    from nilgo import jmaps, linear_core as lc

    split = split_two_step(L)
    fam = jmaps.split_family(split)
    m, n = split.m, split.n
    rng = np.random.default_rng(seed)
    candidates = [np.eye(m)[i] for i in range(m)]
    for _ in range(samples):
        Z = rng.standard_normal(m)
        candidates.append(Z / np.linalg.norm(Z))
    for idx, Z in enumerate(candidates):
        J = jmaps.build_jmap(split, Z)
        if np.linalg.svd(J, compute_uv=False)[-1] <= 1e-9 * np.linalg.norm(J, 2):
            exact = fam.is_exact and idx < m and lc.bareiss_rank(fam.generators_exact[0][idx].tolist()) < n
            return "no", Z, exact
    return "sampled_yes", None, False


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
