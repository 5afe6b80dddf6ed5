import json
from fractions import Fraction as Q

import numpy as np
import pytest

from nilgo import (
    algebra_to_dict,
    build_family,
    family_thm2,
    h_type_clifford,
    make_algebra,
    heisenberg,
    n10,
    n10_second,
    quaternionic_heisenberg,
    split_two_step,
    validate,
)
from nilgo.algebra import _format_value
from nilgo.errors import InputError
from nilgo.families import (
    algebra_from_jmaps,
    alpha_closed_form,
    clifford_generators,
    d_matrix_exact,
    l_matrix,
    n10_second_generators,
    thm2_generators,
    thm2_subspace,
    vt_generators,
    vt_subspace,
)
from nilgo.operator_subspaces import SkewOperatorSubspace, centralizer_in_so, subspace_contains
from oracles import centralizer_basis_n10, r_matrix, subspaces_equal, thm2_diagonal_centralizer
from rational_oracles import rat_inv


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
        assert np.allclose(C, l_matrix(0, 0, 2))

    def test_quaternion_unit(self):
        J = l_matrix(1, 0, 0)
        assert np.allclose(J @ J, -np.eye(4))


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


# ---------------------------------------------------------------------------
# oracles: the per-pair construction and the d^3 serializer the family layer
# used before it worked on integer tensors
# ---------------------------------------------------------------------------


def _reference_algebra_from_jmaps(generators, q=None):
    """[v_a, v_b] = sum_i (q^-1 w)_i Z_i, one pair (a, b) at a time."""
    m = len(generators)
    n = len(generators[0]) if m else 0
    d = m + n
    if q is None:
        qrows = [[Q(int(i == j)) for j in range(m)] for i in range(m)]
    else:
        qrows = [list(r) for r in (q.tolist() if isinstance(q, np.ndarray) else q)]
    exact = all(isinstance(x, (int, Q)) for G in generators for row in G for x in row) and all(
        isinstance(x, (int, Q)) for r in qrows for x in r
    )
    qinv = rat_inv(qrows) if exact else np.linalg.inv(np.array(qrows, dtype=float))
    structure = np.zeros((d, d, d), dtype=object)
    for a in range(n):
        for b in range(n):
            if a != b:
                w = [generators[i][b][a] for i in range(m)]  # (G_i v_a, v_b)
                for i in range(m):
                    structure[m + a, m + b, i] = sum(qinv[i][j] * w[j] for j in range(m))
    gram = np.zeros((d, d), dtype=object)
    for i in range(m):
        for j in range(m):
            gram[i, j] = qrows[i][j] if exact else float(qrows[i][j])
    for a in range(n):
        gram[m + a, m + a] = 1 if exact else 1.0
    return make_algebra(structure, gram)


def _reference_algebra_to_dict(L):
    """Every bracket coefficient of i < j visited, zeros skipped."""
    c, den = L.structure_exact if L.is_exact else (None, None)
    brackets = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            coeffs = {}
            for k in range(L.dim):
                v = Q(c[i, j, k], den) if L.is_exact else L.structure[i, j, k]
                if v != 0:
                    coeffs[str(k)] = _format_value(v)
            if coeffs:
                brackets.append({"i": i, "j": j, "coeffs": coeffs})
    if L.is_exact:
        g, gden = L.gram_exact
        gram = [[_format_value(Q(x, gden)) for x in row] for row in g]
    else:
        gram = [[float(x) for x in row] for row in L.gram]
    return {"dim": L.dim, "brackets": brackets, "gram": gram}


def _skew_subspace():
    rng = np.random.default_rng(7)
    return SkewOperatorSubspace(6, [(lambda A: A - A.T)(rng.standard_normal((6, 6))) for _ in range(3)])


ORACLE_GENERATORS = {
    **{f"clifford_{m}_{c}": (lambda m=m, c=c: clifford_generators(m, c)) for m in range(1, 8) for c in (1, 2, 3)},
    **{f"vt_{t}": (lambda t=t: vt_generators(t)) for t in (1, 2, Q(3, 2), 2.5)},
    "thm2_2_3_5_7": lambda: thm2_generators([2, 3, 5, 7]),
    "thm2_3/2_2_3": lambda: thm2_generators([Q(3, 2), 2, 3]),
    "thm2_1.5_2.25": lambda: thm2_generators([1.5, 2.25]),
    "n10_second": n10_second_generators,
    "float_subspace": lambda: _skew_subspace().basis,
}


def _oracle_metric(kind, m):
    if kind == "identity":
        return None
    if kind == "rational":  # I + the Hilbert matrix
        return [[Q(int(i == j)) + Q(1, i + j + 1) for j in range(m)] for i in range(m)]
    B = np.random.default_rng(m).standard_normal((m, m))
    return B @ B.T + 0.5 * np.eye(m)


def _assert_same_algebra(L, ref):
    assert L.is_exact == ref.is_exact
    if ref.is_exact:
        for (a, den), (b, rden) in ((L.structure_exact, ref.structure_exact), (L.gram_exact, ref.gram_exact)):
            assert den == rden and np.array_equal(a, b)
    assert L.structure.tobytes() == ref.structure.tobytes()  # bitwise, signs of zeros included
    assert L.gram.tobytes() == ref.gram.tobytes()
    assert json.dumps(algebra_to_dict(L)) == json.dumps(_reference_algebra_to_dict(ref))


class TestJmapsOracle:
    @pytest.mark.parametrize("metric", ["identity", "rational", "float"])
    @pytest.mark.parametrize("name", list(ORACLE_GENERATORS))
    def test_matches_per_pair_loop(self, name, metric):
        gens = ORACLE_GENERATORS[name]()
        q = _oracle_metric(metric, len(gens))
        _assert_same_algebra(algebra_from_jmaps(gens, q), _reference_algebra_from_jmaps(gens, q))

    @pytest.mark.parametrize("metric", ["identity", "rational", "float"])
    def test_subspace_algebra_matches(self, metric):
        V = _skew_subspace()
        q = _oracle_metric(metric, V.dim)
        _assert_same_algebra(algebra_from_jmaps(V.basis, q), _reference_algebra_from_jmaps(V.basis, q))

    @pytest.mark.parametrize("L", [heisenberg(3), n10(Q(3, 2), q=[[2, Q(1, 3)], [Q(1, 3), 1]]), n10(2.5)],
                             ids=["heisenberg", "n10_rational_metric", "n10_float"])
    def test_to_dict_matches_reference(self, L):
        assert json.dumps(algebra_to_dict(L)) == json.dumps(_reference_algebra_to_dict(L))

    def test_generators_stay_fractions(self):
        for gens in (clifford_generators(4, 2), vt_generators(2), thm2_generators([Q(3, 2), 2]), n10_second_generators()):
            assert all(isinstance(x, (int, Q)) for G in gens for row in G for x in row)
        assert all(isinstance(x, Q) for G in clifford_generators(3, 2) for row in G for x in row)

    def test_wrong_size_metric(self):
        with pytest.raises(InputError, match="2x2"):
            n10(2, q=[[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(InputError, match="3x3"):
            h_type_clifford(3, q=[[1, 0], [0, 1]])
