import json
from fractions import Fraction as Q

import numpy as np
import pytest

from nilgo import (
    SamplerConfig,
    SkewOperatorSubspace,
    compare_geodesic_orbit,
    geodesic_integrate,
    gordon_go_check,
    h_type_clifford,
    heisenberg,
    kv_go_check,
    kv_solve,
    make_algebra,
    n10,
    riehm_predict,
    split_two_step,
    tnc_check,
)
from nilgo import go_checker, linear_core as lc, operator_subspaces
from nilgo.errors import InputError, NotTwoStepError, PreconditionError
from nilgo.families import (
    algebra_from_jmaps,
    clifford_generators,
    family_thm2,
    l_matrix,
    quaternionic_heisenberg,
    vt_subspace,
)
from nilgo.go_checker import (
    _sample_plan,
    _sweep,
    apply_center_metric,
    gordon_refute_exact,
    isometry_decomposition,
    normalizer_resolve_residual,
)
from nilgo.jmaps import split_family
from nilgo.operator_subspaces import (
    DerivationAlgebra,
    centralizer_in_so,
    derivation_system,
    is_subalgebra,
    normalizer_in_so,
    skew_basis,
    split_derivations,
)

FAST = SamplerConfig(samples=20)


class TestKv:
    def test_heisenberg_verified(self):
        cert = kv_go_check(isometry_decomposition(heisenberg(1)), FAST)
        assert cert.status == "verified_sampled"
        assert cert.max_residual <= 1e-9

    def test_solve_residual_zero_on_go(self, rng):
        decomp = isometry_decomposition(n10(2))
        for _ in range(5):
            X = rng.standard_normal(10)
            _, res = kv_solve(decomp, X)
            assert res <= 1e-9

    def test_refuted_without_isotropy(self):
        # clifford(4, 1) with an empty h cannot satisfy the criterion
        L = h_type_clifford(4, 1)
        decomp = DerivationAlgebra(L, np.zeros((0, 12, 12)))
        cert = kv_go_check(decomp, FAST)
        assert cert.status == "refuted"
        assert cert.witness is not None


class TestGordon:
    def test_n10_verified(self):
        for t in (1, 2, 5):
            cert = gordon_go_check(n10(t), config=FAST)
            assert cert.status == "verified_sampled"
            assert cert.max_residual <= 1e-9

    def test_certificate_fields(self):
        cert = gordon_go_check(n10(2), config=FAST)
        doc = cert.to_dict()
        assert doc["status"] == "verified_sampled"
        assert doc["seed"] == 0
        assert doc["samples"] == 20
        assert set(doc["tolerances"]) == {"tau_feas", "tau_refute", "tau_rank"}

    def test_clifford4_refuted_exactly(self):
        cert = gordon_go_check(h_type_clifford(4, 1), config=FAST)
        assert cert.status == "refuted"
        assert cert.witness is not None
        assert cert.exact_refutation

    def test_refute_exact_direct(self):
        L = h_type_clifford(4, 1)
        split = split_two_step(L)
        X = np.eye(4)[0]
        Y = np.eye(8)[0] + np.eye(8)[4]
        assert gordon_refute_exact(split, X, Y)

    def test_refute_exact_without_skew_basis(self, monkeypatch):
        # criterion 6's (4, 8) witness: the witness rows F X and E Y are built
        # by index, with no skew-basis table, also none imported into go_checker
        L = h_type_clifford(4, 1)
        witness = gordon_go_check(L, config=FAST).witness

        def forbidden(*args):
            raise AssertionError("skew-basis table")

        monkeypatch.setattr(operator_subspaces, "skew_basis", forbidden)
        monkeypatch.setattr(go_checker, "skew_basis", forbidden, raising=False)
        assert gordon_refute_exact(split_two_step(L), witness["X"], witness["Y"])

    def test_refute_exact_feasible_case(self):
        L = n10(2)
        split = split_two_step(L)
        assert not gordon_refute_exact(split, np.eye(2)[0], np.eye(8)[0])

    def test_rejects_three_step(self, three_step):
        with pytest.raises(NotTwoStepError):
            gordon_go_check(three_step, config=FAST)

    def test_rejects_flat_factor(self, heisenberg_plus_flat):
        with pytest.raises(PreconditionError):
            gordon_go_check(heisenberg_plus_flat, config=FAST)

    def test_metric_parameter(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])
        cert = gordon_go_check(apply_center_metric(n10(2), q), config=FAST)
        assert cert.status == "verified_sampled"
        assert cert.max_residual <= 1e-9

    def test_seed_determinism(self):
        a = gordon_go_check(n10(2), config=SamplerConfig(seed=3, samples=10))
        b = gordon_go_check(n10(2), config=SamplerConfig(seed=3, samples=10))
        assert a.max_residual == b.max_residual


class TestAdjudicator:
    """Sweep order and verdicts shared by the sampled criteria."""

    def test_gordon_witness_is_first_refuting_sweep_pair(self):
        cert = gordon_go_check(h_type_clifford(4, 1), config=FAST)
        e = np.eye(8)
        assert cert.witness["X"] == list(np.eye(4)[0])
        assert cert.witness["Y"] == list(e[0] + e[4])
        assert cert.witness["from_sweep"] is True

    def test_kv_witness_is_first_refuting_sweep_vector(self):
        L = h_type_clifford(4, 1)
        cert = kv_go_check(DerivationAlgebra(L, np.zeros((0, 12, 12))), FAST)
        e = np.eye(12)
        assert cert.witness["X"] == list(e[0] + e[4])

    def test_tnc_witness_is_first_sweep_pair(self):
        V = vt_subspace(2)
        cert = tnc_check(V, SkewOperatorSubspace(8, [centralizer_in_so(V).basis[0]]), FAST)
        assert cert.witness["Z"] == [1.0, 0.0]
        assert cert.witness["Y"] == list(np.eye(8)[0])

    def test_negative_samples_rejected(self):
        with pytest.raises(InputError):
            SamplerConfig(samples=-1)
        assert SamplerConfig(samples=0).samples == 0


class TestMetric:
    def test_apply_center_metric_gram(self):
        q = np.array([[2.0, 1.0], [1.0, 3.0]])
        L2 = apply_center_metric(n10(2), q)
        split = split_two_step(L2)
        zg = split.z_basis @ L2.gram @ split.z_basis.T
        assert np.allclose(zg, np.eye(2))
        assert np.allclose(L2.gram[:2, :2], q)
        assert np.allclose(L2.gram[2:, 2:], np.eye(8))

    def test_rejects_non_spd(self):
        with pytest.raises(InputError):
            apply_center_metric(n10(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestTnc:
    def test_centralizer_type_vt(self):
        for t in (2, 5):
            V = vt_subspace(t)
            cert = tnc_check(V, centralizer_in_so(V), FAST)
            assert cert.status == "verified_sampled"

    def test_one_dim_self(self):
        V = SkewOperatorSubspace(4, [l_matrix(1, 2, 3)])
        cert = tnc_check(V, V, FAST)
        assert cert.status == "verified_sampled"

    def test_refuted_with_too_small_nprime(self):
        # a single rotation axis cannot transport a 2-plane family
        V = vt_subspace(2)
        N = SkewOperatorSubspace(8, [centralizer_in_so(V).basis[0]])
        cert = tnc_check(V, N, FAST)
        assert cert.status == "refuted"
        assert cert.witness is not None

    def test_rejects_nprime_outside_normalizer(self):
        V = vt_subspace(2)
        with pytest.raises(InputError):
            tnc_check(V, V, FAST)  # V_t is not a subalgebra, not in its normalizer

    @pytest.mark.parametrize("s", [1e-170, 1e-300])
    def test_rejects_tiny_nprime_outside_normalizer(self, s):
        V = SkewOperatorSubspace(8, s * vt_subspace(2).basis)
        with pytest.raises(InputError, match="not contained in the normalizer"):
            tnc_check(V, V, FAST)

    def test_gate_agrees_with_is_subalgebra(self):
        # span{L1, L2, L3 + 1e-8 E23} is not a subalgebra, so it does not normalize itself
        V = SkewOperatorSubspace(
            4, [l_matrix(1, 0, 0), l_matrix(0, 1, 0), l_matrix(0, 0, 1) + 1e-8 * skew_basis(4)[5]]
        )
        assert not is_subalgebra(V)
        with pytest.raises(InputError):
            tnc_check(V, V, FAST)

    def test_resolve_residual_lands_in_centralizer(self):
        assert normalizer_resolve_residual(vt_subspace(2), FAST) <= 1e-9

    def test_resolve_residual_of_zero_subspace(self):
        V = SkewOperatorSubspace(4, [])
        assert tnc_check(V, V, SamplerConfig(samples=3)).verified
        assert normalizer_resolve_residual(V, SamplerConfig(samples=3)) == 0.0


class TestNaturallyReductive:
    def test_vt_false(self):
        assert not is_subalgebra(vt_subspace(2))
        assert not is_subalgebra(vt_subspace(5))

    def test_one_dimensional_true(self):
        assert is_subalgebra(SkewOperatorSubspace(4, [l_matrix(2, 1, 0)]))

    def test_l_copy_true(self):
        V = SkewOperatorSubspace(4, [l_matrix(*e) for e in np.eye(3)])
        assert is_subalgebra(V)


class TestStructureOps:
    def test_build_from_subspace_round_trip(self):
        from nilgo.families import vt_generators

        L = algebra_from_jmaps(vt_generators(2))
        assert L.is_exact
        assert np.array_equal(L.structure_exact[0], n10(2).structure_exact[0])
        assert L.structure_exact[1] == n10(2).structure_exact[1]


class TestRiehm:
    def test_small_center_always_go(self):
        for m in (1, 2, 3):
            assert riehm_predict(m, 4 * m)

    def test_m4_never(self):
        assert not riehm_predict(4, 8)
        assert not riehm_predict(4, 16)

    def test_m56_only_n8(self):
        assert riehm_predict(5, 8)
        assert riehm_predict(6, 8)
        assert not riehm_predict(5, 16)

    def test_m7_isotypic(self):
        assert riehm_predict(7, 8, "minus_id")
        assert riehm_predict(7, 16, "plus_id")
        assert not riehm_predict(7, 16, "neither")
        assert not riehm_predict(7, 32, "plus_id")


class TestBatchedAdjudicator:
    """The chunked scan gives the certificate of a sample-by-sample scan."""

    CASES = {
        "gordon refuted": lambda c: gordon_go_check(h_type_clifford(4, 1), config=c),
        "gordon verified": lambda c: gordon_go_check(n10(2), config=c),
        "kv refuted": lambda c: kv_go_check(isometry_decomposition(h_type_clifford(4, 1)), c),
        "kv verified": lambda c: kv_go_check(isometry_decomposition(n10(2)), c),
        "tnc refuted": lambda c: tnc_check(
            V := SkewOperatorSubspace(8, [np.array(G, dtype=float) for G in clifford_generators(4)]),
            centralizer_in_so(V), c),
        "tnc verified": lambda c: tnc_check(V := vt_subspace(2), centralizer_in_so(V), c),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_chunk_size_does_not_change_the_certificate(self, monkeypatch, name):
        config = SamplerConfig(seed=3, samples=30)
        full = self.CASES[name](config).to_dict()
        monkeypatch.setattr("nilgo.go_checker.CHUNK", 3)
        small = self.CASES[name](config).to_dict()
        assert small["status"] == full["status"]
        assert np.isclose(small["max_residual"], full["max_residual"], rtol=1e-12, atol=1e-15)
        if full["witness"] is not None:
            assert {k: v for k, v in small["witness"].items() if k != "residual"} == {
                k: v for k, v in full["witness"].items() if k != "residual"
            }

    @pytest.mark.parametrize("nprime", [centralizer_in_so, normalizer_in_so], ids=["centralizer", "normalizer"])
    def test_tnc_no_commutant_when_nprime_centralizes(self, monkeypatch, nprime):
        # the normalizer of vt(2) is its centralizer: every commutant is N' itself
        import nilgo.go_checker as gc

        V = vt_subspace(2)
        N = nprime(V)
        calls = []
        monkeypatch.setattr(gc, "_commutant", lambda *a: calls.append("commutant"))
        monkeypatch.setattr(lc, "nullspace", lambda *a: calls.append("nullspace"))
        monkeypatch.setattr(gc, "CHUNK", 7)
        assert tnc_check(V, N, SamplerConfig(samples=10)).verified
        assert calls == []

    def test_tnc_commutant_once_per_distinct_z(self, monkeypatch):
        import nilgo.go_checker as gc

        V = _j_span(h_type_clifford(3, 1))  # its normalizer does not centralize it
        N = normalizer_in_so(V)
        calls = []
        original = gc._commutant

        def counting(nprime, z, Z_mat):
            calls.append(z.tobytes())
            return original(nprime, z, Z_mat)

        monkeypatch.setattr(gc, "_commutant", counting)
        monkeypatch.setattr(gc, "CHUNK", 7)  # sweep runs of one Z cross chunk boundaries
        assert tnc_check(V, N, SamplerConfig(samples=10)).verified
        assert len(calls) == len(set(calls)) == 6 + 10  # e_i, then e_i + e_j, then one per random sample

    @pytest.mark.parametrize("span", ["clifford(3)", "so(3)+so(2)"])
    def test_tnc_one_solve_per_chunk(self, monkeypatch, span):
        # in so(3) + so(2) inside so(5) (its own normalizer) the commutant of
        # Z has dimension 4 at Z = E34 and 2 at every other sample Z, and
        # still every chunk is one stacked system
        import nilgo.go_checker as gc

        V = TNC_SPANS[span]()
        N = normalizer_in_so(V)
        config = SamplerConfig(samples=10)
        rows = []
        real = lc.batch_residuals
        monkeypatch.setattr(lc, "batch_residuals", lambda A, b: rows.append(len(A)) or real(A, b))
        monkeypatch.setattr(gc, "CHUNK", 7)
        assert tnc_check(V, N, config).verified
        (zc, _), _ = _sample_plan(config, (V.dim, V.ambient_dim))
        assert rows == [len(zc[s:s + 7]) for s in range(0, len(zc), 7)]

    def test_resolve_one_solve_per_chunk(self, monkeypatch):
        # the re-solve sends each chunk of tnc_check's plan to one stacked least_squares
        import nilgo.go_checker as gc

        V = TNC_SPANS["clifford(3)"]()
        config = SamplerConfig(samples=10)
        whole = normalizer_resolve_residual(V, config)
        rows = []
        real = lc.least_squares
        monkeypatch.setattr(lc, "least_squares", lambda A, b: rows.append(len(A)) or real(A, b))
        monkeypatch.setattr(gc, "CHUNK", 7)
        assert abs(normalizer_resolve_residual(V, config) - whole) <= 1e-15
        (zc, _), _ = _sample_plan(config, (V.dim, V.ambient_dim))
        assert rows == [len(zc[s:s + 7]) for s in range(0, len(zc), 7)]


def _huge_heisenberg():
    """heisenberg(1) with [e0, e1] = 1e308 e2: finite data, overflowing residual scales."""
    c = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1e308, -1e308
    return make_algebra(c, np.eye(3).tolist())


def _huge_subspace():
    """Two skew 4x4 matrices that pass the subspace checks while |Z| of their sum overflows."""
    a = 5e153
    B1 = np.zeros((4, 4))
    B1[0, 1], B1[1, 0] = a, -a
    B2 = B1.copy()
    B2[2, 3], B2[3, 2] = a, -a
    return SkewOperatorSubspace(4, [B1, B2])


class TestNonFiniteResiduals:
    """A non-finite system, scale or residual never decides a certificate."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gordon_go_check(_huge_heisenberg(), config=FAST),
            lambda: kv_go_check(isometry_decomposition(_huge_heisenberg()), FAST),
            lambda: tnc_check(_huge_subspace(), _huge_subspace(), FAST),
            lambda: tnc_check(_huge_subspace(), centralizer_in_so(_huge_subspace()), FAST),
        ],
        ids=["gordon", "kv", "tnc_self", "tnc_centralizer"],
    )
    def test_overflow_raises_input_error(self, call):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InputError, match="finite"):
            call()


def _tiny(L, s=1e-170):
    """L with every structure constant times s."""
    return make_algebra(L.structure * s, L.gram)


class TestUnderflowingResiduals:
    """A residual scale whose squares underflow never decides a certificate."""

    CALLS = {
        "gordon": lambda L: gordon_go_check(L, config=FAST),
        "kv": lambda L: kv_go_check(isometry_decomposition(L), FAST),
        "tnc_centralizer": lambda L: tnc_check(V := _j_span(L), centralizer_in_so(V), FAST),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("family", [lambda: h_type_clifford(4, 1), lambda: n10(2)], ids=["h4", "n10(2)"])
    def test_underflow_raises_input_error(self, name, family):
        with pytest.raises(InputError, match="residual scale underflows"):
            self.CALLS[name](_tiny(family()))

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_decided_above_the_floor(self, name):
        assert self.CALLS[name](_tiny(h_type_clifford(4, 1), 1e-150)).status == "refuted"
        assert self.CALLS[name](_tiny(n10(2), 1e-150)).verified

    def test_abelian_kv_verified(self, abelian):
        # every scale and right-hand side is 0: nothing underflows
        cert = kv_go_check(isometry_decomposition(abelian), FAST)
        assert cert.verified and cert.max_residual == 0.0


def _indefinite_n10():
    """n10(2) whose Gram swaps e_0 and e_1: symmetric but indefinite."""
    g = [[int(i == j) for j in range(10)] for i in range(10)]
    g[0][0] = g[1][1] = 0
    g[0][1] = g[1][0] = 1
    c, den = n10(2).structure_exact
    return make_algebra(c * Q(1, den), g)


class TestGramGate:
    @pytest.mark.parametrize(
        "call",
        [
            lambda L: gordon_go_check(L, config=FAST),
            lambda L: kv_go_check(isometry_decomposition(L), FAST),
            lambda L: geodesic_integrate(L, np.ones(10), 0.5, 0.1),
            lambda L: compare_geodesic_orbit(L, np.ones(10), T=0.5, h=0.1),
        ],
        ids=["gordon", "kv", "geodesic_integrate", "compare_geodesic_orbit"],
    )
    def test_library_rejects_indefinite_gram(self, call):
        with pytest.raises(InputError, match="gram"):
            call(_indefinite_n10())


class TestNilpotencyGate:
    def test_kv_rejects_non_nilpotent(self, so3):
        with pytest.raises(InputError, match="not nilpotent"):
            isometry_decomposition(so3)

    def test_kv_still_runs_on_three_step(self, three_step):
        cert = kv_go_check(isometry_decomposition(three_step), FAST)
        assert cert.status == "refuted"


def _h_type_over_3():
    """h_type_clifford(4) with every generator divided by 3."""
    return algebra_from_jmaps([[[x / 3 for x in row] for row in J] for J in clifford_generators(4)])


def _heisenberg2_shaped(top):
    """[e0, e1] = top * z and [e2, e3] = z / 3 with z = e4, identity Gram."""
    c = [[[Q(0)] * 5 for _ in range(5)] for _ in range(5)]
    for i, j, v in ((0, 1, Q(top)), (2, 3, Q(1, 3))):
        c[i][j][4], c[j][i][4] = v, -v
    return make_algebra(c, [[int(i == j) for j in range(5)] for i in range(5)])


class TestExactRecheck:
    def test_rescaled_h_type_witness_refuted_exactly(self):
        L = _h_type_over_3()
        assert L.is_exact and L.structure_exact[1] == 3
        cert = gordon_go_check(L, config=SamplerConfig(samples=0))
        assert cert.status == "refuted" and cert.witness["from_sweep"]
        assert cert.exact_refutation
        assert gordon_refute_exact(split_two_step(L), cert.witness["X"], cert.witness["Y"])

    def test_feasible_sweep_pair_not_refuted(self):
        L = _h_type_over_3()
        assert not gordon_refute_exact(split_two_step(L), np.eye(4)[0], np.eye(8)[0])

    def test_center_off_the_basis_verified_without_recheck(self, off_basis_heisenberg):
        cert = gordon_go_check(off_basis_heisenberg, config=SamplerConfig(samples=30, seed=3))
        assert cert.status == "verified_sampled" and cert.witness is None
        assert cert.max_residual < 1e-12
        assert not cert.exact_refutation

    def test_center_off_the_basis_refuted_without_recheck(self, off_basis_h_type):
        # an exact algebra with the identity Gram, but no exact split: the sweep witness stands alone
        assert off_basis_h_type.is_exact and not split_two_step(off_basis_h_type).is_exact
        cert = gordon_go_check(off_basis_h_type, config=SamplerConfig(samples=30, seed=3))
        assert cert.status == "refuted" and cert.witness["from_sweep"]
        assert not cert.exact_refutation

    def test_int64_overflow_matches_unscaled_twin(self):
        # 3 * 2**70 (the scaled entry) is past int64, so the re-check runs on Python ints
        verdicts = []
        for L in (_heisenberg2_shaped(2**70), _heisenberg2_shaped(1)):
            split = split_two_step(L)
            verdicts.append([gordon_refute_exact(split, [1.0], Y) for Y in [*np.eye(4), np.ones(4)]])
        assert verdicts[0] == verdicts[1]


def _fraction_refute_exact(L, split, X, Y):
    """Oracle: the exact re-check on witness rows of Fraction objects, with
    the rational X, Y and J_X(Y) entered unscaled."""
    d = L.dim
    c, den = L.structure_exact
    S = np.array(skew_basis(d), dtype=np.int64)
    A = derivation_system(c.astype(object), S.astype(object))
    Xa = np.full(d, Q(0), dtype=object)
    Xa[list(split.z_index)] = [Q(v).limit_denominator(10**6) for v in X]
    Ya = np.full(d, Q(0), dtype=object)
    Ya[list(split.v_index)] = [Q(v).limit_denominator(10**6) for v in Y]
    JXY = np.einsum("b,bak,k->a", Ya, c, Xa) / den
    lhs = np.vstack([A, np.einsum("pkm,m->kp", S, Xa), np.einsum("pkm,m->kp", S, Ya)])
    rhs = np.concatenate([np.zeros(A.shape[0] + d, dtype=object), JXY])
    return len(S) in lc.bareiss_pivots(np.column_stack([lhs, rhs]).tolist())


def _sweep_witness(L):
    cert = gordon_go_check(L, config=SamplerConfig(samples=0))
    assert cert.status == "refuted" and cert.witness["from_sweep"]
    return cert.witness["X"], cert.witness["Y"]


def _recheck_cases():
    e = np.eye
    yield "h4_sweep_witness", h_type_clifford(4), *_sweep_witness(h_type_clifford(4)), True
    for i, (X, Y) in enumerate([(e(2)[0], e(8)[0]), (e(2)[1], e(8)[3] + e(8)[6]), (e(2)[0] + e(2)[1], e(8)[7])]):
        yield f"n10_feasible_{i}", n10(2), X, Y, False
    for i, (X, Y) in enumerate([(e(2)[0], e(12)[0]), (e(2)[0] + e(2)[1], e(12)[2] + e(12)[9])]):
        yield f"thm2_feasible_{i}", family_thm2([2, 3]), X, Y, False
    X, Y = [Q(1, 2), 0, 0, Q(1, 3)], [Q(2, 3), 0, 0, 0, Q(5, 7), 0, 0, 0]
    yield "h4_rational_witness", h_type_clifford(4), [float(v) for v in X], [float(v) for v in Y], True


RECHECK_CASES = {name: case for name, *case in _recheck_cases()}


class TestIntegerRecheck:
    """The re-check builds integer rows and answers as the Fraction-row oracle does."""

    @pytest.mark.parametrize("name", list(RECHECK_CASES))
    def test_matches_fraction_rows(self, monkeypatch, name):
        L, X, Y, expected = RECHECK_CASES[name]
        split = split_two_step(L)
        assert L.is_exact and split.is_exact
        rows = []

        def spy(M):
            rows.extend(M)
            return lc.bareiss_pivots(M)

        monkeypatch.setattr(go_checker, "_bareiss_pivots", spy)
        verdict = gordon_refute_exact(split, X, Y)
        assert verdict is _fraction_refute_exact(L, split, X, Y) is expected
        assert rows and all(type(x) is int for row in rows for x in row)
        # one column per unknown (A, C) in so(n) + so(m), and the right-hand side
        n, m = split.n, split.m
        assert {len(row) for row in rows} == {n * (n - 1) // 2 + m * (m - 1) // 2 + 1}
        assert name != "h4_sweep_witness" or len(rows[0]) == 35


# ---------------------------------------------------------------------------
# the sample plan: one seeded block per certificate
# ---------------------------------------------------------------------------


def _per_sample_plan(config, dims):
    """Oracle: the plan drawn from one generator per random sample,
    default_rng((seed, i)), normalised vector by vector."""
    sweeps = [_sweep(k) for k in dims]
    combos = np.indices([len(s) for s in sweeps]).reshape(len(dims), -1)
    draws = [
        [v / np.linalg.norm(v) for v in map(np.random.default_rng((config.seed, i)).standard_normal, dims)]
        for i in range(config.samples)
    ]
    plan = tuple(
        np.vstack([s[c], np.reshape([t[f] for t in draws], (config.samples, k))])
        for f, (s, c, k) in enumerate(zip(sweeps, combos, dims))
    )
    return plan, combos.shape[1]


def _j_span(L):
    """The J-span of a two-step algebra, as ``nilgo tnc`` reads an algebra document."""
    split = split_two_step(L)
    return SkewOperatorSubspace(split.n, [np.array(G, dtype=float) for G in split_family(split).generators])


PLAN_DIMS = [(10,), (2, 8), (6, 8), (0, 4)]


class TestSamplePlan:
    @pytest.mark.parametrize("dims", PLAN_DIMS)
    def test_one_generator_per_plan(self, monkeypatch, dims):
        calls = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or real(*a))
        _sample_plan(SamplerConfig(seed=5, samples=200), dims)
        assert calls == [(5,)]

    def test_one_generator_per_certificate(self, monkeypatch):
        calls = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or real(*a))
        gordon_go_check(n10(2), config=SamplerConfig(seed=4, samples=50))
        kv_go_check(isometry_decomposition(n10(2)), SamplerConfig(seed=4, samples=50))
        tnc_check(vt_subspace(2), centralizer_in_so(vt_subspace(2)), SamplerConfig(seed=4, samples=50))
        assert calls == [(4,)] * 3

    @pytest.mark.parametrize("dims", PLAN_DIMS)
    def test_random_rows_are_unit_vectors(self, dims):
        plan, n_sweep = _sample_plan(SamplerConfig(seed=2, samples=200), dims)
        for f, k in zip(plan, dims):
            assert f.shape == (n_sweep + 200, k)
            if k:
                assert np.allclose(np.linalg.norm(f[n_sweep:], axis=1), 1.0, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("dims", PLAN_DIMS)
    def test_same_seed_same_plan(self, dims):
        a, _ = _sample_plan(SamplerConfig(seed=9, samples=40), dims)
        b, _ = _sample_plan(SamplerConfig(seed=9, samples=40), dims)
        c, n_sweep = _sample_plan(SamplerConfig(seed=10, samples=40), dims)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        assert not np.array_equal(np.hstack(a)[n_sweep:], np.hstack(c)[n_sweep:])

    @pytest.mark.parametrize("dims", PLAN_DIMS)
    @pytest.mark.parametrize("k", [0, 1, 17, 199])
    def test_fewer_samples_is_a_prefix(self, dims, k):
        full, n_sweep = _sample_plan(SamplerConfig(seed=1, samples=200), dims)
        part, n_part = _sample_plan(SamplerConfig(seed=1, samples=k), dims)
        assert n_part == n_sweep
        for f, p in zip(full, part):
            assert np.array_equal(p, f[: n_sweep + k])

    @pytest.mark.parametrize("dims", PLAN_DIMS)
    def test_sweep_rows_unchanged(self, dims):
        config = SamplerConfig(seed=3, samples=20)
        new, n_sweep = _sample_plan(config, dims)
        old, n_old = _per_sample_plan(config, dims)
        assert n_sweep == n_old
        for f, g in zip(new, old):
            assert f.shape == g.shape
            assert np.array_equal(f[:n_sweep], g[:n_sweep])


def _sweep_like(vector) -> bool:
    return set(vector) <= {0.0, 1.0}


def _same_verdict(new, old, exact=True):
    """Equal status, exact refutation (if ``exact``) and sweep witness; verified ones stay tight."""
    assert new.status == old.status
    if exact:
        assert new.exact_refutation == old.exact_refutation
    assert (new.witness is None) == (old.witness is None)
    if new.witness is not None:
        vectors = {k: v for k, v in new.witness.items() if k not in ("residual", "from_sweep")}
        # every refutation on this grid comes from the sweep, where the plans agree
        assert all(_sweep_like(v) for v in vectors.values())
        assert vectors == {k: v for k, v in old.witness.items() if k not in ("residual", "from_sweep")}
        assert new.witness.get("from_sweep", True) and old.witness.get("from_sweep", True)
    if new.verified:
        assert new.max_residual <= 1e-9 and old.max_residual <= 1e-9


H_TYPE_TABLE = [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]
GO_GRID = {
    **{f"h_type_clifford({m}, {c})": (lambda m=m, c=c: h_type_clifford(m, c)) for m, c in H_TYPE_TABLE},
    **{f"n10({t})": (lambda t=t: n10(t)) for t in (1, 2, 5)},
    "thm2 2,3": lambda: family_thm2([2, 3]),
    "thm2 2,3,5,7": lambda: family_thm2([2, 3, 5, 7]),
}


class TestBlockPlanAgainstPerSamplePlan:
    """The block plan reaches the verdicts of the per-sample plan it replaced."""

    CONFIG = SamplerConfig(seed=0, samples=200)

    def _both(self, monkeypatch, certify):
        import nilgo.go_checker as gc

        new = certify()
        monkeypatch.setattr(gc, "_sample_plan", _per_sample_plan)
        return new, certify()

    @pytest.mark.parametrize("name", sorted(GO_GRID))
    def test_gordon(self, monkeypatch, name):
        L = GO_GRID[name]()
        _same_verdict(*self._both(monkeypatch, lambda: gordon_go_check(L, config=self.CONFIG)))

    @pytest.mark.parametrize("name", sorted(GO_GRID))
    def test_kv(self, monkeypatch, name):
        decomp = isometry_decomposition(GO_GRID[name]())
        _same_verdict(*self._both(monkeypatch, lambda: kv_go_check(decomp, self.CONFIG)))

    @pytest.mark.parametrize("name", ["n10(2)", "thm2 2,3"])
    def test_tnc_centralizer(self, monkeypatch, name):
        V = _j_span(GO_GRID[name]())
        _same_verdict(*self._both(monkeypatch, lambda: tnc_check(V, centralizer_in_so(V), self.CONFIG)))


def _commutant_scaled_per_z(nprime, z, Z_mat):
    """Oracle: the commutant's projector with its round-off scale recomputed from N' for every Z."""
    N, Tz, _ = nprime
    K = (z @ Tz).reshape(len(N), -1).T
    kscale = max(np.linalg.norm(M) for M in N) * np.linalg.norm(Z_mat)
    K[np.abs(K) <= 1e-12 * kscale] = 0.0
    ns = np.reshape(lc.nullspace(K), (-1, len(N)))
    return ns.T @ ns


class TestTncScale:
    """The N' norm computed once per check gives the bytes of the per-Z scale."""

    CASES = {
        "centralizer vt(2)": lambda c: tnc_check(V := vt_subspace(2), centralizer_in_so(V), c),
        "centralizer thm2 2,3": lambda c: tnc_check(V := _j_span(family_thm2([2, 3])), centralizer_in_so(V), c),
        "centralizer clifford(4)": lambda c: tnc_check(V := _j_span(h_type_clifford(4, 1)), centralizer_in_so(V), c),
        "normalizer vt(2)": lambda c: tnc_check(vt_subspace(2), normalizer_in_so(vt_subspace(2)), c),
        "normalizer clifford(3)": lambda c: tnc_check(_j_span(h_type_clifford(3, 1)),
                                                      normalizer_in_so(_j_span(h_type_clifford(3, 1))), c),
        "self clifford(3)": lambda c: tnc_check(_j_span(h_type_clifford(3, 1)), _j_span(h_type_clifford(3, 1)), c),
        "resolve vt(2)": lambda c: normalizer_resolve_residual(vt_subspace(2), c),
        "resolve clifford(3)": lambda c: normalizer_resolve_residual(_j_span(h_type_clifford(3, 1)), c),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_byte_identical(self, monkeypatch, name):
        import nilgo.go_checker as gc

        config = SamplerConfig(seed=6, samples=40)

        def dump(result):
            return json.dumps(result if isinstance(result, float) else result.to_dict(), sort_keys=True)

        hoisted = dump(self.CASES[name](config))
        monkeypatch.setattr(gc, "_commutant", _commutant_scaled_per_z)
        assert hoisted == dump(self.CASES[name](config))

    def test_norm_of_nprime_once_per_check(self, monkeypatch):
        import nilgo.go_checker as gc

        calls = []
        real = gc._nprime
        monkeypatch.setattr(gc, "_nprime", lambda *a: calls.append(1) or real(*a))
        tnc_check(vt_subspace(2), centralizer_in_so(vt_subspace(2)), SamplerConfig(samples=30))
        normalizer_resolve_residual(vt_subspace(2), SamplerConfig(samples=30))
        assert len(calls) == 2


def _per_sample_commutant(N, Z_mat):
    """Oracle: the projector, on the coefficients over N, onto the commutant
    of Z inside span(N), from its own brackets [N_p, Z] cut at 1e-12 |N'| |Z|."""
    if not len(N):
        return np.eye(0)
    K = (N @ Z_mat - Z_mat @ N).reshape(len(N), -1).T
    K[np.abs(K) <= 1e-12 * max(np.linalg.norm(M) for M in N) * np.linalg.norm(Z_mat)] = 0.0
    ns = lc.nullspace(K)
    return ns.T @ ns


def _per_sample_tnc_system(V, nprime, cache, zc, Y):
    """Oracle: the TNC systems built sample by sample, with one commutant
    projector per distinct Z (kept in ``cache``), stacked into one system."""
    N = nprime[0]
    systems = []
    for z, y in zip(zc, Y):
        if z.tobytes() not in cache:
            Z_mat = V.element(z)
            cache[z.tobytes()] = Z_mat, _per_sample_commutant(N, Z_mat)
        Z_mat, proj = cache[z.tobytes()]
        b = Z_mat @ y
        systems.append(((N @ y).T @ proj, b, np.linalg.norm(b) + np.linalg.norm(Z_mat) * np.linalg.norm(y)))
    return tuple(np.array(part) for part in zip(*systems))


TNC_SPANS = {
    "vt(2)": lambda: vt_subspace(2),
    "thm2 2,3": lambda: _j_span(family_thm2([2, 3])),
    "clifford(3)": lambda: _j_span(h_type_clifford(3, 1)),
    "clifford(4)": lambda: _j_span(h_type_clifford(4, 1)),
    "zero": lambda: SkewOperatorSubspace(4, []),
    # its own normalizer, with commutants of dimension 4 at Z = E34 and 2 elsewhere
    "so(3)+so(2)": lambda: SkewOperatorSubspace(5, skew_basis(5)[[0, 1, 4, 9]]),
}
NPRIMES = {"centralizer": centralizer_in_so, "normalizer": normalizer_in_so, "self": lambda V: V}
# "self" only where V is a subalgebra (V normalizes itself); the centralizer
# span{E34} of so(3)+so(2) cannot transport its so(3) part
TNC_CASES = [
    (v, n) for v in TNC_SPANS for n in NPRIMES
    if (n != "self" or v in ("clifford(3)", "zero", "so(3)+so(2)")) and (v, n) != ("so(3)+so(2)", "centralizer")
]


class TestCentralizerWithoutDenseBrackets:
    @pytest.mark.parametrize("nprime", ["centralizer", "normalizer"])
    @pytest.mark.parametrize("span", [v for v in TNC_SPANS if v != "zero"])
    def test_no_skew_basis_tables(self, monkeypatch, span, nprime):
        # the centralizer and the normalizer of a nonzero span come from the
        # commutator system by index, with no (P, n, n) skew basis and no dense brackets
        V = TNC_SPANS[span]()
        expected = NPRIMES[nprime](V)

        def forbidden(*args):
            raise AssertionError("dense skew-basis path")

        monkeypatch.setattr(operator_subspaces, "skew_basis", forbidden)
        monkeypatch.setattr(operator_subspaces, "brackets", forbidden)
        assert NPRIMES[nprime](V).basis.tobytes() == expected.basis.tobytes()


class TestTncBlocksAgainstPerSample:
    """The stacked TNC systems give the certificate of the per-sample systems."""

    @pytest.mark.parametrize("chunk", [3, 7, 256])
    @pytest.mark.parametrize("span,nprime", TNC_CASES)
    def test_same_certificate(self, monkeypatch, span, nprime, chunk):
        V = TNC_SPANS[span]()
        N = NPRIMES[nprime](V)
        config = SamplerConfig(seed=2, samples=30)
        monkeypatch.setattr(go_checker, "CHUNK", chunk)
        new = tnc_check(V, N, config)
        monkeypatch.setattr(go_checker, "_tnc_system", _per_sample_tnc_system)
        old = tnc_check(V, N, config)
        assert new.status == old.status and new.exact_refutation == old.exact_refutation
        assert (span == "clifford(4)") == (new.status == "refuted")
        assert np.isclose(new.max_residual, old.max_residual, rtol=1e-12, atol=1e-15)
        if new.witness is not None:
            assert {k: new.witness[k] for k in ("Z", "Y")} == {k: old.witness[k] for k in ("Z", "Y")}
            assert np.isclose(new.witness["residual"], old.witness["residual"], rtol=1e-12)


def _dot_bound(terms, abs_exact):
    """Twice the rounding bound of a dot product of ``terms`` products of
    magnitude sum ``abs_exact``: two evaluation orders differ by at most this."""
    return 2 * terms * np.finfo(float).eps * abs_exact


class TestBlasBuilders:
    """The BLAS-built Gordon and KV systems are the einsum forms up to rounding."""

    CONFIG = SamplerConfig(seed=1, samples=40)

    @pytest.mark.parametrize("name", sorted(GO_GRID))
    def test_gordon_blocks(self, name):
        split = split_two_step(GO_GRID[name]())
        A, C = split_derivations(split)
        (X, Y), _ = _sample_plan(self.CONFIG, (split.m, split.n))
        M, b, _ = go_checker._gordon_system(split, (C, A), X, Y)
        J = split_family(split).generators
        m, n = split.m, split.n
        parts = [("pij,bj->bip", C, X, m), ("pij,bj->bip", A, Y, n)]
        M_ref = np.concatenate([np.einsum(f, P, Z) for f, P, Z, _ in parts], axis=1)
        M_tol = np.concatenate([_dot_bound(k, np.einsum(f, np.abs(P), np.abs(Z))) for f, P, Z, k in parts], axis=1)
        assert np.all(np.abs(M - M_ref) <= M_tol)
        JXY = np.einsum("bi,iac,bc->ba", X, J, Y)
        tol = _dot_bound(m * n, np.einsum("bi,iac,bc->ba", np.abs(X), np.abs(J), np.abs(Y)))
        assert np.all(b[:, :m] == 0.0) and np.all(np.abs(b[:, m:] - JXY) <= tol)

    @pytest.mark.parametrize("name", sorted(GO_GRID))
    def test_kv_system(self, name):
        ders = isometry_decomposition(GO_GRID[name]())
        L = ders.parent
        (X,), _ = _sample_plan(self.CONFIG, (L.dim,))
        A, b = go_checker._kv_system(ders, X)
        gx = X @ L.gram.T
        A_ref = np.einsum("hji,bj->bih", ders.basis, gx)
        assert np.all(np.abs(A - A_ref) <= _dot_bound(L.dim, np.einsum("hji,bj->bih", np.abs(ders.basis), np.abs(gx))))
        b_ref = -np.einsum("bkj,bk->bj", np.einsum("bi,ijk->bkj", X, L.structure), gx)
        b_tol = _dot_bound(L.dim**2, np.einsum("bi,ijk,bk->bj", np.abs(X), np.abs(L.structure), np.abs(gx)))
        assert np.all(np.abs(b - b_ref) <= b_tol)


def _unit_rows(X):
    norm = np.linalg.norm(X, axis=1, keepdims=True)
    return np.divide(X, norm, out=np.zeros_like(X), where=norm > 0)


def _assert_left_null(A, W):
    """W has orthonormal or zero columns, orthogonal to the columns of A."""
    gram = W.transpose(0, 2, 1) @ W
    unit = np.diagonal(gram, axis1=1, axis2=2)
    assert np.all((np.abs(unit - 1.0) <= 1e-13) | (unit == 0.0))
    assert np.all(np.abs(gram - unit[:, :, None] * np.eye(W.shape[2])) <= 1e-13)
    off = np.linalg.norm(W.transpose(0, 2, 1) @ A, axis=(1, 2))
    assert np.all(off <= 1e-13 * np.linalg.norm(A, axis=(1, 2)))


class TestStructuralLeftNull:
    """The sweep systems have structural left-null directions (so none has
    full row rank), and the mixed-column QR of
    :func:`linear_core.batch_residuals` still certifies nearly all of them."""

    CONFIG = SamplerConfig(seed=2, samples=40)

    @pytest.mark.parametrize("name", sorted(GO_GRID))
    def test_gordon(self, name):
        # C X and A Y are orthogonal to X and Y (C, A skew)
        split = split_two_step(GO_GRID[name]())
        A, C = split_derivations(split)
        (X, Y), _ = _sample_plan(self.CONFIG, (split.m, split.n))
        M, _, _ = go_checker._gordon_system(split, (C, A), X, Y)
        W = np.zeros((len(X), split.m + split.n, 2))
        W[:, :split.m, 0], W[:, split.m:, 1] = _unit_rows(X), _unit_rows(Y)
        _assert_left_null(M, W)

    @pytest.mark.parametrize("name", sorted(GO_GRID) + ["three_step"])
    def test_kv(self, name, three_step):
        # every derivation H is G-skew, so X is orthogonal to H^T G X; on a
        # two-step split H also preserves z and v, and so do both parts of X
        L = three_step if name == "three_step" else GO_GRID[name]()
        ders = isometry_decomposition(L)
        (X,), _ = _sample_plan(self.CONFIG, (L.dim,))
        A, _ = go_checker._kv_system(ders, X)
        if name == "three_step":
            W = _unit_rows(X)[:, :, None]
        else:
            z = split_two_step(L).z_basis
            Xz = X @ (z.T @ z @ L.gram).T
            w1 = _unit_rows(Xz)
            w2 = _unit_rows(X - Xz - np.einsum("bi,bi->b", w1, X - Xz)[:, None] * w1)
            W = np.stack([w1, w2], axis=2)
        _assert_left_null(A, W)

    @pytest.mark.parametrize("nprime", [centralizer_in_so, normalizer_in_so])
    @pytest.mark.parametrize("span", ["vt(2)", "clifford(4)"])
    def test_tnc(self, span, nprime):
        # every X is skew, so Y is orthogonal to X(Y)
        V = vt_subspace(2) if span == "vt(2)" else _j_span(h_type_clifford(4, 1))
        (zc, Y), _ = _sample_plan(self.CONFIG, (V.dim, V.ambient_dim))
        A, _, _ = go_checker._tnc_system(V, go_checker._nprime(nprime(V).basis, V), {}, zc, Y)
        assert len(A) == len(Y)
        _assert_left_null(A, _unit_rows(Y)[:, :, None])

    def test_random_samples_skip_the_svd(self, monkeypatch):
        # h_type_clifford(3, 1): every random Gordon and KV system is certified by its QR
        L = h_type_clifford(3, 1)
        split = split_two_step(L)
        ders = isometry_decomposition(L)
        A, C = split_derivations(split)
        svd_rows = []
        svd = lc.least_squares
        monkeypatch.setattr(lc, "least_squares", lambda A, b: svd_rows.append(len(A)) or svd(A, b))
        (X, Y), n_sweep = _sample_plan(self.CONFIG, (split.m, split.n))
        M, b, _ = go_checker._gordon_system(split, (C, A), X[n_sweep:], Y[n_sweep:])
        lc.batch_residuals(M, b)
        (X,), n_sweep = _sample_plan(self.CONFIG, (L.dim,))
        K, b = go_checker._kv_system(ders, X[n_sweep:])
        lc.batch_residuals(K, b)
        assert svd_rows == []

    # the random Gordon systems of these have column nullity 1, 1 and 3,
    # beyond any structural left-null direction
    LOW_RANK = {
        "h_type_clifford(5, 1)": lambda: h_type_clifford(5, 1),
        "h_type_clifford(4, 1)": lambda: h_type_clifford(4, 1),
        "n10(1), q": lambda: apply_center_metric(n10(1), [[2.0, 1.0], [1.0, 3.0]]),
    }

    @pytest.mark.parametrize("name", sorted(LOW_RANK))
    def test_whole_plans_rarely_reach_the_svd(self, monkeypatch, name):
        L = self.LOW_RANK[name]()
        split = split_two_step(L)
        ders = isometry_decomposition(L)
        A, C = split_derivations(split)
        svd_rows = []
        svd = lc.least_squares
        monkeypatch.setattr(lc, "least_squares", lambda A, b: svd_rows.append(len(A)) or svd(A, b))
        config = SamplerConfig(seed=3, samples=200)
        (X, Y), _ = _sample_plan(config, (split.m, split.n))
        (Z,), _ = _sample_plan(config, (L.dim,))
        for start in range(0, len(X), go_checker.CHUNK):
            part = slice(start, start + go_checker.CHUNK)
            M, b, _ = go_checker._gordon_system(split, (C, A), X[part], Y[part])
            lc.batch_residuals(M, b)
        for start in range(0, len(Z), go_checker.CHUNK):
            lc.batch_residuals(*go_checker._kv_system(ders, Z[start:start + go_checker.CHUNK]))
        assert sum(svd_rows) <= 0.05 * (len(X) + len(Z))


class TestTncRescaled:
    """A TNC certificate does not depend on the scale of V: the commutant
    cut is relative to |N'| |Z|, with no absolute floor."""

    SPANS = {
        "clifford(3)": lambda: _j_span(h_type_clifford(3, 1)),
        "clifford(3, 2)": lambda: _j_span(h_type_clifford(3, 2)),
        "quaternionic_heisenberg(2)": lambda: _j_span(quaternionic_heisenberg(2)),
    }

    @pytest.mark.parametrize("s", [1e-15, 1e-13, 1e-11, 1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("name", sorted(SPANS))
    def test_self_verified_at_every_scale(self, name, s):
        V = self.SPANS[name]()
        sV = SkewOperatorSubspace(V.ambient_dim, s * V.basis)
        cert = tnc_check(sV, sV, SamplerConfig(samples=50))
        assert cert.status == "verified_sampled"
        assert cert.max_residual <= 1e-12


class TestRankCut:
    """Residuals of refuted systems do not depend on round-off."""

    def test_tnc_residual_is_permutation_invariant(self):
        # the refuted TNC system of the normalizer on the J-span of clifford(4) at
        # Z = e1, Y = e1 + e5: three singular values 0.707 and three of round-off
        # (about 2.6e-15, 4.5e-16 and 1.3e-16) that no rank cut may count
        V = _j_span(h_type_clifford(4, 1))
        zc, Y = np.eye(4)[:1], (np.eye(8)[0] + np.eye(8)[4])[None]
        A, b, _ = go_checker._tnc_system(V, go_checker._nprime(normalizer_in_so(V).basis, V), {}, zc, Y)
        s = np.linalg.svd(A[0], compute_uv=False)
        assert np.allclose(s[:3], np.sqrt(0.5)) and np.all(s[3:] < 1e-13)
        ref = lc.batch_residuals(A, b)[0]
        assert ref > 0.1
        gen = np.random.default_rng(5)
        for _ in range(20):
            rows, cols = gen.permutation(A.shape[1]), gen.permutation(A.shape[2])
            assert abs(lc.batch_residuals(A[:, rows][:, :, cols], b[:, rows])[0] - ref) <= 1e-12
            assert abs(lc.least_squares(A[:, rows][:, :, cols], b[:, rows])[1][0] - ref) <= 1e-12


def _rotated(L, seed):
    """The float algebra L in a seeded random basis, orthonormal for L's Gram (L's Gram is the identity)."""
    P = np.linalg.qr(np.random.default_rng(seed).standard_normal((L.dim, L.dim)))[0]
    return make_algebra(np.einsum("ai,bj,abk,kl->ijl", P, P, L.structure, P), P.T @ L.gram @ P)


class TestScaleInvariance:
    """Gordon and KV certificates do not move when the Gram matrix or the
    brackets are scaled by s, nor under an orthonormal change of basis.
    The float copies drop the exact data, so exact_refutation may differ."""

    CONFIG = SamplerConfig(seed=0, samples=5)
    SCALES = (1e-15, 1e-5, 1e5, 1e15)

    def _check(self, L, variants):
        for certify in (
            lambda A: gordon_go_check(A, config=self.CONFIG),
            lambda A: kv_go_check(isometry_decomposition(A), self.CONFIG),
        ):
            unscaled = certify(L)
            for A in variants:
                cert = certify(A)
                _same_verdict(cert, unscaled, exact=False)
                assert not cert.verified or cert.max_residual <= 1e-13

    @pytest.mark.parametrize("name", sorted(GO_GRID))
    def test_rescaled_gram_and_brackets(self, name):
        L = GO_GRID[name]()
        self._check(L, [make_algebra(L.structure, s * L.gram) for s in self.SCALES]
                    + [make_algebra(s * L.structure, L.gram) for s in self.SCALES])

    def test_orthonormal_change_of_basis(self):
        self._check(n10(2), [_rotated(n10(2), 12)])
