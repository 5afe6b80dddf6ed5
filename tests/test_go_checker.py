import json
from fractions import Fraction as Q

import numpy as np
import pytest

from nilgo import (
    MetricParameter,
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
    naturally_reductive_flag,
    riehm_predict,
    split_two_step,
    tnc_check,
)
from nilgo import linear_core as lc
from nilgo.errors import InputError, NotTwoStepError, PreconditionError
from nilgo.families import algebra_from_jmaps, clifford_generators, family_thm2, l_matrix, r_matrix, vt_subspace
from nilgo.go_checker import (
    _sample_plan,
    _sweep,
    apply_center_metric,
    build_nilalgebra_from_subspace,
    center_shift,
    centralizer_type_check,
    common_eigenspace_check,
    commuting_triple_check,
    gordon_refute_exact,
    isometry_decomposition,
    normalizer_resolve_residual,
    semisimple_projection,
)
from nilgo.jmaps import split_family
from nilgo.operator_subspaces import centralizer_in_so, normalizer_in_so, subspaces_equal

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
        from nilgo.go_checker import ReductiveDecomposition

        decomp = ReductiveDecomposition(L.dim, [], L.structure, L.gram)
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
        assert set(doc["tolerances"]) == {"tau_feas", "tau_refute", "cond_limit", "tau_rank"}

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
        assert gordon_refute_exact(L, split, X, Y)

    def test_refute_exact_feasible_case(self):
        L = n10(2)
        split = split_two_step(L)
        assert not gordon_refute_exact(L, split, np.eye(2)[0], np.eye(8)[0])

    def test_rejects_three_step(self, three_step):
        with pytest.raises(NotTwoStepError):
            gordon_go_check(three_step, config=FAST)

    def test_rejects_flat_factor(self, heisenberg_plus_flat):
        with pytest.raises(PreconditionError):
            gordon_go_check(heisenberg_plus_flat, config=FAST)

    def test_metric_parameter(self):
        q = MetricParameter(np.array([[2.0, 0.5], [0.5, 1.0]]))
        cert = gordon_go_check(n10(2), metric=q, config=FAST)
        assert cert.status == "verified_sampled"
        assert cert.max_residual <= 1e-9

    def test_restrict_to_centralizer_still_verifies(self):
        from nilgo.families import centralizer_basis_n10

        cert = gordon_go_check(n10(2), restrict_to=centralizer_basis_n10(), config=FAST)
        assert cert.status == "verified_sampled"

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
        from nilgo.go_checker import ReductiveDecomposition

        L = h_type_clifford(4, 1)
        cert = kv_go_check(ReductiveDecomposition(L.dim, [], L.structure, L.gram), FAST)
        e = np.eye(12)
        assert cert.witness["X"] == list(e[0] + e[4])

    def test_tnc_witness_is_first_sweep_pair(self):
        V = vt_subspace(2)
        cert = tnc_check(V, SkewOperatorSubspace(8, [centralizer_in_so(V).basis[0]]), FAST)
        assert cert.witness["Z"] == [1.0, 0.0]
        assert cert.witness["Y"] == list(np.eye(8)[0])

    @pytest.mark.parametrize("criterion", ["gordon", "kv"])
    def test_ill_conditioned_residual_is_inconclusive(self, criterion):
        L = h_type_clifford(4, 1)
        config = SamplerConfig(samples=5, cond_limit=1.0)
        if criterion == "gordon":
            cert = gordon_go_check(L, config=config)
        else:
            cert = kv_go_check(isometry_decomposition(L), config)
        assert cert.status == "inconclusive"
        assert cert.witness is None
        assert cert.max_residual > config.tau_refute

    def test_negative_samples_rejected(self):
        with pytest.raises(InputError):
            SamplerConfig(samples=-1)
        assert SamplerConfig(samples=0).samples == 0


class TestMetric:
    def test_apply_center_metric_gram(self):
        q = MetricParameter(np.array([[2.0, 1.0], [1.0, 3.0]]))
        L2 = apply_center_metric(n10(2), q)
        split = split_two_step(L2)
        zg = split.z_basis @ L2.gram @ split.z_basis.T
        assert np.allclose(zg, np.eye(2))
        assert np.allclose(L2.gram[:2, :2], q.q)
        assert np.allclose(L2.gram[2:, 2:], np.eye(8))

    def test_rejects_non_spd(self):
        with pytest.raises(InputError):
            MetricParameter(np.array([[1.0, 2.0], [2.0, 1.0]]))


class TestTnc:
    def test_centralizer_type_vt(self):
        for t in (2, 5):
            cert = centralizer_type_check(vt_subspace(t), FAST)
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

    def test_resolve_residual_lands_in_centralizer(self):
        assert normalizer_resolve_residual(vt_subspace(2), FAST) <= 1e-9


class TestNaturallyReductive:
    def test_vt_false(self):
        assert not naturally_reductive_flag(vt_subspace(2))
        assert not naturally_reductive_flag(vt_subspace(5))

    def test_one_dimensional_true(self):
        assert naturally_reductive_flag(SkewOperatorSubspace(4, [l_matrix(2, 1, 0)]))

    def test_l_copy_true(self):
        V = SkewOperatorSubspace(4, [l_matrix(*e) for e in np.eye(3)])
        assert naturally_reductive_flag(V)


class TestStructureOps:
    def test_build_from_subspace_round_trip(self):
        from nilgo.families import vt_generators

        L = build_nilalgebra_from_subspace(vt_generators(2))
        assert L.is_exact
        assert np.array_equal(L.structure_exact[0], n10(2).structure_exact[0])
        assert L.structure_exact[1] == n10(2).structure_exact[1]

    def test_semisimple_projection_of_subalgebra_center(self):
        # center element projects to zero, so(3) part projects to itself
        mats = [l_matrix(*e) for e in np.eye(3)]
        V = SkewOperatorSubspace(4, [mats[0] + r_matrix(1, 0, 0), mats[1]])
        S = semisimple_projection(V)
        expected = SkewOperatorSubspace(4, [mats[0], mats[1]])
        assert subspaces_equal(S, expected)

    @staticmethod
    def _so3_on_r4_plus_r2():
        # so(3) acting on the first R^4, trivial on an extra R^2; the
        # centralizer then has an so(2) center on the trivial block
        mats = []
        for e in np.eye(3):
            M = np.zeros((6, 6))
            M[:4, :4] = l_matrix(*e)
            mats.append(M)
        return SkewOperatorSubspace(6, mats)

    def test_center_shift(self):
        V = self._so3_on_r4_plus_r2()
        rot = np.zeros((6, 6))
        rot[4, 5], rot[5, 4] = 1.0, -1.0
        shifted = center_shift(V, [rot, np.zeros((6, 6)), np.zeros((6, 6))])
        assert shifted.dim == 3
        assert np.allclose(shifted.projector() @ (V.basis[0] + rot).ravel(), (V.basis[0] + rot).ravel())

    def test_center_shift_rejects_bad_image(self):
        V = self._so3_on_r4_plus_r2()
        psi = [V.basis[0], np.zeros((6, 6)), np.zeros((6, 6))]
        with pytest.raises((InputError, PreconditionError)):
            center_shift(V, psi)


class TestSpectralLemmas:
    def test_common_eigenspace_equal_operators(self):
        U = np.kron(np.eye(2), l_matrix(1, 0, 0))
        rep = common_eigenspace_check(U, U, Z=np.eye(8)[0])
        assert rep.subspace_dim == 8
        assert rep.passed

    def test_common_eigenspace_component_split(self):
        U = np.zeros((4, 4))
        U[0, 1], U[1, 0], U[2, 3], U[3, 2] = 1.0, -1.0, 2.0, -2.0
        rep = common_eigenspace_check(U, U, Z=np.array([1.0, 0.0, 1.0, 0.0]))
        assert rep.subspace_dim == 4
        assert len(rep.components) == 2
        assert rep.passed

    def test_common_eigenspace_needs_commuting(self):
        with pytest.raises(PreconditionError):
            common_eigenspace_check(l_matrix(1, 0, 0), l_matrix(0, 1, 0))

    def test_commuting_triple_true(self):
        U = np.zeros((6, 6))
        U[0, 1], U[1, 0], U[2, 3], U[3, 2], U[4, 5], U[5, 4] = 1, -1, 2, -2, 3, -3
        V = np.zeros((6, 6))
        V[0, 1], V[1, 0] = 5, -5
        W = np.zeros((6, 6))
        W[2, 3], W[3, 2] = 1, -1
        assert commuting_triple_check(U, V, W)

    def test_commuting_triple_spectrum_precondition(self):
        U = np.kron(np.eye(2), l_matrix(1, 0, 0))  # repeated eigenvalue pair
        Z = np.zeros((8, 8))
        with pytest.raises(PreconditionError):
            commuting_triple_check(U, Z, Z)


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
        "tnc refuted": lambda c: centralizer_type_check(SkewOperatorSubspace(
            8, [np.array(G, dtype=float) for G in clifford_generators(4)]), c),
        "tnc verified": lambda c: centralizer_type_check(vt_subspace(2), c),
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

    def test_tnc_commutant_once_per_distinct_z(self, monkeypatch):
        import nilgo.go_checker as gc

        calls = []
        original = gc._commutant

        def counting(nprime_mats, Z_mat, tau_rank):
            calls.append(Z_mat.tobytes())
            return original(nprime_mats, Z_mat, tau_rank)

        monkeypatch.setattr(gc, "_commutant", counting)
        monkeypatch.setattr(gc, "CHUNK", 7)  # sweep runs of one Z cross chunk boundaries
        centralizer_type_check(vt_subspace(2), SamplerConfig(samples=10))
        assert len(calls) == len(set(calls)) == 3 + 10  # e_1, e_2, e_1 + e_2, then one per random sample


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
            lambda: centralizer_type_check(_huge_subspace(), FAST),
        ],
        ids=["gordon", "kv", "tnc_self", "tnc_centralizer"],
    )
    def test_overflow_raises_input_error(self, call):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InputError, match="finite"):
            call()


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
        assert gordon_refute_exact(L, split_two_step(L), cert.witness["X"], cert.witness["Y"])

    def test_feasible_sweep_pair_not_refuted(self):
        L = _h_type_over_3()
        assert not gordon_refute_exact(L, split_two_step(L), np.eye(4)[0], np.eye(8)[0])

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
            verdicts.append([gordon_refute_exact(L, split, [1.0], Y) for Y in [*np.eye(4), np.ones(4)]])
        assert verdicts[0] == verdicts[1]


# ---------------------------------------------------------------------------
# the sample plan: one seeded block per certificate
# ---------------------------------------------------------------------------


def _per_sample_plan(config, dims, sums=True):
    """Oracle: the plan drawn from one generator per random sample,
    default_rng((seed, i)), normalised vector by vector."""
    sweeps = [_sweep(k, sums) for k in dims]
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
        centralizer_type_check(vt_subspace(2), SamplerConfig(seed=4, samples=50))
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
    @pytest.mark.parametrize("sums", [True, False])
    def test_sweep_rows_unchanged(self, dims, sums):
        config = SamplerConfig(seed=3, samples=20)
        new, n_sweep = _sample_plan(config, dims, sums)
        old, n_old = _per_sample_plan(config, dims, sums)
        assert n_sweep == n_old
        for f, g in zip(new, old):
            assert f.shape == g.shape
            assert np.array_equal(f[:n_sweep], g[:n_sweep])


def _sweep_like(vector) -> bool:
    return set(vector) <= {0.0, 1.0}


def _same_verdict(new, old):
    """Equal status, exact refutation and sweep witness; verified ones stay tight."""
    assert new.status == old.status
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
        _same_verdict(*self._both(monkeypatch, lambda: centralizer_type_check(V, self.CONFIG)))


def _commutant_scaled_per_z(nprime, Z_mat, tau_rank):
    """Oracle: the commutant with its round-off scale recomputed from N' for every Z."""
    N = nprime[0]
    if not len(N):
        return N
    K = (N @ Z_mat - Z_mat @ N).reshape(len(N), -1).T
    kscale = max(np.linalg.norm(M) for M in N) * np.linalg.norm(Z_mat)
    K[np.abs(K) <= 1e-12 * max(kscale, 1.0)] = 0.0
    return np.tensordot(np.reshape(lc.nullspace(K, tau_rank), (-1, len(N))), N, 1)


class TestTncScale:
    """The N' norm computed once per check gives the bytes of the per-Z scale."""

    CASES = {
        "centralizer vt(2)": lambda c: centralizer_type_check(vt_subspace(2), c),
        "centralizer thm2 2,3": lambda c: centralizer_type_check(_j_span(family_thm2([2, 3])), c),
        "centralizer clifford(4)": lambda c: centralizer_type_check(_j_span(h_type_clifford(4, 1)), c),
        "normalizer vt(2)": lambda c: tnc_check(vt_subspace(2), normalizer_in_so(vt_subspace(2)), c),
        "resolve vt(2)": lambda c: normalizer_resolve_residual(vt_subspace(2), c),
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
        centralizer_type_check(vt_subspace(2), SamplerConfig(samples=30))
        normalizer_resolve_residual(vt_subspace(2), SamplerConfig(samples=30))
        assert len(calls) == 2
