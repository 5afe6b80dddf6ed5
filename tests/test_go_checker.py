from fractions import Fraction as Q

import numpy as np
import pytest

from nilgo import (
    MetricParameter,
    SamplerConfig,
    SkewOperatorSubspace,
    gordon_go_check,
    h_type_clifford,
    heisenberg,
    kv_go_check,
    kv_solve,
    n10,
    naturally_reductive_flag,
    riehm_predict,
    split_two_step,
    tnc_check,
)
from nilgo.errors import InputError, NotTwoStepError, PreconditionError
from nilgo.families import l_matrix, r_matrix, vt_subspace
from nilgo.go_checker import (
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
        assert L.structure_exact == n10(2).structure_exact

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
