import numpy as np
import pytest
from conftest import change_basis
from scipy import linalg as sla

from nilgo import (
    MetricParameter,
    compare_geodesic_orbit,
    geodesic_integrate,
    group_mult,
    h_type_clifford,
    heisenberg,
    kv_solve,
    n10,
    orbit_integrate,
)
from nilgo import geodesics
from nilgo.errors import InputError, PreconditionError
from nilgo.geodesics import _bracket_tensor, _euler_arnold_tensor, connection, expm
from nilgo.go_checker import apply_center_metric, isometry_decomposition
from nilgo.operator_subspaces import skew_derivations

# a non-identity Gram and a non-GO metric
KERNEL_ALGEBRAS = {
    "n10_center_metric": lambda: apply_center_metric(n10(2), MetricParameter(np.array([[2.0, 0.5], [0.5, 1.0]]))),
    "h_type_clifford_4": lambda: h_type_clifford(4),
}


class TestExpm:
    # norms below the approximant's range, then two that need squaring
    @pytest.mark.parametrize("norm", [1e-9, 1e-3, 0.2, 0.9, 2.0, 5.0, 40.0])
    def test_matches_scipy(self, norm, rng):
        for n in (1, 2, 10, 12):
            A = rng.standard_normal((n, n))
            for M in (A, A - A.T) if n > 1 else (A,):  # a 1 x 1 skew matrix is 0
                M = M * (norm / np.linalg.norm(M, 1))
                ref = sla.expm(M)
                assert np.max(np.abs(expm(M) - ref)) <= 1e-11 * max(1.0, np.max(np.abs(ref)))

    def test_skew_input_gives_orthogonal_output(self, rng):
        A = rng.standard_normal((10, 10)) * 1e-3
        R = expm(A - A.T)
        assert np.max(np.abs(R.T @ R - np.eye(10))) <= 1e-15

    def test_edge_inputs(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
        assert np.all(np.isnan(expm(np.full((2, 2), np.inf))))


class TestGroupMult:
    def test_heisenberg_commutator(self):
        L = heisenberg(1)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        ab = group_mult(L, a, b)
        ba = group_mult(L, b, a)
        assert np.allclose(ab, [1.0, 1.0, 0.5])
        assert np.allclose(ab - ba, [0.0, 0.0, 1.0])

    def test_associativity(self, rng):
        L = n10(2)
        for _ in range(5):
            a, b, c = (rng.standard_normal(10) for _ in range(3))
            lhs = group_mult(L, group_mult(L, a, b), c)
            rhs = group_mult(L, a, group_mult(L, b, c))
            assert np.allclose(lhs, rhs)

    def test_inverse_is_negative(self, rng):
        L = heisenberg(2)
        a = rng.standard_normal(5)
        assert np.allclose(group_mult(L, a, -a), 0.0)

    def test_rejects_three_step(self, three_step):
        with pytest.raises(PreconditionError):
            group_mult(three_step, np.zeros(5), np.zeros(5))


class TestConnection:
    def test_heisenberg_values(self):
        L = heisenberg(1)
        e1, e2, e3 = np.eye(3)
        assert np.allclose(connection(L, e1, e2), 0.5 * e3)
        assert np.allclose(connection(L, e2, e1), -0.5 * e3)
        assert np.allclose(connection(L, e1, e3), -0.5 * e2)

    def test_metric_compatibility(self, rng):
        L = n10(2)
        for _ in range(5):
            X, Y = rng.standard_normal(10), rng.standard_normal(10)
            # (nabla_X Y, Y) = 0 guarantees geodesics preserve speed
            assert abs(L.inner(connection(L, Y, Y), Y)) < 1e-10

    def test_torsion_free(self, rng):
        L = heisenberg(1)
        X, Y = rng.standard_normal(3), rng.standard_normal(3)
        diff = connection(L, X, Y) - connection(L, Y, X)
        assert np.allclose(diff, L.bracket(X, Y))


class TestGeodesicIntegrate:
    def test_speed_conservation(self, rng):
        L = n10(2)
        X0 = rng.standard_normal(10)
        traj = geodesic_integrate(L, X0, 1.0, 0.01)
        speeds = np.einsum("ti,ij,tj->t", traj.velocities, L.gram, traj.velocities)
        assert np.allclose(speeds, speeds[0], atol=1e-10)

    def test_central_direction_is_straight(self):
        L = heisenberg(1)
        X0 = np.array([0.0, 0.0, 1.0])
        traj = geodesic_integrate(L, X0, 1.0, 0.01)
        assert np.allclose(traj.positions[-1], [0.0, 0.0, 1.0], atol=1e-10)

    def test_fourth_order_convergence(self):
        L = n10(2)
        rng = np.random.default_rng(0)
        X0 = rng.standard_normal(10)
        X0 /= np.linalg.norm(X0)
        fine = geodesic_integrate(L, X0, 1.0, 1e-4).positions[-1]
        e1 = np.linalg.norm(geodesic_integrate(L, X0, 1.0, 0.05).positions[-1] - fine)
        e2 = np.linalg.norm(geodesic_integrate(L, X0, 1.0, 0.025).positions[-1] - fine)
        assert e1 / e2 > 12.0

    def test_accepts_horizon_a_rounded_multiple(self):
        # 0.5 / 1e-3 is 500.00000000000006 in floating point
        traj = geodesic_integrate(heisenberg(1), np.ones(3), 0.5, 1e-3)
        assert len(traj.times) == 501

    def test_rejects_bad_step(self):
        with pytest.raises(InputError):
            geodesic_integrate(heisenberg(1), np.zeros(3), 1.0, 0.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(InputError):
            geodesic_integrate(heisenberg(1), np.zeros(4), 1.0, 0.1)


class TestOrbitIntegrate:
    def test_rejects_non_derivation(self):
        L = heisenberg(1)
        D = np.zeros((3, 3))
        D[0, 1], D[1, 0] = 1.0, -1.0
        D[0, 2], D[2, 0] = 1.0, -1.0  # mixes v and z, not a derivation
        with pytest.raises(PreconditionError):
            orbit_integrate(L, np.ones(3), D, 1.0, 0.1)

    def test_zero_derivation_gives_one_parameter_line(self):
        L = heisenberg(1)
        X0 = np.array([0.0, 0.0, 2.0])
        traj = orbit_integrate(L, X0, np.zeros((3, 3)), 1.0, 0.01)
        assert np.allclose(traj.positions[-1], [0.0, 0.0, 2.0], atol=1e-12)


class TestCompare:
    def test_go_metric_matches(self, rng):
        L = n10(2)
        X0 = rng.standard_normal(10)
        X0 /= np.linalg.norm(X0)
        cmp = compare_geodesic_orbit(L, X0, T=1.0, h=1e-2)
        assert cmp.sup_deviation <= 1e-8
        assert cmp.kv_residual <= 1e-9

    def test_deviation_series_shape(self):
        L = heisenberg(1)
        cmp = compare_geodesic_orbit(L, np.array([1.0, 1.0, 1.0]), T=0.5, h=0.05)
        assert len(cmp.times) == len(cmp.deviations) == 11
        assert cmp.deviations[0] == 0.0


def _reference_rate(L, v):
    # Euler-Arnold: (dv/dt, e_j) = ([v, e_j], v) for every basis vector
    r = np.array([L.inner(L.bracket(v, e), v) for e in np.eye(L.dim)])
    return np.linalg.solve(L.gram, r)


class TestKernels:
    @pytest.mark.parametrize("name", sorted(KERNEL_ALGEBRAS))
    def test_tensors_match_reference_formulas(self, name, rng):
        L = KERNEL_ALGEBRAS[name]()
        Q, C = _euler_arnold_tensor(L), _bracket_tensor(L)
        for _ in range(5):
            x, v = rng.standard_normal(L.dim), rng.standard_normal(L.dim)
            assert np.max(np.abs(Q @ np.kron(v, v) - _reference_rate(L, v))) <= 1e-12
            assert np.max(np.abs(C @ np.kron(x, v) - L.bracket(x, v))) <= 1e-12

    @pytest.mark.parametrize("name", sorted(KERNEL_ALGEBRAS))
    def test_orbit_velocities_match_matrix_exponential(self, name, rng):
        L = KERNEL_ALGEBRAS[name]()
        X0 = rng.standard_normal(L.dim)
        X0 /= np.linalg.norm(X0)
        decomp = isometry_decomposition(L)
        coeffs, _ = kv_solve(decomp, X0)
        D = sum(c * H for c, H in zip(coeffs, decomp.h_basis))
        traj = orbit_integrate(L, X0, D, 1.0, 2e-3)
        reference = np.array([sla.expm(t * D) @ X0 for t in traj.times])
        assert np.max(np.abs(traj.velocities - reference)) <= 1e-12


class TestGates:
    def test_integrators_reject_three_step(self, three_step):
        X0 = np.eye(5)[0]
        with pytest.raises(PreconditionError):
            geodesic_integrate(three_step, X0, 1.0, 0.1)
        with pytest.raises(PreconditionError):
            orbit_integrate(three_step, X0, np.zeros((5, 5)), 1.0, 0.1)

    @pytest.mark.parametrize("T,h", [(1.0, np.inf), (np.nan, 0.1), (np.inf, 0.1), (0.04, 0.1)])
    def test_integrators_reject_schedule_without_steps(self, T, h):
        L, X0 = heisenberg(1), np.ones(3)
        with pytest.raises(InputError):
            geodesic_integrate(L, X0, T, h)
        with pytest.raises(InputError):
            orbit_integrate(L, X0, np.zeros((3, 3)), T, h)

    @pytest.mark.parametrize("T", [1.0, 1e300], ids=["finite_ratio", "infinite_ratio"])
    def test_integrators_reject_too_many_steps(self, T):
        L, X0 = heisenberg(1), np.ones(3)
        for call in (
            lambda: geodesic_integrate(L, X0, T, 1e-300),
            lambda: orbit_integrate(L, X0, np.zeros((3, 3)), T, 1e-300),
            lambda: compare_geodesic_orbit(L, X0, T=T, h=1e-300),
        ):
            with pytest.raises(InputError, match="steps"):
                call()

    def test_integrators_reject_horizon_not_whole_steps(self):
        # round(1.0 / 0.4) = 2 steps would stop at t = 0.8
        L, X0 = heisenberg(1), np.ones(3)
        for call in (
            lambda: geodesic_integrate(L, X0, 1.0, 0.4),
            lambda: orbit_integrate(L, X0, np.zeros((3, 3)), 1.0, 0.4),
            lambda: compare_geodesic_orbit(L, X0, T=1.0, h=0.4),
        ):
            with pytest.raises(InputError, match="whole number of steps"):
                call()

    def test_compare_rejects_wrong_length(self):
        with pytest.raises(InputError):
            compare_geodesic_orbit(heisenberg(1), np.ones(2), T=0.5, h=0.1)

    def test_compare_rejects_non_finite_deviation(self):
        with pytest.raises(InputError, match="not finite"):
            compare_geodesic_orbit(heisenberg(1), np.full(3, 1e200), T=0.5, h=0.1)


def _reference_geodesic(L, X0, T, h):
    """The per-step RK4 loop on the state (x, v) that the collapsed integrator replaces."""
    d, steps = L.dim, int(round(T / h))
    K = np.zeros((2 * d, 2 * d * d))
    K[:d, : d * d] = -0.5 * _bracket_tensor(L)
    K[d:, d * d:] = _euler_arnold_tensor(L)

    def rate(state):
        out = K @ np.outer(state, state[d:]).ravel()
        out[:d] += state[d:]
        return out

    state = np.concatenate([np.zeros(d), X0])
    out = [state]
    for _ in range(steps):
        k1 = rate(state)
        k2 = rate(state + 0.5 * h * k1)
        k3 = rate(state + 0.5 * h * k2)
        k4 = rate(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(state)
    out = np.array(out)
    return out[:, :d], out[:, d:]


def _reference_orbit(L, X0, D, T, h):
    """The per-step RK4 loop for the positions of the orbit with velocity exp(tD) X0."""
    steps = int(round(T / h))
    half = sla.expm(0.5 * h * D)
    vel = [X0]
    for _ in range(2 * steps):
        vel.append(half @ vel[-1])
    C = -0.5 * _bracket_tensor(L)

    def xrate(x, v):
        return v + C @ np.outer(x, v).ravel()

    x, pos = np.zeros(L.dim), [np.zeros(L.dim)]
    for i in range(steps):
        v0, vm, v1 = vel[2 * i], vel[2 * i + 1], vel[2 * i + 2]
        k1 = xrate(x, v0)
        k2 = xrate(x + 0.5 * h * k1, vm)
        k3 = xrate(x + 0.5 * h * k2, vm)
        k4 = xrate(x + h * k3, v1)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        pos.append(x)
    return np.array(pos), np.array(vel[::2])


def _rebased(L, P):
    # the copy in the basis P with the Gram that makes it isometric to L
    P = np.array(P, dtype=int)
    return change_basis(L, P, P @ P.T)


def _rebased_h_type():
    P = np.eye(12, dtype=int)
    P[0, 4], P[3, 9], P[7, 2] = 1, -2, 1
    return _rebased(h_type_clifford(4), P)


# class 2 in a non-orthonormal basis, with a flat factor, and abelian
ORACLE_ALGEBRAS = {
    "n10_center_metric": KERNEL_ALGEBRAS["n10_center_metric"],
    "n10_rebased": lambda: _rebased(n10(2), np.eye(10, dtype=int) + np.eye(10, k=1, dtype=int)),
    "h_type_clifford_4_rebased": _rebased_h_type,
    "heisenberg_2_rebased": lambda: _rebased(heisenberg(2), [[1, 0, 0, 0, 0], [2, 1, 0, 0, 0], [0, 1, 1, 0, 0],
                                                             [0, 0, -1, 1, 1], [1, 0, 0, 0, 1]]),
    "heisenberg_plus_flat": "heisenberg_plus_flat",
    "abelian": "abelian",
}


def _relative_gap(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


class TestCollapsedRK4:
    """The blocked cumulative-sum integrators against the per-step RK4 loops."""

    @pytest.fixture(params=sorted(ORACLE_ALGEBRAS))
    def case(self, request, rng):
        make = ORACLE_ALGEBRAS[request.param]
        L = request.getfixturevalue(make) if isinstance(make, str) else make()
        X0 = rng.standard_normal(L.dim)
        # a random skew derivation, so the orbit is an isometry orbit but not a geodesic
        D = sum(rng.standard_normal() * H for H in skew_derivations(L).basis)
        return L, X0 / np.linalg.norm(X0), D

    def test_geodesic_matches_reference_loop(self, case):
        L, X0, _ = case
        traj = geodesic_integrate(L, X0, 0.5, 2e-3)
        pos, vel = _reference_geodesic(L, X0, 0.5, 2e-3)
        assert _relative_gap(traj.positions, pos) <= 1e-12
        assert _relative_gap(traj.velocities, vel) <= 1e-12

    def test_orbit_matches_reference_loop(self, case):
        L, X0, D = case
        traj = orbit_integrate(L, X0, D, 0.5, 2e-3)
        pos, vel = _reference_orbit(L, X0, D, 0.5, 2e-3)
        assert _relative_gap(traj.positions, pos) <= 1e-12
        assert _relative_gap(traj.velocities, vel) <= 1e-12

    def test_block_size_does_not_change_the_result(self, monkeypatch, rng):
        L = KERNEL_ALGEBRAS["n10_center_metric"]()
        X0 = rng.standard_normal(L.dim)
        D = sum(rng.standard_normal() * H for H in skew_derivations(L).basis)
        default = geodesic_integrate(L, X0, 0.5, 0.01), orbit_integrate(L, X0, D, 0.5, 0.01)
        monkeypatch.setattr(geodesics, "BLOCK", 7)  # 50 steps: seven full blocks and one of one step
        blocked = geodesic_integrate(L, X0, 0.5, 0.01), orbit_integrate(L, X0, D, 0.5, 0.01)
        assert len(default[0].times) - 1 > 3 * geodesics.BLOCK
        for a, b in zip(blocked, default):
            assert _relative_gap(a.positions, b.positions) <= 1e-12
            assert _relative_gap(a.velocities, b.velocities) <= 1e-12
