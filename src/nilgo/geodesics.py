"""Numerical geodesics on nilpotent Lie groups in exponential coordinates.

The geodesic equation splits into the Euler-Arnold equation for the
body velocity and a kinematic reconstruction for the position; a
geodesic-orbit certificate is validated by comparing the integrated
geodesic with the one-parameter isometry orbit exp(tD) X0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import MetricLieAlgebra, nilpotency_class, require_spd
from .errors import InputError, PreconditionError
from .go_checker import isometry_decomposition, kv_solve
from .operator_subspaces import derivation_defect

# the largest number of RK4 steps one integration may take
MAX_STEPS = 10**6
# RK4 steps per block of the position sums: bounds the (block, pairs) bracket temporaries
BLOCK = 256

# the [13/13] Pade approximant of exp and the largest 1-norm at which it is
# accurate to double precision (Higham 2005, SIAM J. Matrix Anal. Appl. 26)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """Matrix exponential by scaling and squaring of the [13/13] Pade approximant.

    numpy only: its small solve is single-threaded, so no BLAS worker
    thread is woken once per orbit.  A non-finite input gives NaNs.
    """
    A = np.asarray(A, dtype=float)
    norm = float(np.linalg.norm(A, 1))
    if not np.isfinite(norm):
        return np.full(A.shape, np.nan)
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    A = A / 2.0**s
    # even powers I, A^2, ..., A^12; U collects the odd terms, V the even ones
    powers = [np.eye(len(A)), A @ A]
    for _ in range(5):
        powers.append(powers[-1] @ powers[1])
    U = A @ sum(c * P for c, P in zip(_PADE13[1::2], powers))
    V = sum(c * P for c, P in zip(_PADE13[::2], powers))
    # (V - U)^-1 (V + U) as I + 2 (V - U)^-1 U, which rounds once near the identity
    R = powers[0] + 2.0 * np.linalg.solve(V - U, U)
    for _ in range(s):
        R = R @ R
    return R


def group_mult(L: MetricLieAlgebra, a, b) -> np.ndarray:
    """Baker-Campbell-Hausdorff product in exponential coordinates.

    Exact for nilpotency class at most 2, where the series truncates.
    """
    if nilpotency_class(L) > 2:
        raise PreconditionError("closed-form product needs nilpotency class <= 2")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a + b + 0.5 * L.bracket(a, b)


def _bracket_tensor(L: MetricLieAlgebra) -> np.ndarray:
    """C with [x, y] = C @ kron(x, y)."""
    d = L.dim
    return L.structure.reshape(d * d, d).T


def _support_bracket(L: MetricLieAlgebra):
    """``bracket(x, y)``: the rows [x_r, y_r] of two (rows, d) stacks.

    Only the pairs (i, j) with a nonzero column i d + j of the bracket
    tensor are multiplied, and only into the coordinates they reach; every
    other product x_i y_j meets zeros of the tensor.
    """
    d = L.dim
    C = _bracket_tensor(L)
    pairs, reached = np.flatnonzero(C.any(axis=0)), np.flatnonzero(C.any(axis=1))
    I, J = np.divmod(pairs, d)
    C_support = C[np.ix_(reached, pairs)].T

    def bracket(x, y):
        out = np.zeros((len(x), d))
        out[:, reached] = (x[:, I] * y[:, J]) @ C_support
        return out

    return bracket


def _euler_arnold_tensor(L: MetricLieAlgebra) -> np.ndarray:
    """Q with v' = Q @ kron(v, v), the Euler-Arnold equation (v', w) = ([v, w], v) for all w."""
    d = L.dim
    # Q[m, i, k] = sum_j G^-1[m, j] (c G)[i, j, k], as two BLAS products
    cG = (L.structure @ L.gram).transpose(1, 0, 2).reshape(d, d * d)
    return np.linalg.inv(L.gram) @ cG


def _schedule(L: MetricLieAlgebra, X0, T: float, h: float) -> tuple[np.ndarray, int]:
    """The initial velocity as an array and the number of RK4 steps."""
    if not (np.isfinite(h) and np.isfinite(T) and h > 0 and T > 0):
        raise InputError("need finite positive step and horizon")
    if T / h > MAX_STEPS:
        raise InputError(f"horizon {T} at step {h} needs more than {MAX_STEPS} steps")
    steps = int(round(T / h))
    if steps < 1:
        raise InputError(f"horizon {T} is shorter than half a step {h}")
    if abs(T / h - steps) > 1e-9 * steps:
        raise InputError(f"horizon {T} is not a whole number of steps {h}")
    X0 = np.asarray(X0, dtype=float)
    if X0.shape != (L.dim,):
        raise InputError(f"initial velocity has {X0.size} entries, need {L.dim}")
    if not np.all(np.isfinite(X0)):
        raise InputError("initial velocity has non-finite entries")
    return X0, steps


def _require_metric_two_step(L: MetricLieAlgebra) -> None:
    # the kinematics x' = v - [x, v] / 2 in exponential coordinates are
    # exact only for nilpotency class at most 2
    require_spd(L.gram, "gram matrix")
    if nilpotency_class(L) > 2:
        raise PreconditionError("geodesic kinematics need nilpotency class <= 2")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    positions: np.ndarray  # (steps + 1, d) exponential coordinates
    velocities: np.ndarray  # body velocities, same shape


def _powers(M: np.ndarray, x0: np.ndarray, count: int) -> np.ndarray:
    """Rows x0, M x0, ..., M^(count - 1) x0 by block doubling: rows [k, 2k) are rows [0, k) times (M^k)^T."""
    out = np.empty((count, len(x0)))
    out[0] = x0
    k, P = 1, M
    while k < count:
        n = min(k, count - k)
        np.matmul(out[:n], P.T, out=out[k:k + n])
        P = P @ P
        k *= 2
    return out


def _rk4_positions(L: MetricLieAlgebra, stages, steps: int, h: float) -> np.ndarray:
    """RK4 positions for x' = u - [x, u] / 2 from x = 0, given the stage velocities.

    ``stages(lo, hi)`` returns the stage velocities (u1, u2, u3, u4) of
    steps lo, ..., hi - 1 as four (hi - lo, d) arrays.  In class 2 the
    bracket is central and vanishes on the center, so one step is
    x_{i+1} = x_i + a_i - (h/12) [x_i, w_i] with w_i = u1 + 2 u2 + 2 u3 + u4
    and a_i = (h/6) w_i - (h^2/12) ([u1, u2] + [u2, u3] + [u3, u4]); x_i
    modulo the center is the sum of the a_j for j < i, so the positions
    of a block are two cumulative sums.
    """
    d = L.dim
    bracket = _support_bracket(L)
    pos = np.empty((steps + 1, d))
    pos[0] = 0.0
    for lo in range(0, steps, BLOCK):
        hi = min(lo + BLOCK, steps)
        u1, u2, u3, u4 = stages(lo, hi)
        w = u1 + 2.0 * (u2 + u3) + u4
        # [u1, u2] + [u2, u3] = [u1 - u3, u2]
        a = (h / 6.0) * w - (h * h / 12.0) * (bracket(u1 - u3, u2) + bracket(u3, u4))
        sums = np.cumsum(a, axis=0)
        x = np.empty_like(a)  # x_i up to a central term, which every bracket ignores
        x[0] = pos[lo]
        x[1:] = pos[lo] + sums[:-1]
        pos[lo + 1:hi + 1] = pos[lo] + sums - (h / 12.0) * np.cumsum(bracket(x, w), axis=0)
    return pos


def geodesic_integrate(L: MetricLieAlgebra, X0, T: float, h: float) -> Trajectory:
    """Fixed-step RK4 for the geodesic through the identity with gamma'(0) = X0.

    In class 2 the central part of the velocity is constant, so the
    Euler-Arnold equation v' = Q kron(v, v) is v' = A v with
    A u = Q kron(u, X0), and one RK4 step is v -> R v with
    R = I + hA + ... + (hA)^4 / 4! (Eberlein 1994, Ann. Sci. ENS 27).
    """
    X0, steps = _schedule(L, X0, T, h)
    _require_metric_two_step(L)
    d = L.dim
    hA = h * (_euler_arnold_tensor(L).reshape(d, d, d) @ X0)
    eye = np.eye(d)
    # the stage velocities u_s = S_s v of one step from v
    S2 = eye + 0.5 * hA
    S3 = eye + 0.5 * hA @ S2
    S4 = eye + hA @ S3
    vel = _powers(eye + (hA / 6.0) @ (eye + 2.0 * (S2 + S3) + S4), X0, steps + 1)

    def stages(lo, hi):
        v = vel[lo:hi]
        return v, v @ S2.T, v @ S3.T, v @ S4.T

    return Trajectory(np.arange(steps + 1) * h, _rk4_positions(L, stages, steps, h), vel)


def orbit_integrate(L: MetricLieAlgebra, X0, D, T: float, h: float) -> Trajectory:
    """Curve with body velocity v(t) = exp(tD) X0 reconstructed by RK4.

    D must be a gram-skew derivation; then the curve is the orbit of a
    one-parameter isometry group and a candidate geodesic.
    """
    X0, steps = _schedule(L, X0, T, h)
    _require_metric_two_step(L)
    D = np.asarray(D, dtype=float)
    # each defect against the scale of its degree in D and in G or c, with no absolute floor
    dmax = np.max(np.abs(D))
    skew_res = np.max(np.abs(L.gram @ D + D.T @ L.gram))
    der_res = np.max(np.abs(derivation_defect(L.structure, D)))
    if skew_res > 1e-8 * np.max(np.abs(L.gram)) * dmax or der_res > 1e-8 * np.max(np.abs(L.structure)) * dmax:
        raise PreconditionError("D is not a metric-skew derivation")
    # v at every half step: powers of the half-step propagator applied to X0
    vel = _powers(expm(0.5 * h * D), X0, 2 * steps + 1)

    def stages(lo, hi):
        vm = vel[2 * lo + 1:2 * hi:2]
        return vel[2 * lo:2 * hi:2], vm, vm, vel[2 * lo + 2:2 * hi + 1:2]

    return Trajectory(np.arange(steps + 1) * h, _rk4_positions(L, stages, steps, h), vel[::2])


@dataclass(frozen=True)
class OrbitComparison:
    sup_deviation: float
    endpoint_deviation: float
    times: np.ndarray
    deviations: np.ndarray
    kv_residual: float


def compare_geodesic_orbit(L: MetricLieAlgebra, X0, T: float = 1.0, h: float = 1e-3) -> OrbitComparison:
    """Integrate the geodesic with gamma'(0) = X0 and the isometry orbit
    generated by the KV solution Z, and report their pointwise distance.

    For a GO metric the sup deviation is at the integrator error level;
    a persistent gap certifies that this X0 admits no orbit geodesic
    within the full isometry algebra.
    """
    X0, _ = _schedule(L, X0, T, h)
    ders = isometry_decomposition(L)
    # an initial velocity too large for float64 shows up as a non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs, kv_res = kv_solve(ders, X0)
        D = (coeffs[:, None, None] * ders.basis).sum(axis=0)
        geo = geodesic_integrate(L, X0, T, h)
        orb = orbit_integrate(L, X0, D, T, h)
        diffs = geo.positions - orb.positions
        dev = np.sqrt(np.sum((diffs @ L.gram) * diffs, axis=1))
    if not (np.isfinite(kv_res) and np.all(np.isfinite(dev))):
        raise InputError("deviation is not finite; the initial velocity is too large")
    return OrbitComparison(
        sup_deviation=float(np.max(dev)),
        endpoint_deviation=float(dev[-1]),
        times=geo.times,
        deviations=dev,
        kv_residual=float(kv_res),
    )
