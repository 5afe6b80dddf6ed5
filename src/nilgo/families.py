"""Constructors for the built-in algebra families.

Heisenberg and quaternionic Heisenberg groups, H-type algebras from
Clifford-module generators (hard-coded octonion left multiplication),
the 10-dimensional non-singular families with two-dimensional center,
their 4k+6-dimensional generalization, and the so(4) = so(3) + so(3)
transport machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linear_core as lc
from .algebra import MetricLieAlgebra, _over_common_denominator, make_algebra, require_spd
from .errors import InputError
from .operator_subspaces import SkewOperatorSubspace

Q = Fraction


def _as_metric(q, m: int) -> np.ndarray:
    """Normalize the z-block metric to an m x m object array; None = identity."""
    if q is None:
        return np.eye(m, dtype=int).astype(object)
    rows = [list(r) for r in (q.tolist() if isinstance(q, np.ndarray) else q)]
    if len(rows) != m or any(len(r) != m for r in rows):
        raise InputError(f"metric must be {m}x{m}")
    require_spd(np.array(rows, dtype=float), "metric")
    return np.array(rows, dtype=object)


def algebra_from_jmaps(generators, q=None) -> MetricLieAlgebra:
    """Metric algebra on z + R^n with prescribed J-operators on the z-basis.

    Basis order (Z_1, ..., Z_m, v_1, ..., v_n); gram = diag(q, I_n).
    Brackets of v-vectors are fixed by ([X, Y], Z_i)_q = (G_i X, Y), so
    [v_a, v_b] = sum_i (q^-1 w)_i Z_i with w_j = (G_j v_a, v_b).  Rational
    data is contracted as integers over common denominators; float data
    takes the same products, summed in index order.
    """
    m = len(generators)
    n = len(generators[0]) if m else 0
    d = m + n
    qm = _as_metric(q, m)
    W = np.array(generators, dtype=object).reshape(m, n, n).transpose(0, 2, 1)  # W[j, a, b] = (G_j v_a, v_b)
    exact = all(issubclass(t, (int, Fraction)) for t in set(map(type, itertools.chain(W.flat, qm.flat))))
    if exact:
        W, wden = _over_common_denominator(W)
        qinv, qden = _over_common_denominator(np.array(lc.rat_inv(qm.tolist()), dtype=object))
    else:
        W, qinv = W.astype(float), np.linalg.inv(qm.astype(float))
    w = sum((qinv[:, j, None, None] * W[j] for j in range(m)), np.zeros((m, n, n), dtype=W.dtype))
    w[:, np.arange(n), np.arange(n)] = 0
    structure = np.zeros((d, d, d), dtype=object if exact else float)
    gram = np.zeros((d, d), dtype=structure.dtype)
    if exact:
        nz = np.flatnonzero(w)
        w.flat[nz] = [Fraction(x, qden * wden) for x in w.flat[nz]]
    structure[m:, m:, :m] = w.transpose(1, 2, 0)
    gram[:m, :m] = qm
    gram[range(m, d), range(m, d)] = 1
    return make_algebra(structure, gram)


# ---------------------------------------------------------------------------
# Heisenberg families
# ---------------------------------------------------------------------------


def heisenberg(k: int) -> MetricLieAlgebra:
    """Heisenberg algebra of dimension 2k+1: [e_{2i-1}, e_{2i}] = e_{2k+1}."""
    if k < 1:
        raise InputError("k must be >= 1")
    d = 2 * k + 1
    structure = np.zeros((d, d, d), dtype=int)
    for i in range(k):
        structure[2 * i, 2 * i + 1, d - 1] = 1
        structure[2 * i + 1, 2 * i, d - 1] = -1
    return make_algebra(structure, np.eye(d, dtype=int))


# ---------------------------------------------------------------------------
# so(4) = so(3) + so(3) machinery
# ---------------------------------------------------------------------------


def l_matrix(b1, b2, b3) -> np.ndarray:
    return np.array(
        [
            [0, -b1, -b2, -b3],
            [b1, 0, -b3, b2],
            [b2, b3, 0, -b1],
            [b3, -b2, b1, 0],
        ],
        dtype=float,
    )


def r_matrix(g1, g2, g3) -> np.ndarray:
    return np.array(
        [
            [0, -g1, -g2, -g3],
            [g1, 0, g3, -g2],
            [g2, -g3, 0, g1],
            [g3, g2, -g1, 0],
        ],
        dtype=float,
    )


def so4_decompose(U) -> tuple[np.ndarray, np.ndarray]:
    """Unique U = L(beta) + R(gamma) for skew U in so(4)."""
    U = np.asarray(U, dtype=float)
    if U.shape != (4, 4) or np.max(np.abs(U + U.T)) > 1e-10 * max(1.0, np.max(np.abs(U))):
        raise InputError("need a skew 4x4 matrix")
    beta = np.array(
        [
            -(U[0, 1] + U[2, 3]) / 2,
            (U[1, 3] - U[0, 2]) / 2,
            -(U[0, 3] + U[1, 2]) / 2,
        ]
    )
    gamma = np.array(
        [
            (U[2, 3] - U[0, 1]) / 2,
            -(U[0, 2] + U[1, 3]) / 2,
            (U[1, 2] - U[0, 3]) / 2,
        ]
    )
    return beta, gamma


def transport_solve(U, V, side: str = "L") -> np.ndarray:
    """Parameter triple with L(beta) U = V (or R(gamma) U = V).

    U must be nonzero and V tangent at U, i.e. (U, V) = 0; a solution
    always exists in that case.
    """
    U = np.asarray(U, dtype=float)
    V = np.asarray(V, dtype=float)
    if U.shape != (4,) or V.shape != (4,):
        raise InputError("U, V must be vectors in R^4")
    if np.linalg.norm(U) == 0.0:
        raise InputError("U must be nonzero")
    if abs(U @ V) > 1e-10 * max(1.0, np.linalg.norm(U) * np.linalg.norm(V)):
        raise InputError("V is not tangent: (U, V) != 0")
    make = l_matrix if side == "L" else r_matrix if side == "R" else None
    if make is None:
        raise InputError("side must be 'L' or 'R'")
    cols = [make(*e) @ U for e in np.eye(3)]
    x, residual = lc.least_squares(np.array(cols).T, V)
    if residual > 1e-10 * max(1.0, np.linalg.norm(V)):
        raise InputError("transport system unexpectedly inconsistent")
    return x


# ---------------------------------------------------------------------------
# Clifford-module generators (quaternions and octonions)
# ---------------------------------------------------------------------------


def _quaternion_mult_table():
    # t[i][j] = (sign, k) with q_i * q_j = sign * q_k, basis (1, i, j, k)
    t = [[None] * 4 for _ in range(4)]
    for i in range(4):
        t[0][i] = (1, i)
        t[i][0] = (1, i)
    t[1][1] = t[2][2] = t[3][3] = (-1, 0)
    t[1][2], t[2][1] = (1, 3), (-1, 3)
    t[2][3], t[3][2] = (1, 1), (-1, 1)
    t[3][1], t[1][3] = (1, 2), (-1, 2)
    return t


_QT = _quaternion_mult_table()


def _qmul(a, b):
    out = [0, 0, 0, 0]
    for i in range(4):
        if a[i] == 0:
            continue
        for j in range(4):
            if b[j] == 0:
                continue
            sign, k = _QT[i][j]
            out[k] += sign * a[i] * b[j]
    return out


def _qconj(a):
    return [a[0], -a[1], -a[2], -a[3]]


def _octonion_mult(x, y):
    # Cayley--Dickson: (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c))
    a, b = x[:4], x[4:]
    c, d = y[:4], y[4:]
    first = [p - q for p, q in zip(_qmul(a, c), _qmul(_qconj(d), b))]
    second = [p + q for p, q in zip(_qmul(d, a), _qmul(b, _qconj(c)))]
    return first + second


def _left_mult_matrix(mult, unit: int, dim: int) -> list[list[int]]:
    cols = []
    for j in range(dim):
        e_u = [1 if t == unit else 0 for t in range(dim)]
        e_j = [1 if t == j else 0 for t in range(dim)]
        cols.append(mult(e_u, e_j))
    return [[cols[j][k] for j in range(dim)] for k in range(dim)]  # [k][j]


def _quat_left(unit: int) -> list[list[int]]:
    return _left_mult_matrix(lambda a, b: _qmul(a, b), unit, 4)


def _oct_left(unit: int) -> list[list[int]]:
    return _left_mult_matrix(_octonion_mult, unit, 8)


def _block_diag(blocks) -> list[list]:
    """Nested-list block-diagonal matrix of square blocks, Fraction(0) off the blocks."""
    n = sum(len(b) for b in blocks)
    out = [[Q(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off: off + len(row)] = row
        off += len(b)
    return out


def clifford_generators(m: int, copies: int = 1) -> list[list[list[Fraction]]]:
    """m anticommuting orthogonal complex structures on the smallest module.

    m=1 on R^(2 copies), m=2,3 on R^(4 copies) (quaternions), m=4..7 on
    R^(8 copies) (octonion left multiplication).
    """
    if not 1 <= m <= 7:
        raise InputError("m must be in 1..7")
    if copies < 1:
        raise InputError("copies must be >= 1")
    if m == 1:
        units = [[[0, -1], [1, 0]]]
    else:
        units = [(_quat_left if m <= 3 else _oct_left)(i + 1) for i in range(m)]
    return [_block_diag([[[Q(x) for x in row] for row in U]] * copies) for U in units]


def h_type_clifford(m: int, copies: int = 1, q=None) -> MetricLieAlgebra:
    """H-type algebra with an m-dimensional center on the smallest Clifford module."""
    return algebra_from_jmaps(clifford_generators(m, copies), q)


def quaternionic_heisenberg(k: int, q=None) -> MetricLieAlgebra:
    """Quaternionic Heisenberg algebra of dimension 4k+3 (m=3)."""
    if k < 1:
        raise InputError("k must be >= 1")
    return h_type_clifford(3, copies=k, q=q)


# ---------------------------------------------------------------------------
# the 10-dimensional families and their 4k+6 generalization
# ---------------------------------------------------------------------------


def _c_block(tj, x, y):
    return [
        [0, 0, -tj * x, y],
        [0, 0, y, tj * x],
        [tj * x, -y, 0, 0],
        [-y, -tj * x, 0, 0],
    ]


def _pencil(ts) -> tuple[list, list[list[list[Fraction]]]]:
    """``(t_0 = 1, t_1, ..., t_k)`` and the generators diag(C_0, ..., C_k) at (x, y) = (1, 0), (0, 1).

    Each t_j stays a float or becomes a Fraction; one float makes the
    whole pencil float.
    """
    ts = [float(t) if isinstance(t, float) else Q(t) for t in ts]
    one, zero = (1.0, 0.0) if any(isinstance(t, float) for t in ts) else (Q(1), Q(0))
    tall = [one, *ts]
    return tall, [_block_diag([_c_block(tj, x, y) for tj in tall]) for x, y in ((one, zero), (zero, one))]


def vt_generators(t) -> list[list[list[Fraction]]]:
    """Generators diag(C_1, C_2) of V_t at (x, y) = (1, 0) and (0, 1)."""
    (_, tv), G = _pencil([t])
    if tv < 1:
        raise InputError("t must be >= 1")
    return G


def n10(t, q=None) -> MetricLieAlgebra:
    """The 10-dimensional non-singular family with J_Z = diag(C_1, C_2); t >= 1."""
    return algebra_from_jmaps(vt_generators(t), q)


def _float_subspace(generators) -> SkewOperatorSubspace:
    return SkewOperatorSubspace(len(generators[0]), [np.array(G, dtype=float) for G in generators])


def vt_subspace(t) -> SkewOperatorSubspace:
    return _float_subspace(vt_generators(t))


def n10_second_generators() -> list[list[list[Fraction]]]:
    """J_Z = [[0, A], [-A', 0]] for the second algebra with Pfaffian (x^2+y^2)^2."""

    def build(x, y):
        A = [
            [0, 0, -x, y],
            [0, 0, y, x],
            [-x, y, 0, x],
            [y, x, x, 0],
        ]  # symmetric, so -A' = -A
        zero = [Q(0)] * 4
        return [zero + [Q(a) for a in row] for row in A] + [[Q(-a) for a in row] + zero for row in A]

    return [build(1, 0), build(0, 1)]


def n10_second(q=None) -> MetricLieAlgebra:
    return algebra_from_jmaps(n10_second_generators(), q)


def centralizer_basis_n10() -> SkewOperatorSubspace:
    """The 6 generators diag(D_1(e_i), 0), diag(0, D_2(e_j)) of the centralizer of V_t."""
    mats = []
    zeros = np.zeros((4, 4))
    for e in np.eye(3):
        D = r_matrix(*e)
        mats.append(np.block([[D, zeros], [zeros, zeros]]))
    for e in np.eye(3):
        D = r_matrix(*e)
        mats.append(np.block([[zeros, zeros], [zeros, D]]))
    return SkewOperatorSubspace(8, mats)


@dataclass(frozen=True)
class AlphaSolution:
    alphas: tuple  # (a1..a6)
    free_first: bool
    free_second: bool


def alpha_closed_form(t, x, y, X) -> AlphaSolution:
    """Closed-form centralizer solution Y = diag(D_1, D_2) with Y(X) = J_{xZ1+yZ2}(X).

    On a degenerate half (vanishing first or last four coordinates of X)
    the corresponding triple is free; the zero triple is returned as the
    canonical representative.
    """
    t, x, y = Q(t), Q(x), Q(y)
    if t < 1:
        raise InputError("t must be >= 1")
    x1, x2, x3, x4, x5, x6, x7, x8 = (Q(v) for v in X)
    s1 = x1 * x1 + x2 * x2 + x3 * x3 + x4 * x4
    s2 = x5 * x5 + x6 * x6 + x7 * x7 + x8 * x8
    if s1 == 0:
        a1 = a2 = a3 = Q(0)
    else:
        a1 = (2 * x * (x1 * x4 + x2 * x3) + 2 * y * (x1 * x3 - x2 * x4)) / s1
        a2 = (x * (x1 * x1 - x2 * x2 + x3 * x3 - x4 * x4) - 2 * y * (x1 * x2 + x3 * x4)) / s1
        a3 = (-2 * x * (x1 * x2 - x3 * x4) - y * (x1 * x1 - x2 * x2 - x3 * x3 + x4 * x4)) / s1
    if s2 == 0:
        a4 = a5 = a6 = Q(0)
    else:
        a4 = (2 * t * x * (x5 * x8 + x6 * x7) + 2 * y * (x5 * x7 - x6 * x8)) / s2
        a5 = (t * x * (x5 * x5 - x6 * x6 + x7 * x7 - x8 * x8) - 2 * y * (x5 * x6 + x7 * x8)) / s2
        a6 = (-2 * t * x * (x5 * x6 - x7 * x8) - y * (x5 * x5 - x6 * x6 - x7 * x7 + x8 * x8)) / s2
    return AlphaSolution((a1, a2, a3, a4, a5, a6), free_first=s1 == 0, free_second=s2 == 0)


def d_matrix_exact(a1, a2, a3) -> list[list[Fraction]]:
    """The centralizer block D(a1, a2, a3) (same pattern as r_matrix), exact."""
    a1, a2, a3 = Q(a1), Q(a2), Q(a3)
    return [
        [Q(0), -a1, -a2, -a3],
        [a1, Q(0), a3, -a2],
        [a2, -a3, Q(0), a1],
        [a3, a2, -a1, Q(0)],
    ]


def thm2_generators(ts) -> list[list[list[Fraction]]]:
    tall, G = _pencil(ts)
    if any(a >= b for a, b in zip(tall, tall[1:])):
        raise InputError("parameters must satisfy 1 < t_1 < ... < t_k")
    return G


def family_thm2(ts, q=None) -> MetricLieAlgebra:
    """The 4k+6 dimensional family with blocks diag(C_0, C_1, ..., C_k), t_0 = 1."""
    return algebra_from_jmaps(thm2_generators(ts), q)


def thm2_subspace(ts) -> SkewOperatorSubspace:
    return _float_subspace(thm2_generators(ts))


def thm2_diagonal_centralizer(k: int) -> SkewOperatorSubspace:
    """The subalgebra diag(D, D, ..., D) inside so(4k+4)."""
    n = 4 * (k + 1)
    mats = []
    for e in np.eye(3):
        D = r_matrix(*e)
        M = np.zeros((n, n))
        for c in range(k + 1):
            M[4 * c: 4 * c + 4, 4 * c: 4 * c + 4] = D
        mats.append(M)
    return SkewOperatorSubspace(n, mats)


# ---------------------------------------------------------------------------
# CLI dispatcher
# ---------------------------------------------------------------------------

# family kind -> (the parameters it needs and those it may take, each one a
# CLI flag; builder from params and metric)
_BUILDERS = {
    "heisenberg": (("k",), (), lambda p, q: heisenberg(int(p["k"]))),
    "quaternionic_heisenberg": (("k",), (), lambda p, q: quaternionic_heisenberg(int(p["k"]), q=q)),
    "h_type_clifford": (("m",), ("copies",), lambda p, q: h_type_clifford(int(p["m"]), int(p.get("copies", 1)), q=q)),
    "n10": (("t",), (), lambda p, q: n10(p["t"], q=q)),
    "n10_second": ((), (), lambda p, q: n10_second(q=q)),
    "thm2": (("ts",), (), lambda p, q: family_thm2(list(p["ts"]), q=q)),
}
FAMILY_KINDS = tuple(_BUILDERS)


def build_family(kind: str, params: dict, metric=None) -> MetricLieAlgebra:
    if kind not in _BUILDERS:
        raise InputError(f"unknown family kind {kind!r}; known: {', '.join(FAMILY_KINDS)}")
    required, optional, build = _BUILDERS[kind]
    missing = [f"--{p}" for p in required if params.get(p) is None]
    if missing:
        raise InputError(f"family {kind} needs {' and '.join(missing)}")
    extra = [f"--{p}" for p, v in params.items() if v is not None and p not in required + optional]
    if extra:
        raise InputError(f"family {kind} takes no {' or '.join(extra)}")
    if kind == "heisenberg" and metric is not None:
        raise InputError("family heisenberg takes no metric")
    return build(params, metric)
