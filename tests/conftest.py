from fractions import Fraction

import numpy as np
import pytest

from nilgo import h_type_clifford, heisenberg, make_algebra
from rational_oracles import rat_inv

# filled by the acceptance suite, replayed after capture ends
acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in acceptance_lines:
        terminalreporter.write_line(line)


def _empty_structure(d):
    return [[[Fraction(0) for _ in range(d)] for _ in range(d)] for _ in range(d)]


def _set_bracket(c, i, j, k, val=Fraction(1)):
    c[i][j][k] = val
    c[j][i][k] = -val


def identity_gram(d):
    return [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]


@pytest.fixture
def three_step():
    """Free 3-step quotient on two generators:
    [e1,e2] = e3, [e1,e3] = e4, [e2,e3] = e5."""
    c = _empty_structure(5)
    _set_bracket(c, 0, 1, 2)
    _set_bracket(c, 0, 2, 3)
    _set_bracket(c, 1, 2, 4)
    return make_algebra(c, identity_gram(5))


@pytest.fixture
def heisenberg_plus_flat():
    """heisenberg(1) on (e1, e2, e3) direct sum a Euclidean R^2."""
    c = _empty_structure(5)
    _set_bracket(c, 0, 1, 2)
    return make_algebra(c, identity_gram(5))


@pytest.fixture
def so3():
    """The simple (not nilpotent) algebra so(3): [e1,e2] = e3 and cyclic."""
    c = _empty_structure(3)
    _set_bracket(c, 0, 1, 2)
    _set_bracket(c, 1, 2, 0)
    _set_bracket(c, 2, 0, 1)
    return make_algebra(c, identity_gram(3))


@pytest.fixture
def abelian():
    return make_algebra(_empty_structure(3), identity_gram(3))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def change_basis(L, P, gram=None):
    """The exact algebra L in the basis b_i = sum_a P[i][a] e_a, with the given Gram on the b_i
    (the identity by default)."""
    c, den = L.structure_exact
    P = np.array(P, dtype=object)
    c_new = np.einsum("ia,jb,abk,kl->ijl", P, P, c, np.array(rat_inv(P.tolist()), dtype=object), optimize=True)
    return make_algebra(c_new * Fraction(1, den), np.eye(len(P), dtype=int) if gram is None else gram)


@pytest.fixture(params=["heisenberg1", "heisenberg2"])
def off_basis_heisenberg(request):
    """A Heisenberg algebra whose center is not spanned by basis vectors:
    heisenberg(1) with b_2 = e_0 + e_2 (center b_2 - b_0), or heisenberg(2)
    with b_3 = e_4 - e_2 and b_4 = e_3 (center b_2 + b_3)."""
    if request.param == "heisenberg1":
        return change_basis(heisenberg(1), [[1, 0, 0], [0, 1, 0], [1, 0, 1]])
    P = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, -1, 0, 1], [0, 0, 0, 1, 0]]
    return change_basis(heisenberg(2), P)


@pytest.fixture
def off_basis_h_type():
    """h_type_clifford(4) with b_0 = e_0 + e_4: the center contains b_0 - b_4."""
    P = np.eye(12, dtype=int)
    P[0, 4] = 1
    return change_basis(h_type_clifford(4), P)
