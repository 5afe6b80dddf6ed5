from fractions import Fraction

import numpy as np
import pytest

from nilgo import make_algebra

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
