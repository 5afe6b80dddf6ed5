"""Properties of the documents the CLI reads and of Pfaffian forms, over
generated inputs.

Every command answers any document with an exit code of its contract
(0, 1, 2 or 64), never with an internal error, and on a two-step document
the two GO criteria, which both characterize GO, never contradict each
other.  Commands run in-process through ``cli.main`` with few samples.
A float Pfaffian form, and a float substitution into it, is the exact one
of the same float values with each coefficient rounded once, and changing
the center basis by g substitutes g into the form.
``derandomize=True`` makes the examples the same on every run.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

from nilgo import HomogeneousPolynomial2, NotTwoStepError, cli, pfaffian_form, split_two_step
from nilgo.families import algebra_from_jmaps
from nilgo.jmaps import split_family

CONTRACT = {cli.EXIT_PASS, cli.EXIT_REFUTED, cli.EXIT_INCONCLUSIVE, cli.EXIT_INPUT}
SAMPLING = ["--samples", "8"]
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=30)


def _entries(exact: bool):
    return st.integers(-3, 3) if exact else st.floats(-3, 3, allow_subnormal=False)


@st.composite
def _spd_grams(draw, dim: int, exact: bool):
    """The identity, or A A^T + I for a random A, as a list of rows."""
    if draw(st.booleans()):
        return np.eye(dim, dtype=int).tolist()
    A = np.array(draw(st.lists(_entries(exact), min_size=dim * dim, max_size=dim * dim)), dtype=object).reshape(dim, dim)
    G = A @ A.T + np.eye(dim, dtype=int)
    return (G if exact else (G + G.T).astype(float) / 2).tolist()


def _document(dim: int, brackets: dict, gram) -> dict:
    return {
        "dim": dim,
        "brackets": [{"i": i, "j": j, "coeffs": c} for (i, j), c in sorted(brackets.items())],
        "gram": gram,
    }


@st.composite
def two_step_documents(draw):
    """[v_a, v_b] = sum_k (J_k)_{ba} z_k for random skew J_1, ..., J_m on
    v = R^n, in a randomly relabeled basis under an SPD Gram."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    exact = draw(st.booleans())
    pairs = list(itertools.combinations(range(n), 2))
    jmaps = draw(st.lists(st.lists(_entries(exact), min_size=len(pairs), max_size=len(pairs)), min_size=m, max_size=m))
    label = draw(st.permutations(range(n + m)))
    brackets = {}
    for k, upper in enumerate(jmaps):
        for (a, b), c in zip(pairs, upper):
            if c:
                i, j = label[a], label[b]
                if i > j:
                    i, j, c = j, i, -c
                brackets.setdefault((i, j), {})[str(label[n + k])] = c
    return _document(n + m, brackets, draw(_spd_grams(n + m, exact)))


@st.composite
def raw_documents(draw):
    """Random brackets, which may break Jacobi, under a random symmetric
    Gram, which may be indefinite."""
    dim, exact = draw(st.integers(1, 6)), draw(st.booleans())
    pairs = draw(st.sets(st.sampled_from(list(itertools.combinations(range(dim), 2))), max_size=6)) if dim > 1 else set()
    coeffs = st.dictionaries(st.integers(0, dim - 1).map(str), _entries(exact), max_size=3)
    brackets = {pair: draw(coeffs) for pair in sorted(pairs)}
    upper = draw(st.lists(_entries(exact), min_size=dim * dim, max_size=dim * dim))
    gram = [[upper[min(a, b) * dim + max(a, b)] for b in range(dim)] for a in range(dim)]
    return _document(dim, brackets, gram)


def _run(argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in CONTRACT and "Traceback" not in err.getvalue(), (argv[0], code, err.getvalue())
    return code


@contextlib.contextmanager
def _written(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "algebra.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        yield path


def _every_command(doc) -> None:
    with _written(doc) as path:
        x0 = ",".join(["1"] * doc["dim"])
        for argv in (
            ["validate", path],
            ["go-check", path, "--criterion", "gordon", *SAMPLING],
            ["go-check", path, "--criterion", "kv", *SAMPLING],
            *(["tnc", path, "--nprime", nprime, *SAMPLING] for nprime in ("normalizer", "centralizer", "self")),
            ["pfaffian", path],
            ["invariant", path, path],
            ["derivations", path],
            ["geodesic-compare", path, f"--x0={x0}", "--horizon", "0.05", "--step", "0.01"],
        ):
            _run(argv)


@PROPERTY
@given(two_step_documents())
def test_every_command_keeps_the_exit_contract_on_two_step_documents(doc):
    _every_command(doc)


@PROPERTY
@given(raw_documents())
def test_every_command_keeps_the_exit_contract_on_raw_documents(doc):
    _every_command(doc)


@settings(PROPERTY, max_examples=60)
@given(two_step_documents())
def test_gordon_and_kv_never_contradict(doc):
    # Gordon's (1996) criterion and the KV criterion both characterize GO
    with _written(doc) as path:
        gordon, kv = (_run(["go-check", path, "--criterion", c, *SAMPLING]) for c in ("gordon", "kv"))
    if {gordon, kv} <= {cli.EXIT_PASS, cli.EXIT_REFUTED}:
        assert gordon == kv


@st.composite
def skew_pairs(draw):
    """Two skew n x n integer matrices with entries in [-3, 3], n even and at most 8."""
    n = draw(st.sampled_from([2, 4, 6, 8]))
    pairs = list(itertools.combinations(range(n), 2))
    J = np.zeros((2, n, n), dtype=int)
    for k in range(2):
        upper = draw(st.lists(st.integers(-3, 3), min_size=len(pairs), max_size=len(pairs)))
        for (a, b), c in zip(pairs, upper):
            J[k, a, b], J[k, b, a] = c, -c
    return J


@PROPERTY
@given(skew_pairs(), st.lists(st.floats(-4, 4, allow_subnormal=False), min_size=4, max_size=4))
def test_float_pfaffian_forms_are_the_exact_forms_rounded_once(J, substitution):
    try:
        split = split_two_step(algebra_from_jmaps(J.astype(float)))
    except NotTwoStepError:  # both matrices zero
        split = None
    assume(split is not None and split.m == 2)
    # the float split may relabel its bases, so the exact copy is built from the J-pair it chose
    chosen = np.frompyfunc(Fraction, 1, 1)(split_family(split).generators)
    exact = pfaffian_form(split_two_step(algebra_from_jmaps(chosen)))
    form = pfaffian_form(split)
    assert exact.is_exact and not form.is_exact
    assert form.coeffs == tuple(float(c) for c in exact.coeffs)
    exact_values = HomogeneousPolynomial2(form.degree, tuple(map(Fraction, form.coeffs)))
    moved = exact_values.substitute_linear(*map(Fraction, substitution))
    assert form.substitute_linear(*substitution).coeffs == tuple(float(c) for c in moved.coeffs)


@st.composite
def invertible_rational_2x2(draw):
    """(g11, g12, g21, g22) with entries p / q, |p| <= 3 and 1 <= q <= 3, and nonzero determinant."""
    g = draw(st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)), min_size=4, max_size=4))
    assume(g[0] * g[3] != g[1] * g[2])
    return g


@PROPERTY
@given(skew_pairs(), invertible_rational_2x2())
def test_pfaffian_forms_are_covariant_under_a_change_of_center_basis(J, g):
    # Pf(x (g11 G1 + g12 G2) + y (g21 G1 + g22 G2)) = Pf((g11 x + g21 y) G1 + (g12 x + g22 y) G2)
    g11, g12, g21, g22 = g
    G1, G2 = J.astype(object)
    try:
        split = split_two_step(algebra_from_jmaps([G1, G2]))
    except NotTwoStepError:  # both matrices zero
        split = None
    assume(split is not None and split.m == 2)
    moved = pfaffian_form(split_two_step(algebra_from_jmaps([g11 * G1 + g12 * G2, g21 * G1 + g22 * G2])))
    assert moved.is_exact
    assert moved.coeffs == pfaffian_form(split).substitute_linear(g11, g21, g12, g22).normalized_sign().coeffs
