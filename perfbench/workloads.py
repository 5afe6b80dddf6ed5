"""Seeded workloads of the nilgo benchmark.

Each workload is a fixed batch of CLI operations on algebra documents
generated from the workload seed.  A pass runs every operation of the
batch ``repeats`` times, the copies shuffled into one seeded schedule;
cheap operations get more copies so that they are a visible share of the
pass next to the few expensive ones.  The seed chooses the center
metrics, the initial velocities, the basis relabelings and the schedule;
the library only ever sees the generated JSON documents.  Every
operation carries the expectation its output is checked against.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from nilgo import cli
from nilgo.go_checker import riehm_predict
from nilgo.jmaps import isotypic_test
from nilgo.algebra import algebra_from_dict, split_two_step

# Tolerances, never looser than tests/test_acceptance.py.
MAX_RESIDUAL = 1e-9  # verified certificates (criteria 1, 2)
GO_DEVIATION = 1e-6  # geodesic vs orbit on n10(2) (criterion 9)
NON_GO_DEVIATION = 1e-3  # largest deviation over the h_type_clifford(4) set

H_TYPE_TABLE = [(1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (7, 1)]
THM2_PARAMS = [Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)]
# (2, 3) and (3/2, 3) share a projective class (criterion 5)
THM2_EQUIVALENT = frozenset({(Fraction(2), Fraction(3)), (Fraction(3, 2), Fraction(3))})


@dataclass
class Op:
    """One CLI invocation and the expectation its output is checked against."""

    kind: str  # operation kind: command, criterion and input family
    label: str
    argv: list
    rc: int  # expected exit code: 0 verified/pass, 1 refuted
    check: Callable[[dict], list] = field(repr=False)
    repeats: int = 1  # copies per pass

    def problems(self, rc: int, out: str) -> list:
        if rc != self.rc:
            return [f"exit code {rc}, expected {self.rc}"]
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as e:
            return [f"output is not JSON: {e}"]
        return self.check(doc)


@dataclass
class Workload:
    name: str
    ops: list  # the batch, each operation once
    schedule: list = field(default_factory=list)  # indices into ops: one pass, in seeded order
    # checks over a whole pass: callable(list of (op, parsed output)) -> problems
    pass_checks: list = field(default_factory=list)
    warmup: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


class DocWriter:
    """Writes algebra documents into a work directory and names them."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.count = 0

    def family(self, *args) -> dict:
        """Build a family document the way ``nilgo family`` does."""
        path = os.path.join(self.workdir, "family.json")
        rc = cli.main(["family", *args, "-o", path])
        if rc != 0:
            raise RuntimeError(f"nilgo family {' '.join(args)} exited {rc}")
        with open(path) as fh:
            return json.load(fh)

    def write(self, doc: dict, tag: str) -> str:
        self.count += 1
        path = os.path.join(self.workdir, f"{self.count:04d}-{tag}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path


def _negate(v):
    if isinstance(v, str):
        return str(-Fraction(v))
    return -v


def relabel(doc: dict, perm) -> dict:
    """The same algebra in the basis e'_{perm[a]} = e_a."""
    d = doc["dim"]
    brackets = []
    for br in doc["brackets"]:
        i, j = perm[br["i"]], perm[br["j"]]
        sign = i > j
        if sign:
            i, j = j, i
        coeffs = {str(perm[int(k)]): (_negate(v) if sign else v) for k, v in br["coeffs"].items()}
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    gram = [[None] * d for _ in range(d)]
    for a in range(d):
        for b in range(d):
            gram[perm[a]][perm[b]] = doc["gram"][a][b]
    return {"dim": d, "brackets": brackets, "gram": gram}


def full_perm(rng, d: int) -> list:
    return [int(x) for x in rng.permutation(d)]


def v_perm(rng, d: int, m: int) -> list:
    """Permute the complement of the first m (central) basis vectors only;
    the Pfaffian form keeps its coefficients under such a relabeling."""
    return list(range(m)) + [m + int(x) for x in rng.permutation(d - m)]


def _unit(rng, d: int) -> str:
    x = rng.standard_normal(d)
    x /= np.linalg.norm(x)
    return ",".join(repr(float(v)) for v in x)


def _spd_metric(rng) -> str:
    """Upper triangle of a 2x2 SPD matrix B B^T + I/2 (as in criterion 1)."""
    B = rng.standard_normal((2, 2))
    q = B @ B.T + 0.5 * np.eye(2)
    return f"{float(q[0, 0])!r},{float(q[0, 1])!r},{float(q[1, 1])!r}"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _verified(doc: dict) -> list:
    out = []
    if doc.get("status") != "verified_sampled":
        out.append(f"status {doc.get('status')!r}, expected 'verified_sampled'")
    if not doc.get("max_residual", float("inf")) <= MAX_RESIDUAL:
        out.append(f"max_residual {doc.get('max_residual')} > {MAX_RESIDUAL}")
    if doc.get("witness") is not None:
        out.append("verified certificate carries a witness")
    return out


def _refuted(exact: bool):
    def check(doc: dict) -> list:
        out = []
        if doc.get("status") != "refuted":
            out.append(f"status {doc.get('status')!r}, expected 'refuted'")
        if doc.get("witness") is None:
            out.append("refutation without a witness")
        if exact and doc.get("exact_refutation") is not True:
            out.append("refutation is not exact")
        return out

    return check


def _certificate(verified: bool, exact: bool = False):
    return (0, _verified) if verified else (1, _refuted(exact))


def _verdict(expected: str):
    def check(doc: dict) -> list:
        if doc.get("verdict") != expected:
            return [f"verdict {doc.get('verdict')!r}, expected {expected!r}"]
        return []

    return check


def _coeffs(expected: list):
    want = [str(c) for c in expected]

    def check(doc: dict) -> list:
        out = []
        if doc.get("exact") is not True:
            out.append("pfaffian form is not exact")
        if doc.get("coeffs") != want:
            out.append(f"coeffs {doc.get('coeffs')}, expected {want}")
        return out

    return check


def _deviation_at_most(bound: float):
    def check(doc: dict) -> list:
        if not doc.get("sup_deviation", float("inf")) <= bound:
            return [f"sup_deviation {doc.get('sup_deviation')} > {bound}"]
        return []

    return check


def _steps(expected: int):
    def check(doc: dict) -> list:
        if doc.get("steps") != expected:
            return [f"steps {doc.get('steps')}, expected {expected}"]
        return []

    return check


def _poly_product(factors) -> list:
    """Coefficients (index = power of x) of prod (a x^2 + y^2)."""
    coeffs = [Fraction(1)]
    for a in factors:
        nxt = [Fraction(0)] * (len(coeffs) + 2)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 2] += a * c
        coeffs = nxt
    return coeffs


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _go_check(doc_path: str, criterion: str) -> list:
    return ["go-check", doc_path, "--criterion", criterion, "--seed", "0"]


def _tnc(doc_path: str) -> list:
    return ["tnc", doc_path, "--nprime", "centralizer", "--seed", "0"]


def _all(*checks):
    def check(doc: dict) -> list:
        return [p for c in checks for p in c(doc)]

    return check


CERTIFY_METRICS = 4  # seeded center metrics per n10(t)
# (parameters, copies per pass, also run the centralizer TNC); dims 14, 18, 22
THM2_SWEEP = (("2,3", 3, True), ("3/2,2,3", 2, True), ("2,3,5,7", 1, False))


def certify_sweep(w: DocWriter, rng) -> Workload:
    ops = []
    for t in (1, 2, 5):
        for k in range(CERTIFY_METRICS):
            path = w.write(w.family("n10", "--t", str(t), "--metric", _spd_metric(rng)), f"n10-{t}")
            for crit in ("gordon", "kv"):
                ops.append(Op(f"go-check {crit} n10", f"go-check {crit} n10({t}) metric {k}",
                              _go_check(path, crit), *_certificate(True), repeats=4))
        path = w.write(w.family("n10", "--t", str(t)), f"n10-{t}")
        ops.append(Op("tnc n10", f"tnc centralizer n10({t})", _tnc(path), *_certificate(True), repeats=3))
    for ts, repeats, tnc in THM2_SWEEP:
        doc = w.family("thm2", "--ts", ts)
        dim = doc["dim"]
        path = w.write(relabel(doc, full_perm(rng, dim)), f"thm2-{dim}")
        for crit in ("gordon", "kv"):
            ops.append(Op(f"go-check {crit} thm2", f"go-check {crit} thm2 dim {dim}",
                          _go_check(path, crit), *_certificate(True), repeats=repeats))
        if tnc:
            ops.append(Op("tnc thm2", f"tnc centralizer thm2 dim {dim}", _tnc(path), *_certificate(True),
                          repeats=repeats))
    warm = w.write(w.family("heisenberg", "--k", "1"), "warm")
    warmup = [_go_check(warm, "gordon"), _go_check(warm, "kv"), _tnc(warm)]
    return Workload("certify-sweep", ops, warmup=warmup)


REFUTE_RELABELS = 3  # relabeled copies of the H-type table per pass


def _go_predicted(doc: dict, m: int) -> bool:
    """GO status of an H-type document with m-dimensional center, as the
    classification predicts it."""
    split = split_two_step(algebra_from_dict(doc))
    iso = isotypic_test(split) if m == 7 else None
    return riehm_predict(m, split.n, iso)


def refute_exact(w: DocWriter, rng) -> Workload:
    ops = []
    for m, copies in H_TYPE_TABLE:
        doc = w.family("h_type_clifford", "--m", str(m), "--copies", str(copies))
        go = _go_predicted(doc, m)
        outcome = "verified" if go else "refuted"
        n_copies = 4 if doc["dim"] <= 12 else 2  # more copies of the cheapest checks
        for r in range(REFUTE_RELABELS):
            path = w.write(relabel(doc, full_perm(rng, doc["dim"])), f"h-{m}-{copies}")
            tag = f"h_type_clifford({m},{copies}) relabel {r}"
            if go or r == 0:
                # a refutation is re-checked exactly, once per pass
                ops.append(Op(f"go-check gordon {outcome}", f"go-check gordon {tag}",
                              _go_check(path, "gordon"), *_certificate(go, exact=True),
                              repeats=n_copies if go else 1))
            ops.append(Op(f"go-check kv {outcome}", f"go-check kv {tag}",
                          _go_check(path, "kv"), *_certificate(go), repeats=n_copies))
    ops += exact_invariant_ops(w, rng)
    warm = w.write(w.family("heisenberg", "--k", "1"), "warm")
    warm_a = w.write(w.family("n10", "--t", "1"), "warm")
    warm_b = w.write(w.family("n10", "--t", "2"), "warm")
    warmup = [_go_check(warm, "gordon"), _go_check(warm, "kv"), ["invariant", warm_a, warm_b], ["pfaffian", warm_a]]
    return Workload("refute-exact", ops, warmup=warmup)


GEO_N10 = 16  # seeded initial velocities on n10(2)
GEO_HTYPE = 8  # seeded initial velocities on h_type_clifford(4)
GEO_HORIZON = "0.5"  # half of criterion 9's, so every velocity is timed twice per pass
HTYPE_GEODESIC = "geodesic-compare h_type_clifford(4)"


def _non_go_deviates(results) -> list:
    """Criterion 9: some geodesic of h_type_clifford(4) leaves its best orbit."""
    devs = [doc["sup_deviation"] for op, doc in results if op.kind == HTYPE_GEODESIC]
    if devs and not max(devs) > NON_GO_DEVIATION:
        return [f"largest h_type_clifford(4) deviation {max(devs)} <= {NON_GO_DEVIATION}"]
    return []


def geodesic_orbit(w: DocWriter, rng) -> Workload:
    ops = []
    n10 = w.write(w.family("n10", "--t", "2"), "n10-2")
    for k in range(GEO_N10):
        argv = ["geodesic-compare", n10, f"--x0={_unit(rng, 10)}", "--step", "1e-3", "--horizon", GEO_HORIZON]
        ops.append(Op("geodesic-compare n10(2)", f"geodesic-compare n10(2) x0 {k}", argv, 0,
                      _all(_deviation_at_most(GO_DEVIATION), _steps(500)), repeats=2))
    htype = w.write(w.family("h_type_clifford", "--m", "4"), "h-4-1")
    for k in range(GEO_HTYPE):
        argv = ["geodesic-compare", htype, f"--x0={_unit(rng, 12)}", "--step", "2e-3", "--horizon", GEO_HORIZON]
        ops.append(Op(HTYPE_GEODESIC, f"{HTYPE_GEODESIC} x0 {k}", argv, 0, _steps(250), repeats=2))
    warm = w.write(w.family("heisenberg", "--k", "1"), "warm")
    warmup = [["geodesic-compare", warm, "--x0", "1,0,0", "--step", "0.1"]]
    return Workload("geodesic-orbit", ops, pass_checks=[_non_go_deviates], warmup=warmup)


N10_PFAFFIAN_TS = (1, 2, 3, 5)
INVARIANT_BASES = 2  # relabeled documents per thm2 algebra


def exact_invariant_ops(w: DocWriter, rng) -> list:
    """Pfaffian-form invariants: every pair of the two-parameter thm2 algebras of
    criterion 5 (its one projectively equivalent pair among them), each such
    algebra against itself in another basis, the n10(1)/n10_second blind spot,
    and the exact forms of n10(t) and their pairs."""
    ops = []
    base = {ts: w.family("thm2", "--ts", ",".join(map(str, ts))) for ts in itertools.combinations(THM2_PARAMS, 2)}
    pool = {ts: [w.write(relabel(doc, full_perm(rng, doc["dim"])), "thm2") for _ in range(INVARIANT_BASES)]
            for ts, doc in base.items()}

    def invariant(kind, label, a, b, verdict):
        ops.append(Op(kind, label, ["invariant", a, b], 0, _verdict(verdict)))

    for ta, tb in itertools.combinations(base, 2):
        expected = "equivalent_invariants" if {ta, tb} == THM2_EQUIVALENT else "distinct"
        if rng.random() < 0.5:
            ta, tb = tb, ta
        invariant("invariant thm2 pair", f"invariant thm2{_ts(ta)} thm2{_ts(tb)}",
                  pool[ta][rng.integers(INVARIANT_BASES)], pool[tb][rng.integers(INVARIANT_BASES)], expected)
    for ts in base:
        # the same algebra in another basis has the same invariants
        invariant("invariant thm2 relabeled", f"invariant thm2{_ts(ts)} relabeled", *pool[ts], "equivalent_invariants")
    # known blind spot: the invariants cannot separate these two (criterion 5)
    invariant("invariant n10 blind spot", "invariant n10(1) n10_second",
              w.write(relabel(w.family("n10", "--t", "1"), full_perm(rng, 10)), "n10-1"),
              w.write(relabel(w.family("n10_second"), full_perm(rng, 10)), "n10-second"),
              "equivalent_invariants")
    n10 = {}
    for t in N10_PFAFFIAN_TS:
        # exact form (x^2 + y^2)(t^2 x^2 + y^2), as in criterion 4
        n10[t] = w.write(relabel(w.family("n10", "--t", str(t)), v_perm(rng, 10, 2)), f"n10-{t}")
        ops.append(Op("pfaffian n10", f"pfaffian n10({t})", ["pfaffian", n10[t]], 0,
                      _coeffs(_poly_product([1, t * t]))))
    for ta, tb in itertools.combinations(N10_PFAFFIAN_TS, 2):
        invariant("invariant n10 pair", f"invariant n10({ta}) n10({tb})", n10[ta], n10[tb], "distinct")
    return ops


def _ts(ts) -> str:
    return "(" + ",".join(map(str, ts)) + ")"


BUILDERS = {
    "certify-sweep": certify_sweep,
    "refute-exact": refute_exact,
    "geodesic-orbit": geodesic_orbit,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate the documents of one workload and its seeded schedule."""
    rng = np.random.default_rng([list(BUILDERS).index(name), seed % 2**63])
    wl = BUILDERS[name](DocWriter(workdir), rng)
    copies = [i for i, op in enumerate(wl.ops) for _ in range(op.repeats)]
    wl.schedule = [copies[j] for j in rng.permutation(len(copies))]
    return wl
