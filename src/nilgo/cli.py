"""Command-line interface.

Exit codes: 0 for pass/verified, 1 for a refutation (witness included in
the output), 2 for inconclusive results, 64 for malformed input and
usage errors, 70 for an internal error (any other exception; its
traceback goes to stderr).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import traceback
from fractions import Fraction

import numpy as np

from . import algebra, families, geodesics, go_checker, invariants, jmaps
from .errors import InputError, NilgoError
from .operator_subspaces import SkewOperatorSubspace, normalizer_in_so, skew_derivations

EXIT_PASS = 0
EXIT_REFUTED = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 64
EXIT_INTERNAL = 70  # EX_SOFTWARE in sysexits.h; never 1, which means refuted


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise InputError(f"cannot read JSON from {path!r}: {e}") from None


def _emit(args, payload: str):
    if getattr(args, "output", None) and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _emit_json(args, obj) -> None:
    _emit(args, json.dumps(obj, sort_keys=True, indent=2, default=float) + "\n")


def _parse_number(s: str):
    s = s.strip()
    try:
        if any(ch in s for ch in ".eE") and "/" not in s:
            return float(s)
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse number {s!r}") from None


def _parse_metric(spec: str):
    """Upper-triangle entries q11,q12,...,row by row; their count m(m+1)/2 fixes m."""
    vals = [_parse_number(tok) for tok in spec.split(",")]
    m = (math.isqrt(8 * len(vals) + 1) - 1) // 2
    if len(vals) != m * (m + 1) // 2:
        raise InputError(f"metric needs m(m+1)/2 upper-triangle entries, got {len(vals)}")
    q = [[None] * m for _ in range(m)]
    it = iter(vals)
    for i in range(m):
        for j in range(i, m):
            v = next(it)
            q[i][j] = v
            q[j][i] = v
    return q


def _certificate_exit(cert: go_checker.GOCertificate) -> int:
    if cert.verified:
        return EXIT_PASS
    if cert.status == go_checker.REFUTED:
        return EXIT_REFUTED
    return EXIT_INCONCLUSIVE


def _metric_algebra(data: dict) -> algebra.MetricLieAlgebra:
    """Parse an algebra document whose Gram matrix is an inner product."""
    L = algebra.algebra_from_dict(data)
    algebra.require_spd(L.gram, "gram matrix")
    return L


def _load_algebra(path: str) -> algebra.MetricLieAlgebra:
    return _metric_algebra(_read_json(path))


def _load_subspace(path: str) -> SkewOperatorSubspace:
    """A subspace document {n, basis} or an algebra document (take J(z))."""
    data = _read_json(path)
    if isinstance(data, dict) and "basis" in data:
        try:
            n = algebra._parse_index(data["n"], "n")
        except KeyError as e:
            raise InputError(f"bad subspace document: {e}") from None
        if not 1 <= n <= algebra.MAX_DIM:
            raise InputError(f"n {n} outside [1, {algebra.MAX_DIM}]")
        return SkewOperatorSubspace(n, data["basis"])
    split = algebra.split_two_step(_metric_algebra(data))
    return SkewOperatorSubspace(split.n, jmaps.build_jmap_family(split).generators)


def cmd_validate(args) -> int:
    # diagnostics report a bad Gram matrix instead of rejecting it
    L = algebra.algebra_from_dict(_read_json(args.algebra))
    diag = algebra.validate(L)
    nil_class = None
    if diag.passed:
        try:
            nil_class = algebra.nilpotency_class(L)
        except InputError:  # not nilpotent: reported as null
            pass
    report = {
        "dim": L.dim,
        "antisymmetry_residual": diag.antisymmetry_residual,
        "jacobi_residual": diag.jacobi_residual,
        "gram_symmetry_residual": diag.gram_symmetry_residual,
        "gram_min_eigenvalue": diag.gram_min_eigenvalue,
        "passed": diag.passed,
        "nilpotency_class": nil_class,
    }
    _emit_json(args, report)
    return EXIT_PASS if diag.passed else EXIT_REFUTED


def cmd_family(args) -> int:
    params = {name: getattr(args, name) for name in ("k", "m", "copies") if getattr(args, name) is not None}
    if args.t is not None:
        params["t"] = _parse_number(args.t)
    if args.ts is not None:
        params["ts"] = [_parse_number(tok) for tok in args.ts.split(",")]
    metric = None if args.metric is None else _parse_metric(args.metric)
    _emit_json(args, algebra.algebra_to_dict(families.build_family(args.kind, params, metric)))
    return EXIT_PASS


def cmd_go_check(args) -> int:
    L = _load_algebra(args.algebra)
    config = go_checker.SamplerConfig(seed=args.seed, samples=args.samples)
    if args.criterion == "kv":
        cert = go_checker.kv_go_check(go_checker.isometry_decomposition(L), config)
    else:
        cert = go_checker.gordon_go_check(L, config=config)
    _emit_json(args, cert.to_dict())
    return _certificate_exit(cert)


def cmd_derivations(args) -> int:
    ders = skew_derivations(_load_algebra(args.algebra))
    _emit_json(args, {"dim": ders.dim, "basis": ders.basis.tolist()})
    return EXIT_PASS


def cmd_pfaffian(args) -> int:
    L = _load_algebra(args.algebra)
    split = algebra.split_two_step(L)
    p = jmaps.pfaffian_form(split)
    coeffs = [str(c) if isinstance(c, Fraction) else float(c) for c in p.coeffs]
    _emit_json(args, {"degree": p.degree, "coeffs": coeffs, "exact": p.is_exact})
    return EXIT_PASS


def cmd_invariant(args) -> int:
    pa = jmaps.pfaffian_form(algebra.split_two_step(_load_algebra(args.algebra_a)))
    pb = jmaps.pfaffian_form(algebra.split_two_step(_load_algebra(args.algebra_b)))
    verdict = invariants.distinguish(pa, pb)

    def safe_invariant(p):
        try:
            return invariants.moebius_invariant(invariants.pfaffian_roots(p))
        except NilgoError:
            return None

    _emit_json(
        args,
        {"verdict": verdict, "invariant_a": safe_invariant(pa), "invariant_b": safe_invariant(pb)},
    )
    if verdict == invariants.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def cmd_tnc(args) -> int:
    V = _load_subspace(args.subspace)
    config = go_checker.SamplerConfig(seed=args.seed, samples=args.samples)
    if args.nprime == "centralizer":
        cert = go_checker.centralizer_type_check(V, config)
    elif args.nprime == "self":
        cert = go_checker.tnc_check(V, V, config)
    else:
        cert = go_checker.tnc_check(V, normalizer_in_so(V), config)
    _emit_json(args, cert.to_dict())
    return _certificate_exit(cert)


def cmd_geodesic_compare(args) -> int:
    L = _load_algebra(args.algebra)
    x0 = np.array([float(_parse_number(tok)) for tok in args.x0.split(",")])
    cmp = geodesics.compare_geodesic_orbit(L, x0, T=args.horizon, h=args.step)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "deviation"])
        for t, dev in zip(cmp.times, cmp.deviations):
            writer.writerow([f"{t:.10g}", f"{dev:.17g}"])
        _emit(args, buf.getvalue())
    else:
        _emit_json(
            args,
            {
                "sup_deviation": cmp.sup_deviation,
                "endpoint_deviation": cmp.endpoint_deviation,
                "kv_residual": cmp.kv_residual,
                "steps": len(cmp.times) - 1,
            },
        )
    return EXIT_PASS


def _add_io(p):
    p.add_argument("-o", "--output", default=None, help="output path ('-' for stdout)")


def _add_sampling(p):
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.add_argument("--samples", type=int, default=200)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the bad-input code; argparse's 2 means inconclusive here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="nilgo",
        description="geodesic-orbit analysis of metric two-step nilpotent Lie algebras",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural diagnostics of an algebra document")
    p.add_argument("algebra", help="algebra JSON path ('-' for stdin)")
    _add_io(p)

    p = sub.add_parser("family", help="emit a built-in family as an algebra document")
    p.add_argument("kind", choices=families.FAMILY_KINDS)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--copies", type=int, default=None)
    p.add_argument("--t", default=None, help="deformation parameter (rational like 3/2, or float)")
    p.add_argument("--ts", default=None, help="comma-separated increasing parameters t_1,...,t_k")
    p.add_argument("--metric", default=None, help="upper-triangle center metric entries q11,q12,...")
    _add_io(p)

    p = sub.add_parser("go-check", help="geodesic-orbit certificate")
    p.add_argument("algebra")
    p.add_argument("--criterion", choices=("gordon", "kv"), default="gordon")
    _add_sampling(p)
    _add_io(p)

    p = sub.add_parser("derivations", help="basis of the skew derivation algebra")
    p.add_argument("algebra")
    _add_io(p)

    p = sub.add_parser("pfaffian", help="determinant form of a two-dimensional center")
    p.add_argument("algebra")
    _add_io(p)

    p = sub.add_parser("invariant", help="compare two algebras by root invariants")
    p.add_argument("algebra_a")
    p.add_argument("algebra_b")
    _add_io(p)

    p = sub.add_parser("tnc", help="transitive normalizer condition for an operator subspace")
    p.add_argument("subspace", help="subspace JSON {n, basis} or an algebra document")
    p.add_argument("--nprime", choices=("normalizer", "centralizer", "self"), default="normalizer")
    _add_sampling(p)
    _add_io(p)

    p = sub.add_parser("geodesic-compare", help="geodesic vs isometry-orbit deviation")
    p.add_argument("algebra")
    p.add_argument(
        "--x0", required=True, help="comma-separated initial velocity; write --x0=-0.3,... when it starts with a minus"
    )
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--step", type=float, default=1e-3)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_io(p)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser unchanged, so one serves the whole process
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # cmd_<subcommand>, looked up per call rather than bound into the cached parser
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except NilgoError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
