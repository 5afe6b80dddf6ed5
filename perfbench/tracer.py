"""Spans around calls into the nilgo modules, installed from outside.

``Tracer.installed()`` replaces every binding of each traced function in
the loaded ``nilgo`` modules (including names imported with
``from ... import``) by a wrapper that records a span, and restores the
originals when the block ends.  Spans are kept in memory as
``(name, start, end, parent, op)`` and written out by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

# traced name -> (module, attribute); the name is the metric prefix
TARGETS = {
    "algebra.algebra_from_dict": ("nilgo.algebra", "algebra_from_dict"),
    "algebra.split_two_step": ("nilgo.algebra", "split_two_step"),
    "algebra.nilpotency_class": ("nilgo.algebra", "nilpotency_class"),
    "jmaps.split_family": ("nilgo.jmaps", "split_family"),
    "jmaps.build_jmap_family": ("nilgo.jmaps", "build_jmap_family"),
    "jmaps.build_jmap": ("nilgo.jmaps", "build_jmap"),
    "jmaps.pfaffian_form": ("nilgo.jmaps", "pfaffian_form"),
    "operator_subspaces.skew_derivations": ("nilgo.operator_subspaces", "skew_derivations"),
    "operator_subspaces.normalizer_in_so": ("nilgo.operator_subspaces", "normalizer_in_so"),
    "operator_subspaces.centralizer_in_so": ("nilgo.operator_subspaces", "centralizer_in_so"),
    "linear_core.nullspace": ("nilgo.linear_core", "nullspace"),
    "linear_core.least_squares": ("nilgo.linear_core", "least_squares"),
    "linear_core.pfaffian_exact": ("nilgo.linear_core", "pfaffian_exact"),
    "linear_core.interpolate_homogeneous2": ("nilgo.linear_core", "interpolate_homogeneous2"),
    "go_checker.gordon_go_check": ("nilgo.go_checker", "gordon_go_check"),
    "go_checker.kv_go_check": ("nilgo.go_checker", "kv_go_check"),
    "go_checker.tnc_check": ("nilgo.go_checker", "tnc_check"),
    "go_checker.kv_solve": ("nilgo.go_checker", "kv_solve"),
    "go_checker.isometry_decomposition": ("nilgo.go_checker", "isometry_decomposition"),
    "go_checker.gordon_refute_exact": ("nilgo.go_checker", "gordon_refute_exact"),
    # the elimination kernel behind the exact re-check (a private name)
    "go_checker.refute_elim": ("nilgo.go_checker", "_bareiss_pivots"),
    "geodesics.compare_geodesic_orbit": ("nilgo.geodesics", "compare_geodesic_orbit"),
    "geodesics.geodesic_integrate": ("nilgo.geodesics", "geodesic_integrate"),
    "geodesics.orbit_integrate": ("nilgo.geodesics", "orbit_integrate"),
    "geodesics.expm": ("nilgo.geodesics", "expm"),
    "invariants.distinguish": ("nilgo.invariants", "distinguish"),
    "invariants.pfaffian_roots": ("nilgo.invariants", "pfaffian_roots"),
    "cli.main": ("nilgo.cli", "main"),
}

# layers reported with calls and self time; the rest are reported below
TIMED = [
    "algebra.algebra_from_dict",
    "algebra.split_two_step",
    "algebra.nilpotency_class",
    "jmaps.build_jmap_family",
    "jmaps.build_jmap",
    "jmaps.pfaffian_form",
    "operator_subspaces.skew_derivations",
    "operator_subspaces.normalizer_in_so",
    "operator_subspaces.centralizer_in_so",
    "linear_core.nullspace",
    "linear_core.least_squares",
    "linear_core.pfaffian_exact",
    "linear_core.interpolate_homogeneous2",
    "go_checker.gordon_go_check",
    "go_checker.kv_go_check",
    "go_checker.tnc_check",
    "go_checker.kv_solve",
    "go_checker.isometry_decomposition",
    "go_checker.gordon_refute_exact",
    "geodesics.compare_geodesic_orbit",
    "geodesics.geodesic_integrate",
    "geodesics.orbit_integrate",
    "geodesics.expm",
    "invariants.distinguish",
    "invariants.pfaffian_roots",
    "cli.main",
]
CERTIFICATES = ("go_checker.gordon_go_check", "go_checker.kv_go_check", "go_checker.tnc_check")
INTEGRATORS = ("geodesics.geodesic_integrate", "geodesics.orbit_integrate")


def layer_metric_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "jmaps.split_family.calls": "count",
            "jmaps.family_build_ratio": "ratio",
            "go_checker.pairs_solved": "count",
            "go_checker.refute_elim_s": "s",
            "geodesics.rk4_steps": "count",
            "trace.spans": "count",
            "trace.overhead_s": "s",
        }
    )
    return units


def _rk4_steps(fn):
    sig = inspect.signature(fn)

    def steps(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        return int(round(bound.arguments["T"] / bound.arguments["h"]))

    return steps


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, op index, steps)
        self.op = -1  # index of the operation being run, set by the caller
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        steps = _rk4_steps(fn) if name in INTEGRATORS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot so spans stay in start order
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, steps(args, kwargs) if steps else 0)

        return traced

    @contextlib.contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items()) if n == "nilgo" or n.startswith("nilgo.")]
        try:
            for name, (module, attr) in TARGETS.items():
                original = getattr(importlib.import_module(module), attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(self._patched):
                setattr(mod, key, original)
            self._patched.clear()

    def layer_metrics(self) -> dict:
        """Calls, self time and the derived per-layer counts."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for i, (name, start, end, _, _, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += (end - start) - child_time[i]

        def under(i, names):
            parent = spans[i][3]
            while parent >= 0:
                if spans[parent][0] in names:
                    return True
                parent = spans[parent][3]
            return False

        lookups = calls["jmaps.split_family"]
        builds = sum(
            1
            for name, _, _, parent, _, _ in spans
            if name == "jmaps.build_jmap_family" and parent >= 0 and spans[parent][0] == "jmaps.split_family"
        )
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out["jmaps.split_family.calls"] = lookups
        out["jmaps.family_build_ratio"] = builds / lookups if lookups else 0.0
        out["go_checker.pairs_solved"] = sum(
            1 for i, s in enumerate(spans) if s[0] == "linear_core.least_squares" and under(i, CERTIFICATES)
        )
        out["go_checker.refute_elim_s"] = sum(e - s for n, s, e, *_ in spans if n == "go_checker.refute_elim")
        out["geodesics.rk4_steps"] = sum(s[5] for s in spans)
        out["trace.spans"] = len(spans)
        return out

    def dump(self, path: str, labels: list) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "names": names,
                    "ops": labels,
                    "spans": [[index[n], s, e, p, op] for n, s, e, p, op, _ in self.spans],
                },
                fh,
            )
