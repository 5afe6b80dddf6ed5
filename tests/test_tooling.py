"""Checks on the repository's tooling that the library itself cannot see."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
SRC = str(ROOT / "src")


def _tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name,target", sorted(_tracer_targets().items()))
def test_tracer_target_resolves(name, target):
    # a renamed library function would otherwise only break `perfbench/run.py --trace 1`
    module, attr = target
    assert callable(getattr(importlib.import_module(module), attr)), name


@pytest.mark.parametrize("attr", ["geodesic_integrate", "orbit_integrate"])
def test_integrators_keep_the_parameter_names_the_tracer_binds(attr):
    # the tracer counts RK4 steps as round(T / h) from the bound arguments
    params = inspect.signature(getattr(importlib.import_module("nilgo.geodesics"), attr)).parameters
    assert {"T", "h"} <= set(params)


def test_library_import_loads_no_scipy():
    # scipy is a test dependency only: the CLI must start without it
    code = "import sys, nilgo.cli; sys.exit(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
