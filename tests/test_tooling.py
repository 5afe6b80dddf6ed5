"""Checks on the repository's tooling that the library itself cannot see."""

import ast
import dataclasses
import graphlib
import importlib
import importlib.util
import inspect
import os
import pkgutil
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


def _identifiers(tree) -> set:
    """Names, attributes, imported names and string constants in an AST."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def _uses(node, kinds=(ast.Name, ast.Attribute)) -> set:
    """Names and attributes (or only the nodes of ``kinds``) read inside one statement (imports excluded)."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, kinds)}


def _root_uses(tree) -> set:
    """Names, attributes and string constants read in a root file; a name it only imports is no use."""
    return _uses(tree) | {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}


def _library_units():
    """``(qualified name, defined names, is a method, nodes)`` for each unit of
    ``src/nilgo``: a top-level statement, with each public method of a class
    as a unit of its own.  A unit is reached through a use of a name it
    defines, a method only through an attribute; a statement that defines
    no name runs on import.  ``nodes`` are what the unit reads once reached."""
    for path in sorted((ROOT / "src" / "nilgo").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                qualname, defined = f"{path.stem}.{node.name}", {node.name}
            elif isinstance(node, ast.Assign):
                qualname, defined = None, set().union(*(_uses(target, ast.Name) for target in node.targets))
            else:
                qualname, defined = None, set()
            if not isinstance(node, ast.ClassDef):
                yield qualname, defined, False, [node]
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
            for m in methods:
                yield f"{qualname}.{m.name}", {m.name}, True, [m]
            rest = [s for s in node.body if s not in methods]
            yield qualname, defined, False, [*node.decorator_list, *node.bases, *node.keywords, *rest]


def test_every_public_definition_is_reachable():
    # a public definition that no live root reaches is code only its own unit tests keep alive;
    # the roots are the CLI's cmd_* commands, code that runs on import and what perfbench/ (the
    # tracer's target strings included) and the acceptance criteria use.  An entry in
    # nilgo.__all__ or an import reaches nothing.
    roots = [ast.parse(p.read_text()) for p in [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]]
    names = set().union(*map(_root_uses, roots))
    attributes = set().union(*(_uses(tree, ast.Attribute) for tree in roots))
    units = list(_library_units())
    pending = list(range(len(units)))
    while True:
        reached = [
            i
            for i in pending
            for qualname, defined, is_method, _ in [units[i]]
            if not defined or (qualname or "").startswith("cli.cmd_") or defined & (attributes if is_method else names)
        ]
        if not reached:
            break
        for i in reached:
            pending.remove(i)
            for node in units[i][3]:
                names |= _uses(node)
                attributes |= _uses(node, ast.Attribute)
    unreached = [units[i][0] for i in pending if units[i][0] and not units[i][0].rpartition(".")[2].startswith("_")]
    assert not unreached, f"public definitions no live root reaches: {unreached}"


def _public_callables_and_fields():
    """``(qualified name, parameter or field names)`` for every public function,
    public method and dataclass of the ``nilgo`` modules."""
    import nilgo

    for info in pkgutil.iter_modules(nilgo.__path__):
        module = importlib.import_module(f"nilgo.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", set(inspect.signature(obj).parameters)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    yield f"{info.name}.{name}", {f.name for f in dataclasses.fields(obj)}
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", set(inspect.signature(member).parameters)


def test_one_rank_threshold():
    # every rank decision, the sweep solves included, uses linear_core.TAU_RANK,
    # and every certificate go_checker.TAU_FEAS and TAU_REFUTE, which certificates
    # record; no function or field takes another cut or threshold
    from nilgo.go_checker import SamplerConfig

    cuts = {"tau_rank", "cond_limit", "tau_feas", "tau_refute", "tol"}
    takers = [name for name, params in _public_callables_and_fields() if params & cuts]
    assert takers == []
    assert SamplerConfig().tolerances() == {"tau_feas": 1e-8, "tau_refute": 1e-4, "tau_rank": 1e-9}


def test_library_reads_no_environment():
    # a certificate is reproducible only if it depends on its arguments and files alone
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "nilgo").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and _identifiers(node) & readers
    ]
    assert found == []


def test_library_has_one_least_squares_kernel():
    # every least-squares solve is linear_core.least_squares, one stacked SVD cut at TAU_RANK
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "nilgo").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and "lstsq" in _identifiers(node)
    ]
    assert found == []


def test_library_imports_are_module_level_and_acyclic():
    # an import inside a function hides a dependency, and a cycle between the
    # modules would make the import order decide which names exist
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "nilgo").glob("*.py"))}
    local = [
        f"{module}.py:{node.lineno}"
        for module, tree in trees.items()
        for scope in ast.walk(tree)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for node in ast.walk(scope)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert local == []
    # module -> the sibling modules its top-level relative imports name
    edges = {
        module: {
            target
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for target in ([node.module] if node.module else [alias.name for alias in node.names])
        }
        for module, tree in trees.items()
    }
    graphlib.TopologicalSorter(edges).prepare()  # raises CycleError naming the cycle
