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


def _public_definitions(statements):
    """``(module, qualified name, node, top)`` for each public top-level function
    or class and each public method or property of a public class, with the
    top-level statement ``top`` that holds it."""
    for module, node in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield module, node.name, node, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield module, f"{node.name}.{member.name}", member, node


def test_every_public_definition_is_reachable():
    # a public definition that no live root reaches is code only its own unit tests keep alive
    import nilgo

    statements = [
        (path.stem, node)
        for path in sorted((ROOT / "src" / "nilgo").glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    roots = [ast.parse(p.read_text()) for p in [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]]
    external = set().union(*map(_identifiers, roots))
    external_attributes = set().union(*(_uses(tree, ast.Attribute) for tree in roots))
    unreached = []
    for module, qualname, node, top in _public_definitions(statements):
        # uses in the other top-level statements, and for a method in the other members of its class
        others = [other for _, other in statements if other is not top]
        name = node.name
        if node is top:
            kinds = (ast.Name, ast.Attribute)
            reached = name in nilgo.__all__ or (module == "cli" and name.startswith("cmd_")) or name in external
        else:  # a method or property is used as an attribute (`.name`), never through a bare name
            others += [member for member in top.body if member is not node]
            kinds = ast.Attribute
            reached = name in external_attributes
        if not (reached or any(name in _uses(other, kinds) for other in others)):
            unreached.append(f"{module}.{qualname}")
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
