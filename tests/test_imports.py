"""Import hygiene: every name a library module imports is used there, or is
an alias kept only for the benchmark tracer, which wraps it by name; every
private module-level helper is used by the library itself; and every public
method of a library class is used by the library or the benchmarks."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "matgraph").glob("*.py") if p.name != "__init__.py")
MODULE_HOOKS = {"__getattr__", "__dir__"}  # called by the import system, not by name


def _traced_names():
    """(module name, attribute) of every module attribute the tracer wraps."""
    spec = importlib.util.spec_from_file_location("matgraph_bench_tracing", ROOT / "benchmarks" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
    finally:
        tracer.uninstall()
    return {(owner.__name__, attr) for owner, attr, _ in patches if not isinstance(owner, type)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_traced(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = f"matgraph.{path.stem}"
    traced = _traced_names()
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name in used:
                continue
            if not noqa:
                problems.append(f"line {node.lineno}: {name} is imported but unused")
            elif (module, name) not in traced:
                problems.append(f"line {node.lineno}: {name} is kept for the tracer, which no longer wraps it")
    assert not problems, f"{path.name}: " + "; ".join(problems)


def _names(node):
    """The names a node loads or reads as an attribute."""
    names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
    return names | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}


def _statement_references():
    """(module file name, top-level statement, the names it loads or reads
    as an attribute) for every top-level statement of the library."""
    out = []
    for path in sorted((ROOT / "src" / "matgraph").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            out.append((path.name, stmt, _names(stmt)))
    return out


STATEMENTS = _statement_references()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_helper_is_used_by_the_library(path):
    unused = [
        stmt.name
        for module, stmt, _ in STATEMENTS
        if module == path.name
        and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and stmt.name not in MODULE_HOOKS
        and not any(other is not stmt and stmt.name in names for _, other, names in STATEMENTS)
    ]
    assert not unused, f"{path.name}: referenced nowhere in src/matgraph outside their own definitions: {unused}"


def _member_references():
    """(file path, class name or None, statement, its names) for every
    top-level statement of the library and the benchmarks, each class split
    into the statements of its body, so a method's own body is no use of it."""
    out = []
    for path in sorted((ROOT / "src" / "matgraph").glob("*.py")) + sorted((ROOT / "benchmarks").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                out.extend((path, stmt.name, item, _names(item)) for item in stmt.body)
            else:
                out.append((path, None, stmt, _names(stmt)))
    return out


MEMBERS = _member_references()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_method_is_used_by_the_library_or_benchmarks(path):
    # Tests alone do not keep a method alive; dunders are called by the language.
    unused = [
        f"{cls}.{stmt.name}"
        for file, cls, stmt, _ in MEMBERS
        if file == path
        and cls is not None
        and isinstance(stmt, ast.FunctionDef)
        and not stmt.name.startswith("_")
        and not any(other is not stmt and stmt.name in names for _, _, other, names in MEMBERS)
    ]
    assert not unused, f"{path.name}: referenced nowhere in src/matgraph or benchmarks/ outside their own defs: {unused}"
