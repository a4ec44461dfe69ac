"""The package's modules import each other without a cycle."""

from __future__ import annotations

import ast
import graphlib
import pathlib

import syncthink

PACKAGE = "syncthink"
SOURCE = pathlib.Path(syncthink.__file__).parent


def module_name(path: pathlib.Path) -> str:
    return PACKAGE if path.stem == "__init__" else f"{PACKAGE}.{path.stem}"


def package_imports(source: str, modules: set[str]) -> set[str]:
    """Package modules imported anywhere in the source, function bodies included."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = PACKAGE + (f".{node.module}" if node.module else "")
            else:
                base = node.module or ""
            for alias in node.names:
                # `from . import jsonl` imports a module; `from . import
                # __version__` reads an attribute of the package itself
                sub = f"{base}.{alias.name}"
                found.add(sub if sub in modules else base)
    return {name for name in found if name in modules}


def import_graph() -> dict[str, set[str]]:
    paths = sorted(SOURCE.glob("*.py"))
    modules = {module_name(path) for path in paths}
    return {
        module_name(path): package_imports(path.read_text(encoding="utf-8"), modules)
        for path in paths
    }


def test_graph_sees_relative_and_function_level_imports():
    graph = import_graph()
    assert graph["syncthink.controller"] >= {"syncthink.jsonl", "syncthink.policy"}
    assert "syncthink" in graph["syncthink.cli"]  # from . import __version__
    nested = "def f():\n    from .evaluation import parse_answer\n"
    assert package_imports(nested, set(graph)) == {"syncthink.evaluation"}


def test_package_has_no_import_cycle():
    try:
        graphlib.TopologicalSorter(import_graph()).prepare()
    except graphlib.CycleError as exc:
        raise AssertionError(f"import cycle: {' -> '.join(exc.args[1])}") from None
