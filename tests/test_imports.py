"""The package's modules import each other without a cycle, only jsonl
writes CSV cells, only policy states the top-K rule, every name the
benchmark tracer wraps exists, every name README imports from the
package resolves, and the modules each entry point loads are pinned."""

from __future__ import annotations

import ast
import functools
import graphlib
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import syncthink

PACKAGE = "syncthink"
SOURCE = pathlib.Path(syncthink.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"


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


def table_rule_uses(source: str) -> set[str]:
    """Where the source imports csv or names format_float (a call, an
    attribute or an import of it)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
            found.add("import csv")
        elif isinstance(node, ast.ImportFrom) and node.module == "csv":
            found.add("import csv")
        elif isinstance(node, ast.ImportFrom) and any(a.name == "format_float"
                                                       for a in node.names):
            found.add("format_float")
        elif isinstance(node, ast.Name) and node.id == "format_float":
            found.add("format_float")
        elif isinstance(node, ast.Attribute) and node.attr == "format_float":
            found.add("format_float")
    return found


def test_only_jsonl_writes_table_cells():
    # every CSV cell goes through jsonl.write_csv's one rule
    uses = {module_name(path): table_rule_uses(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py"))}
    assert uses.pop("syncthink.jsonl") == {"import csv", "format_float"}
    assert {name: found for name, found in uses.items() if found} == {}
    assert table_rule_uses("from .jsonl import format_float\njsonl.format_float(1.0)\n"
                           "import csv\n") == {"import csv", "format_float"}


# the names of the top-K rule's mass tolerance and token types
TOPK_RULE_NAMES = {"MASS_TOLERANCE", "_TOKEN_TYPES"}


def topk_rule_uses(source: str) -> set[str]:
    """Where the source raises MalformedDistributionError or names the top-K
    rule's tolerance or token types (a name, an attribute or an import)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if getattr(exc, "id", getattr(exc, "attr", None)) == "MalformedDistributionError":
                found.add("raise MalformedDistributionError")
        elif isinstance(node, ast.Name) and node.id in TOPK_RULE_NAMES:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in TOPK_RULE_NAMES:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names if a.name in TOPK_RULE_NAMES)
    return found


def test_only_policy_states_the_top_k_rule():
    # replay and the live client take a top-K by one rule, policy.topk_probs
    uses = {module_name(path): topk_rule_uses(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py"))}
    assert uses.pop("syncthink.policy") == {"raise MalformedDistributionError",
                                            *TOPK_RULE_NAMES}
    assert {name: found for name, found in uses.items() if found} == {}
    assert topk_rule_uses("raise errors.MalformedDistributionError('x')\n") == {
        "raise MalformedDistributionError"}
    assert topk_rule_uses("raise MalformedDistributionError\n") == {
        "raise MalformedDistributionError"}
    assert topk_rule_uses("from .policy import MASS_TOLERANCE\npolicy._TOKEN_TYPES\n"
                          "_TOKEN_TYPES = {int, str}\n") == TOPK_RULE_NAMES
    # catching it, as the live client does, is not stating the rule
    assert topk_rule_uses("try:\n    f()\nexcept MalformedDistributionError:\n    pass\n") == set()


def tracer_targets() -> list[tuple[str, str, str]]:
    """perfbench/tracer.py's TARGETS, read without importing the tracer."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
        if names == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


@pytest.mark.parametrize("module,path", [target[:2] for target in tracer_targets()])
def test_tracer_target_resolves(module, path):
    # a renamed function would otherwise break only the traced benchmark run
    functools.reduce(getattr, path.split("."), importlib.import_module(module))


def readme_imports() -> list[str]:
    """Every name a `from syncthink import ...` line of README.md imports."""
    names = []
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith(f"from {PACKAGE} import "):
            [node] = ast.parse(line.strip()).body
            names += [alias.name for alias in node.names]
    return names


def test_readme_imports_resolve():
    names = readme_imports()
    assert names, "README imports nothing from the package"
    assert [name for name in names if not hasattr(syncthink, name)] == []


def test_exports_resolve():
    assert [name for name in syncthink.__all__ if not hasattr(syncthink, name)] == []


# what `import <entry point>` loads of the package, in a fresh interpreter;
# a change that moves command or stub start-up says so by changing these
STARTUP_MODULES = {
    "syncthink.cli": [
        "syncthink", "syncthink.cli", "syncthink.client", "syncthink.controller",
        "syncthink.errors", "syncthink.evaluation", "syncthink.jsonl",
        "syncthink.phase_analysis", "syncthink.policy", "syncthink.saliency",
        "syncthink.synthetic", "syncthink.trace",
    ],
    "syncthink.stub": [
        "syncthink", "syncthink.errors", "syncthink.jsonl", "syncthink.policy",
        "syncthink.stub", "syncthink.trace",
    ],
}


@pytest.mark.parametrize("entry", sorted(STARTUP_MODULES))
def test_entry_point_loads_only_its_modules(entry):
    code = (f"import sys, {entry}; print(' '.join(sorted(m for m in sys.modules"
            f" if m == {PACKAGE!r} or m.startswith({PACKAGE + '.'!r}))))")
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == STARTUP_MODULES[entry]


def test_analyze_records_leaves_numpy_ma_unloaded(tmp_path):
    # np.median imports numpy.ma on its first call; aggregate_macro's
    # median does without it
    from syncthink.controller import run_generation, write_records
    from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic
    from syncthink.trace import TraceReader

    records = tmp_path / "records.jsonl"
    write_records(str(records), [
        run_generation(TraceReader(generate_synthetic(SyntheticPhaseSpec(seed=seed))), "full",
                       sample_id=f"s{seed}")
        for seed in (0, 1)
    ])
    out = tmp_path / "out"
    code = ("import sys; from syncthink.cli import main; "
            f"code = main(['analyze', '--records', {str(records)!r}, '--out', {str(out)!r}]); "
            "print(code, 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.split() == ["0", "False"], result.stderr
    assert (out / "macro_median.csv").exists()


def load_benchmark_module(name: str):
    """perfbench/<name>.py as a module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", ["replay", "live"])
def test_benchmark_feed_runs_one_cycle(mode, tmp_path, monkeypatch):
    # a drift in run_generation or session setup would otherwise break
    # only the benchmark's feed process (run_failed)
    from syncthink.stub import StubServer
    from syncthink.synthetic import SyntheticPhaseSpec, generate_synthetic
    from syncthink.trace import read_trace, write_trace

    trace = tmp_path / "t.jsonl"
    write_trace(generate_synthetic(SyntheticPhaseSpec(phase_lengths=(6, 6, 20, 6), seed=1),
                                   topk_width=17), str(trace))
    # perfbench/ is read, never written: no bytecode lands beside its files
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # feed.py imports the tracer by its bare name
    monkeypatch.setitem(sys.modules, "tracer", load_benchmark_module("tracer"))
    feed = load_benchmark_module("feed")
    policies = ["full", "syncthink", "answer_convergence"]
    config = {"mode": mode, "traces": [str(trace)], "top_logprobs": 17, "pacing_cap": 16,
              "policies": policies, "task_kind": "numeric", "cycle_steps": 200}
    with StubServer(read_trace(str(trace))) as stub:
        result = feed.Feed({**config, "base_url": stub.base_url}).cycle()
    assert result["failures"] == []
    assert result["attempted"] >= len(policies) and result["steps"] > 0
