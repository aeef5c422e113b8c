"""The benchmark calls into kaczpr; keep those names and their signatures.

benchmarks/ is not collected by the test suite, so a name dropped from
kaczpr/__init__.py, or a parameter renamed or removed, would otherwise
break the benchmark unnoticed.
"""

import ast
import importlib
import inspect
from pathlib import Path

import kaczpr

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
REPLAY = BENCHMARKS / "replay.py"
CALLERS = [REPLAY, BENCHMARKS / "sweep.py", BENCHMARKS / "child.py"]


def test_replay_imports_resolve_on_package_root():
    tree = ast.parse(REPLAY.read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "kaczpr"
        for alias in node.names
    ]
    assert names, "benchmarks/replay.py no longer imports from kaczpr"
    missing = [name for name in names if not hasattr(kaczpr, name)]
    assert missing == []


def _dotted(node) -> str | None:
    """`a.b.c` for a Name or a chain of Attributes on one, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _library_calls(path: Path):
    """(line, name, callee, call) for each call in `path` to a name from kaczpr or kaczpr.cli."""
    tree = ast.parse(path.read_text())
    imported = {}  # the name in the file -> the library object
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("kaczpr", "kaczpr.cli"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name in ("kaczpr", "kaczpr.cli")}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func)
        if name in imported:
            yield node.lineno, name, imported[name], node
        elif name and name.rpartition(".")[0] in modules:
            module, _, attr = name.rpartition(".")
            yield node.lineno, name, getattr(importlib.import_module(module), attr), node


def test_benchmark_calls_bind_to_the_library_signatures():
    checked, unbound = set(), []
    for path in CALLERS:
        for line, name, callee, call in _library_calls(path):
            if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
                    kw.arg is None for kw in call.keywords):
                continue  # *args or **kwargs: the count is not known from the source
            try:
                inspect.signature(callee).bind(*call.args, **{kw.arg: kw for kw in call.keywords})
            except TypeError as exc:
                unbound.append(f"{path.name}:{line}: {name}: {exc}")
            checked.add(name)
    assert unbound == []
    assert {"mc_F", "mc_G", "SolverConfig", "spectral_init", "InitConfig", "resolve_config",
            "kaczpr.cli.resolve_config", "planted_init"} <= checked
