"""The benchmark replay imports from the package root; keep those names there.

benchmarks/ is not collected by the test suite, so a name dropped from
kaczpr/__init__.py would otherwise break the benchmark unnoticed.
"""

import ast
from pathlib import Path

import kaczpr

REPLAY = Path(__file__).resolve().parents[1] / "benchmarks" / "replay.py"


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
