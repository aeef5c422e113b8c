"""What importing the package loads, and the names its root resolves."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kaczpr

SRC = Path(__file__).resolve().parents[1] / "src"
# what a run that takes no pool and checks no lemma never needs; numpy.ma
# came with np.median
UNUSED = ("concurrent.futures.process", "multiprocessing", "kaczpr.verify", "numpy.ma")
# loaded by rsc-scan alone
ANALYSIS = "kaczpr.analysis"
RUNS = {
    "solve": ["solve", "--n", "4", "--m", "32", "--trials", "2", "--max-iters", "5"],
    "baseline": ["baseline", "--n", "4", "--m", "32", "--trials", "2", "--max-iters", "5",
                 "--serial"],
    "rsc-scan": ["rsc-scan", "--n", "4", "--m", "32", "--samples", "3"],
    # fails its bound at this size, exit 1, but loads what it always loads
    "verify covariance": ["verify", "covariance", "--n", "4", "--m", "32", "--trials", "2"],
}

# resolves every run command's defaults, then runs the commands named on
# its command line in order; prints the exit statuses and, after resolving
# and after each run, which of the watched modules are loaded
_CHILD = """\
import json, sys
import kaczpr.cli

out, watched, runs = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
for command in ("solve", "baseline", "rsc-scan"):
    kaczpr.cli.resolve_config(command, {}, None)
loaded = [[name for name in watched if name in sys.modules]]
statuses = []
for i, argv in enumerate(runs):
    statuses.append(kaczpr.cli.main([*argv, "--out", f"{out}/{i}"]))
    loaded.append([name for name in watched if name in sys.modules])
print(json.dumps([statuses, loaded]))
"""


def _loaded_after_each(tmp_path, commands: list) -> tuple[list, list]:
    """Exit statuses of the commands run in order in one process, and the
    watched modules loaded after resolving and after each command."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    args = [json.dumps([*UNUSED, ANALYSIS]), json.dumps([RUNS[c] for c in commands])]
    done = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path), *args],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return tuple(json.loads(done.stdout.splitlines()[-1]))


def test_runs_without_pool_or_lemma_import_neither(tmp_path):
    statuses, loaded = _loaded_after_each(
        tmp_path, ["solve", "baseline", "rsc-scan", "verify covariance"])
    assert statuses == [0, 0, 0, 1]
    assert loaded == [[], [], [], [ANALYSIS], ["kaczpr.verify", ANALYSIS]]


def test_only_rsc_scan_loads_the_margin_analysis(tmp_path):
    statuses, loaded = _loaded_after_each(
        tmp_path, ["solve", "baseline", "verify covariance", "rsc-scan"])
    assert statuses == [0, 0, 1, 0]
    assert loaded == [[], [], [], ["kaczpr.verify"], ["kaczpr.verify", ANALYSIS]]


def test_every_public_name_resolves_from_the_package_root():
    assert len(kaczpr.__all__) == len(set(kaczpr.__all__)) == 44
    for name in kaczpr.__all__:
        module = importlib.import_module(f"kaczpr.{kaczpr._HOME[name]}")
        assert getattr(kaczpr, name) is getattr(module, name)
    namespace = {}
    exec("from kaczpr import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(kaczpr.__all__)
    assert set(kaczpr.__all__) <= set(dir(kaczpr))
    assert "__version__" in dir(kaczpr)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kaczpr.no_such_name  # noqa: B018
    assert not hasattr(kaczpr, "ProcessPoolExecutor")
