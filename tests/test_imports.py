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

_CHILD = """\
import json, sys
import kaczpr.cli

out = sys.argv[1]
for command in ("solve", "baseline", "rsc-scan"):
    kaczpr.cli.resolve_config(command, {}, None)
loaded = {"resolved": [name for name in %(unused)r if name in sys.modules]}
runs = [["solve", "--n", "4", "--m", "32", "--trials", "2", "--max-iters", "5"],
        ["baseline", "--n", "4", "--m", "32", "--trials", "2", "--max-iters", "5", "--serial"],
        ["rsc-scan", "--n", "4", "--m", "32", "--samples", "3"]]
for i, argv in enumerate(runs):
    assert kaczpr.cli.main([*argv, "--out", f"{out}/{i}"]) == 0
loaded["ran"] = [name for name in %(unused)r if name in sys.modules]
kaczpr.cli.main(["verify", "covariance", "--n", "4", "--m", "32", "--trials", "2"])
loaded["verified"] = "kaczpr.verify" in sys.modules
print(json.dumps(loaded))
"""


def test_runs_without_pool_or_lemma_import_neither(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _CHILD % {"unused": UNUSED}, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {
        "resolved": [], "ran": [], "verified": True}


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
