"""Every command's bytes against the committed manifest of this build."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent / "golden" / "write_manifest.py"
_WRITER = runpy.run_path(str(_SCRIPT))
SRC = Path(__file__).resolve().parents[1] / "src"


def test_runs_match_the_committed_manifest():
    key = _WRITER["build_key"]()
    entry = json.loads(_WRITER["MANIFEST"].read_text()).get(key)
    if entry is None:
        pytest.skip(f"no manifest entry for this build: {key!r}")
    assert _WRITER["digests"]() == entry


def _digests_in_a_child(preexec_fn=None) -> str:
    child = ("import json, runpy, sys\n"
             "print(json.dumps(runpy.run_path(sys.argv[1])['digests'](), sort_keys=True))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", child, str(_SCRIPT)], env=env,
                          capture_output=True, text=True, timeout=300, preexec_fn=preexec_fn)
    assert done.returncode == 0, done.stderr
    return done.stdout


# on any build: the runs cover the ensembles, the scans, the pool and the Monte Carlo slices
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a host with two usable cores")
def test_digests_do_not_depend_on_the_cores_a_run_may_use():
    one_core = _digests_in_a_child(lambda: os.sched_setaffinity(0, {0}))
    assert len(json.loads(one_core)) == len(_WRITER["RUNS"])
    assert one_core == _digests_in_a_child()
