"""Toy-size self-check of the benchmark harness.

    python3 -m pytest benchmarks/test_harness.py -q

Runs every workload once at tiny sizes through run.py, untraced and traced,
and checks the output contract: every metric named in BENCHMARK.json is
emitted with its unit, failed_frac is computed, and a checkout without the
package source is refused.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _toy(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = _run(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
                "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def _check_result(lines, result, workload, expected_units):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected_units
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    frac = [line for line in lines if line.startswith(f"{workload} failed_frac ")]
    assert frac and frac[0].split()[2] == "0.0"


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    lines, result = _toy(workload, 0)
    _check_result(lines, result, workload, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric():
    lines, result = _toy("lemma-checks", 1)
    _check_result(lines, result, "lemma-checks", {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    calls = result["metrics"]
    assert calls["kaczmarz.run_pr.calls"]["value"] > 0
    assert calls["analysis.rsc_margin.calls"]["value"] > 0
    assert calls["analysis.expected_step.calls"]["value"] > 0


def test_checkout_without_source_is_refused(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", wl.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_failed_bounds_and_drifted_values_are_caught(tmp_path):
    cmd = wl.command("solve-planted")
    (tmp_path / "summary.json").write_text(json.dumps(
        {"checks": {"rate_bound": 0.99, "rate_ok": False, "exit_ok": True}}))
    assert wl.own_check(cmd, tmp_path, "") == ["summary check rate_ok is false"]
    assert wl.compare_scalars({"a": 1.0, "b": None}, {"a": 1.0, "b": None}) == []
    assert wl.compare_scalars({"a": 1.0 + 1e-12}, {"a": 1.0}) == []
    assert len(wl.compare_scalars({"a": 1.001}, {"a": 1.0})) == 1
