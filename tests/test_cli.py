import contextlib
import io
import json
import os
import pickle
import re
import string
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczpr.cli import ExperimentConfig, config_hash, main, resolve_config


def run_cli(args):
    return main(args)


def read_json(path):
    return json.loads(path.read_text())


def test_solve_writes_all_artifacts(tmp_path):
    out = tmp_path / "solve"
    rc = run_cli(
        ["solve", "--n", "12", "--m", "96", "--trials", "3", "--max-iters", "50",
         "--seed", "5", "--out", str(out)]
    )
    assert rc == 0
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert agg[0] == "k,mean_dist2,median_dist,frac_exited"
    assert len(agg) == 52  # header + k = 0..50
    summary = read_json(out / "summary.json")
    for key in ("seed", "generator", "config_hash", "max_contraction_ratio", "frac_exited"):
        assert key in summary
    for t in range(3):
        assert (out / f"trace_{t:04d}.csv").exists()
        sidecar = read_json(out / f"trace_{t:04d}.json")
        assert sidecar["stream_id"] == t
        assert sidecar["config_hash"] == summary["config_hash"]


def test_solve_zero_iters_single_trial(tmp_path):
    out = tmp_path / "zero"
    rc = run_cli(
        ["solve", "--n", "8", "--m", "64", "--trials", "1", "--max-iters", "0",
         "--seed", "3", "--out", str(out)]
    )
    assert rc == 0
    agg = (out / "aggregate.csv").read_text().splitlines()
    assert len(agg) == 2
    first = agg[1].split(",")
    assert float(first[1]) == pytest.approx(0.005**2, rel=1e-9)


def test_solve_byte_identical_reruns(tmp_path):
    args = ["solve", "--n", "10", "--m", "80", "--trials", "4", "--max-iters", "40", "--seed", "9"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_cli(args + ["--out", str(out1), "--serial"]) == 0
    assert run_cli(args + ["--out", str(out2), "--serial"]) == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_solve_threads_match_serial(tmp_path):
    args = ["solve", "--n", "10", "--m", "80", "--trials", "4", "--max-iters", "40", "--seed", "9"]
    ser, par = tmp_path / "ser", tmp_path / "par"
    assert run_cli(args + ["--out", str(ser), "--serial"]) == 0
    assert run_cli(args + ["--out", str(par), "--threads", "3"]) == 0
    for name in sorted(p.name for p in ser.iterdir()):
        assert (ser / name).read_bytes() == (par / name).read_bytes()


def test_solve_radius_guard(tmp_path):
    rc = run_cli(
        ["solve", "--n", "8", "--m", "64", "--trials", "1", "--max-iters", "5",
         "--radius", "0.2", "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    rc = run_cli(
        ["solve", "--n", "8", "--m", "64", "--trials", "1", "--max-iters", "5",
         "--radius", "0.2", "--allow-radius-override", "--out", str(tmp_path / "y")]
    )
    assert rc == 0
    # the bound is 0.01 * delta to a few ulps: 0.01 * 0.7 lies 1 ulp below 0.007
    for delta, radius in [(0.5, 0.005), (0.7, 0.007), (0.35, 0.0035)]:
        resolve_config("solve", {"delta": delta, "planted_radius": radius}, None)
    for delta, radius in [(1e-14, 1e-15), (1e-14, 1.1e-15)]:
        with pytest.raises(ValueError, match="--radius exceeds 0.01 [*] --delta"):
            resolve_config("solve", {"delta": delta, "planted_radius": radius}, None)


def test_config_file_and_env_precedence(tmp_path, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n": 8, "m": 64, "trials": 2, "max_iters": 7, "seed": 1}))
    monkeypatch.setenv("KACZPR_SEED", "2")
    cfg = resolve_config("solve", {"trials": 3}, str(cfg_file))
    assert cfg.n == 8  # from file
    assert cfg.seed == 2  # env beats file
    assert cfg.trials == 3  # CLI beats env and file
    monkeypatch.delenv("KACZPR_SEED")
    cfg = resolve_config("solve", {}, str(cfg_file))
    assert cfg.seed == 1


def test_config_rejects_unknown_keys(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    rc = run_cli(["solve", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_config_hash_ignores_execution_keys():
    a = resolve_config("solve", {"n": 8, "m": 64, "max_iters": 5, "trials": 1, "out_dir": "a"}, None)
    b = resolve_config(
        "solve",
        {"n": 8, "m": 64, "max_iters": 5, "trials": 1, "out_dir": "b", "threads": 7, "serial": True},
        None,
    )
    assert config_hash(a) == config_hash(b)


def test_m_over_n_resolution():
    cfg = resolve_config("solve", {"n": 16, "m_over_n": 4, "trials": 1, "max_iters": 1}, None)
    assert cfg.m == 64
    # explicit ratio beats the command's default m, explicit m beats the ratio
    cfg = resolve_config("baseline", {"n": 16, "m_over_n": 4}, None)
    assert cfg.m == 64
    cfg = resolve_config("baseline", {"n": 16, "m_over_n": 4, "m": 100}, None)
    assert cfg.m == 100


def test_unwritable_output_reports_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("occupied")
    rc = run_cli(["solve", "--n", "8", "--m", "64", "--trials", "1", "--max-iters", "2",
                  "--out", str(blocker / "nested")])
    assert rc == 2
    assert "kaczpr:" in capsys.readouterr().err


def test_trace_regenerates_from_sidecar_config(tmp_path):
    from kaczpr.cli import _trial

    out = tmp_path / "run"
    assert run_cli(["solve", "--n", "10", "--m", "80", "--trials", "2", "--max-iters", "30",
                    "--seed", "31", "--out", str(out)]) == 0
    stored = read_json(out / "summary.json")["config"]
    cfg = ExperimentConfig(out_dir="unused", threads=1, serial=False, check=False, **stored)
    sidecar = read_json(out / "trace_0001.json")
    trace = _trial(cfg, sidecar["trial"])
    regen = tmp_path / "regen.csv"
    trace.to_csv(regen)
    assert regen.read_bytes() == (out / "trace_0001.csv").read_bytes()


def test_rsc_scan_artifacts_and_assertion(tmp_path):
    out = tmp_path / "scan"
    rc = run_cli(["rsc-scan", "--n", "16", "--m", "256", "--samples", "25",
                  "--seed", "4", "--out", str(out)])
    assert rc == 0
    lines = (out / "rsc_scan.csv").read_text().splitlines()
    assert lines[0] == "sample_id,h_norm,f,D,gamma_hat"
    assert len(lines) == 26
    doc = read_json(out / "rsc_scan.json")
    assert doc["passed"] and doc["asserted"]
    assert doc["min_gamma"] >= doc["threshold"]
    gammas = [float(line.split(",")[4]) for line in lines[1:]]
    assert min(gammas) == pytest.approx(doc["min_gamma"], rel=1e-12)


def test_rsc_scan_empty_and_override(tmp_path):
    out = tmp_path / "empty"
    rc = run_cli(["rsc-scan", "--n", "8", "--m", "64", "--samples", "0",
                  "--seed", "4", "--out", str(out)])
    assert rc == 0
    assert (out / "rsc_scan.csv").read_text() == "sample_id,h_norm,f,D,gamma_hat\n"
    doc = read_json(out / "rsc_scan.json")
    assert doc["min_gamma"] is None and not doc["asserted"]

    out2 = tmp_path / "wide"
    rc = run_cli(["rsc-scan", "--n", "8", "--m", "256", "--samples", "10",
                  "--seed", "4", "--ball", "0.5", "--out", str(out2)])
    assert rc == 0  # report-only outside the certified ball
    doc2 = read_json(out2 / "rsc_scan.json")
    assert not doc2["asserted"] and "passed" not in doc2


def test_verify_f_stdout_and_exit(tmp_path, capsys):
    out = tmp_path / "ver"
    rc = run_cli(["verify", "F", "--lambda", "3", "--sigma", "0", "--samples", "20000",
                  "--seed", "8", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    docs = [json.loads(line) for line in lines]
    assert [d["name"] for d in docs] == ["F", "F_vs_series"]
    assert docs[0]["passed"] and docs[0]["bound"] == pytest.approx(0.3125)
    assert (out / "report_F.json").exists()


def test_verify_g_writes_each_ceiling_to_its_own_report(tmp_path, capsys):
    out = tmp_path / "ver"
    rc = run_cli(["verify", "G", "--lambda", "0.4", "--sigma", "0.5", "--samples", "20000",
                  "--seed", "8", "--out", str(out)])
    assert rc == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.strip().splitlines()]
    assert [d["name"] for d in docs] == ["G", "G"]
    assert docs[0]["bound"] < docs[1]["bound"]  # the closed ceiling, then the loose one
    assert sorted(p.name for p in out.iterdir()) == ["report_G.json", "report_G_loose.json"]
    assert read_json(out / "report_G.json") == docs[0]
    assert read_json(out / "report_G_loose.json") == docs[1]


def test_verify_g_domain_error():
    assert run_cli(["verify", "G", "--lambda", "0.9", "--seed", "1"]) == 2


def test_verify_covariance_report(capsys):
    rc = run_cli(["verify", "covariance", "--n", "8", "--m", "512", "--delta", "0.5",
                  "--trials", "10", "--seed", "6"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert doc["name"] == "covariance" and doc["passed"]


def test_verify_scan_subcommands(capsys):
    rc = run_cli(["verify", "restricted-ratio", "--n", "16", "--m", "1024", "--lambda", "3",
                  "--delta", "0.1", "--h-samples", "50", "--seed", "3"])
    assert rc == 0
    rc = run_cli(["verify", "truncated-moment", "--n", "16", "--m", "1024", "--lambda", "0.4",
                  "--delta", "0.1", "--h-samples", "50", "--seed", "3"])
    assert rc == 0
    capsys.readouterr()


def test_baseline_artifacts_and_planted_zero(tmp_path):
    out = tmp_path / "base"
    rc = run_cli(["baseline", "--n", "12", "--m", "96", "--trials", "2", "--max-iters", "30",
                  "--seed", "2", "--out", str(out)])
    assert rc == 0
    summary = read_json(out / "summary.json")
    assert summary["final_median_dist"] < 1.0

    flat = tmp_path / "flat"
    rc = run_cli(["baseline", "--n", "12", "--m", "96", "--trials", "1", "--max-iters", "30",
                  "--init", "planted", "--radius", "0", "--seed", "2", "--out", str(flat)])
    assert rc == 0
    rows = np.genfromtxt(flat / "trace_0000.csv", delimiter=",", names=True)
    assert np.all(rows["dist"][:-1] <= 1e-12)


def test_solve_check_passes_at_scale(tmp_path):
    out = tmp_path / "chk"
    rc = run_cli(["solve", "--n", "32", "--m", "512", "--trials", "100", "--max-iters", "50",
                  "--seed", "21", "--out", str(out), "--check"])
    assert rc == 0
    checks = read_json(out / "summary.json")["checks"]
    assert checks["rate_ok"] and checks["exit_ok"]


def test_baseline_check_passes_at_scale(tmp_path):
    out = tmp_path / "chk"
    rc = run_cli(["baseline", "--n", "32", "--m", "512", "--trials", "20", "--max-iters", "1600",
                  "--seed", "22", "--out", str(out), "--check"])
    assert rc == 0
    assert read_json(out / "summary.json")["checks"]["median_ok"]


def test_baseline_deterministic(tmp_path):
    args = ["baseline", "--n", "12", "--m", "96", "--trials", "2", "--max-iters", "30", "--seed", "2"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert (a / "aggregate.csv").read_bytes() == (b / "aggregate.csv").read_bytes()


def test_experiment_config_validation():
    fields = dict(command="solve", n=8, m=8, model="sphere", trials=1, max_iters=1,
                  init="planted", planted_radius=0.005, delta=0.5, seed=0, out_dir="x",
                  threads=1, serial=False, scale=1.0, ball_radius=0.01, samples=1000,
                  h_samples=500, lam=3.0, sigma=0.0, lemma="", check=False,
                  allow_radius_override=False)
    ExperimentConfig(**fields)
    with pytest.raises(ValueError):
        ExperimentConfig(**dict(fields, n=0))
    with pytest.raises(ValueError):
        ExperimentConfig(**dict(fields, init="warm"))


def test_solve_reports_non_finite_iterate(tmp_path, monkeypatch, capsys):
    import kaczpr.cli as cli
    from kaczpr import Measurements

    monkeypatch.setattr(cli, "measure", lambda e, x: Measurements(values=np.full(e.m, 1e308)))
    rc = run_cli(["solve", "--n", "8", "--m", "64", "--trials", "2", "--max-iters", "100",
                  "--serial", "--out", str(tmp_path / "blowup")])
    assert rc == 2
    assert re.search(r"kaczpr: non-finite iterate at step \d+, produced by row \d+",
                     capsys.readouterr().err)


def test_a_rerun_into_a_used_out_keeps_only_its_own_artifacts(tmp_path, monkeypatch, capsys):
    import kaczpr.cli as cli
    from kaczpr import Measurements

    out = tmp_path / "out"
    run = ["solve", "--n", "8", "--m", "64", "--serial", "--out", str(out)]
    assert run_cli([*run, "--trials", "3", "--max-iters", "20"]) == 0
    for name in ("notes.txt", "trace_notes.csv", "trace_10000.json"):
        (out / name).write_text("kept?\n")
    assert run_cli([*run, "--trials", "2", "--max-iters", "20", "--seed", "9"]) == 0
    digest = read_json(out / "summary.json")["config_hash"]
    traces = [f"trace_{t:04d}.{suffix}" for t in range(2) for suffix in ("csv", "json")]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["aggregate.csv", "notes.txt", "summary.json", "trace_notes.csv", *traces])
    for t in range(2):
        assert read_json(out / f"trace_{t:04d}.json")["config_hash"] == digest
    # a rerun that fails at its first trial leaves no summary of the run before
    monkeypatch.setattr(cli, "measure", lambda e, x: Measurements(values=np.full(e.m, 1e308)))
    assert run_cli([*run, "--trials", "2", "--max-iters", "100"]) == 2
    assert "non-finite iterate" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt", "trace_notes.csv"]


def test_rsc_scan_at_the_largest_scale_warns_nothing(tmp_path, capsys):
    out = tmp_path / "scan"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(["rsc-scan", "--n", "8", "--m", "64", "--samples", "30",
                        "--scale", "1e150", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert np.isfinite(read_json(out / "rsc_scan.json")["min_gamma"])


_SCALE_RUN = ["--n", "8", "--m", "64", "--trials", "1", "--max-iters", "200", "--serial"]


@pytest.mark.parametrize("command", ["solve", "baseline"])
@pytest.mark.parametrize("scale", ["1e300", "1e308", "nan", "0", "-1"])
def test_scale_out_of_range_is_rejected(tmp_path, capsys, command, scale):
    rc = run_cli([command, *_SCALE_RUN, f"--scale={scale}", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "--scale" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "baseline"])
def test_large_scale_keeps_distances_finite(tmp_path, command):
    out = tmp_path / "out"
    assert run_cli([command, *_SCALE_RUN, "--scale", "1e100", "--out", str(out)]) == 0
    rows = np.genfromtxt(out / "trace_0000.csv", delimiter=",", names=True)
    assert np.all(np.isfinite(rows["dist"]))
    # final_mean_dist2 covers surviving trials only; a zero-init baseline has none
    assert read_json(out / "summary.json")["final_median_dist"] is not None


@pytest.mark.parametrize("args, flag", [
    (["rsc-scan", "--n", "8", "--m", "64", "--samples", "-2"], "--samples"),
    (["solve", *_SCALE_RUN[:-1], "--threads", "-4"], "--threads"),
    (["solve", *_SCALE_RUN[:-1], "--threads", "0"], "--threads"),
    (["baseline", *_SCALE_RUN[:-1], "--threads", "0"], "--threads"),
])
def test_out_of_range_execution_options_are_rejected(tmp_path, capsys, args, flag):
    assert run_cli([*args, "--out", str(tmp_path / "out")]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# the usable cores that test_pool_is_sized_by_threads_and_trials reports
_CORES = 4


def _done(result):
    """A future that holds `result`, for pools that run each job as it is submitted."""
    from concurrent.futures import Future

    future = Future()
    future.set_result(result)
    return future


@pytest.mark.parametrize("threads, trials, workers", [
    (8, 3, 3), (2, 4, 2), (8, 8, _CORES), (100000, 6, _CORES), (1, 4, None), (4, 1, None),
])
def test_pool_is_sized_by_threads_and_trials(tmp_path, monkeypatch, threads, trials, workers):
    import kaczpr.cli as cli

    sizes = []

    class SerialPool:  # records the requested size and runs in this process
        def __init__(self, workers):
            sizes.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            return _done(fn(job))

    monkeypatch.setattr(cli, "_pool", SerialPool)
    monkeypatch.setattr(cli, "_usable_cores", lambda: _CORES)
    args = ["solve", "--n", "8", "--m", "64", "--trials", str(trials), "--max-iters", "20",
            "--seed", "3"]
    assert run_cli([*args, "--threads", str(threads), "--out", str(tmp_path / "pool")]) == 0
    assert sizes == ([] if workers is None else [workers])  # one worker runs serially


@pytest.mark.parametrize("samples", [0, 1, 3])
def test_rsc_scan_csv_bytes_match_per_line_writer(tmp_path, monkeypatch, samples):
    import kaczpr.analysis as analysis
    import kaczpr.kaczmarz as kaczmarz

    real_margin, margins = analysis.rsc_margin, []

    def rsc_margin(*args):
        margins.append(real_margin(*args))
        return margins[-1]

    monkeypatch.setattr(analysis, "rsc_margin", rsc_margin)
    monkeypatch.setattr(kaczmarz, "_CSV_ROWS", 2)  # 3 samples cross a slice edge
    out = tmp_path / "scan"
    assert run_cli(["rsc-scan", "--n", "16", "--m", "256", "--samples", str(samples),
                    "--seed", "4", "--out", str(out)]) == 0
    assert len(margins) == samples
    lines = ["sample_id,h_norm,f,D,gamma_hat"]
    for s, sample in enumerate(margins):
        lines.append(f"{s},{float(sample.h_norm)!r},{float(sample.f_value)!r},"
                     f"{float(sample.directional)!r},{float(sample.margin_gamma)!r}")
    assert (out / "rsc_scan.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
    gammas = [sample.margin_gamma for sample in margins]
    assert read_json(out / "rsc_scan.json")["min_gamma"] == (min(gammas) if gammas else None)


def _aggregate_rows(monkeypatch, cfg, dists, stops) -> int:
    """cmd_trials over given distance rows and stopping times, which stand in for the trials."""
    import kaczpr.cli as cli

    results = [cli.TrialResult(d, s) for d, s in zip(dists, stops)]
    monkeypatch.setattr(cli, "_trial_job", lambda job: results[job[1]])
    return cli.cmd_trials(cfg)


def test_aggregate_csv_bytes_match_per_line_writer(tmp_path, monkeypatch):
    from kaczpr.cli import _trial
    from kaczpr.kaczmarz import _CSV_ROWS

    # 41 rows, and row counts at the edges of the slices the file is written in
    for k_len in (41, _CSV_ROWS, _CSV_ROWS + 1, 2 * _CSV_ROWS + 3):
        cfg = resolve_config("solve", {"n": 8, "m": 64, "trials": 3, "max_iters": k_len - 1,
                                       "seed": 5, "out_dir": str(tmp_path)}, None)
        dists = np.stack([_trial(cfg, t).dist for t in range(3)])
        k_axis = np.arange(k_len)
        for stops, surviving in (((None, 7, None), [0, 2]), ((3, 7, 0), [])):
            assert _aggregate_rows(monkeypatch, cfg, dists, stops) == 0
            stop_k = np.array([k_len if s is None else s for s in stops])
            # the per-line writer aggregate.csv was first written with
            mean_d2 = (dists[surviving] ** 2).mean(axis=0) if surviving else np.full(k_len, np.nan)
            median_d = np.median(dists, axis=0)
            frac = (stop_k[None, :] <= k_axis[:, None]).mean(axis=1)
            lines = ["k,mean_dist2,median_dist,frac_exited"]
            for k in range(k_len):
                lines.append(f"{k},{float(mean_d2[k])!r},{float(median_d[k])!r},"
                             f"{float(frac[k])!r}")
            want = ("\n".join(lines) + "\n").encode()
            assert (tmp_path / "aggregate.csv").read_bytes() == want


def _matrix_aggregate(cfg, dists, stops) -> tuple[bytes, dict]:
    """aggregate.csv's bytes and summary.json's document, from the whole distance matrix."""
    from kaczpr.cli import FLOOR_DIST_SQ, _finite_or_none, _sidecar_base

    k_len = dists.shape[1]
    kept = [d for d, s in zip(dists, stops) if s is None]
    mean_d2 = (np.stack(kept) ** 2).mean(axis=0) if kept else np.full(k_len, np.nan)
    median_d = np.median(dists, axis=0)
    stop_k = np.array([k_len if s is None else s for s in stops])
    frac = (stop_k[None, :] <= np.arange(k_len)[:, None]).mean(axis=1)
    lines = ["k,mean_dist2,median_dist,frac_exited"]
    lines += [f"{k},{float(mean_d2[k])!r},{float(median_d[k])!r},{float(frac[k])!r}"
              for k in range(k_len)]
    summary = _sidecar_base(cfg)
    summary.update({"trials": len(dists), "frac_exited": float(np.mean(stop_k < k_len)),
                    "final_mean_dist2": _finite_or_none(mean_d2[-1]),
                    "final_median_dist": _finite_or_none(median_d[-1])})
    if kept and k_len > 1:
        mask = mean_d2[:-1] / cfg.scale**2 > FLOOR_DIST_SQ
        ratios = mean_d2[1:] / mean_d2[:-1]
        k_eff = int(mask.sum())
        summary.update({
            "max_contraction_ratio": float(ratios[mask].max()) if k_eff else None,
            "fitted_contraction": (float((mean_d2[k_eff] / mean_d2[0]) ** (1.0 / k_eff))
                                   if k_eff else None),
            "floor_dist2": FLOOR_DIST_SQ * cfg.scale**2,
        })
    return ("\n".join(lines) + "\n").encode(), summary


@pytest.mark.parametrize("max_iters", [0, 1, 300])
@pytest.mark.parametrize("trials", [1, 2, 7, 8, 9, 33, 200])
def test_streamed_aggregate_equals_the_whole_matrix_reference(tmp_path, monkeypatch, trials,
                                                              max_iters):
    import kaczpr.cli as cli

    k_len = max_iters + 1
    cfg = resolve_config("solve", {"n": 8, "trials": trials, "max_iters": max_iters,
                                   "seed": 5, "out_dir": str(tmp_path)}, None)
    gen = np.random.default_rng([trials, max_iters])
    # decaying rows, a tie across trials, and a column that reaches the floor
    dists = 1e-3 * gen.random((trials, k_len)) * 0.99 ** np.arange(k_len)
    if k_len > 1:
        dists[:, k_len // 2] = 2e-4
        dists[:, -1] *= 1e-12
    exits = gen.integers(0, k_len, size=trials)
    for stops in ([None] * trials,  # no trial exits
                  [None if t % 3 else int(exits[t]) for t in range(trials)],  # some exit
                  [int(e) for e in exits]):  # every trial exits
        want_csv, want_summary = _matrix_aggregate(cfg, dists, stops)
        # a median block of the whole row, one column short of it and one past it,
        # the default's, and budgets of one and two columns, below the floor of three
        for width in (k_len, k_len - 1, k_len + 1, None, 1, 2):
            block = cli._MEDIAN_BLOCK_BYTES if width is None else 8 * trials * width
            monkeypatch.setattr(cli, "_MEDIAN_BLOCK_BYTES", block)
            assert _aggregate_rows(monkeypatch, cfg, dists, stops) == 0
            assert (tmp_path / "aggregate.csv").read_bytes() == want_csv
            assert read_json(tmp_path / "summary.json") == want_summary


@pytest.mark.parametrize("trials", [1, 2, 3, 4, 31, 32])
def test_column_medians_are_np_median_bit_for_bit(trials):
    from kaczpr.cli import _column_medians

    a = np.random.default_rng(trials).random((trials, 40)) * np.logspace(-3, 3, 40)
    a[:, 5] = a[0, 5]  # ties
    a[-1, 7] = a[0, 8] = np.nan
    a[:, 9:11] = np.inf
    a[0, 10] = -np.inf
    b = a.copy()
    with np.errstate(invalid="ignore"):  # the mean of -inf and inf in a 2-row column
        want = np.median(a, axis=0, overwrite_input=True)
        got = _column_medians(b)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(b.view(np.uint64), a.view(np.uint64))  # the same partition


@pytest.fixture
def in_process_pool(monkeypatch):
    """Run each pool job in this process as it is submitted, its result through
    pickle as from a worker; returns the pickled size of each result, which
    holds no result alive."""
    import kaczpr.cli as cli

    sent = []

    class InProcessPool:
        def __init__(self, workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            data = pickle.dumps(fn(job))
            sent.append(len(data))
            return _done(pickle.loads(data))

    monkeypatch.setattr(cli, "_pool", InProcessPool)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)  # a pool run on any host
    return sent


def test_failing_pool_trial_leaves_no_summary(tmp_path, monkeypatch, capsys, in_process_pool):
    import kaczpr.cli as cli
    from kaczpr import Measurements

    real_measure = cli.measure

    def measure(e, x):  # trial 2's magnitudes drive its iterate to inf
        if e.stream_id == 2:
            return Measurements(values=np.full(e.m, 1e308))
        return real_measure(e, x)

    monkeypatch.setattr(cli, "measure", measure)
    out = tmp_path / "pool"
    rc = run_cli(["solve", "--n", "8", "--m", "64", "--trials", "4", "--max-iters", "100",
                  "--threads", "2", "--out", str(out)])
    assert rc == 2
    assert re.search(r"kaczpr: non-finite iterate at step \d+, produced by row \d+",
                     capsys.readouterr().err)
    assert len(in_process_pool) == 2  # trials 0 and 1 finished and kept their traces
    assert (out / "trace_0001.csv").exists()
    assert not (out / "summary.json").exists()
    assert not (out / "aggregate.csv").exists()


def test_pool_workers_return_only_distances_and_stopping_times(tmp_path, in_process_pool):
    args = ["solve", "--n", "8", "--m", "64", "--trials", "3", "--max-iters", "300",
            "--seed", "3", "--threads", "2", "--out", str(tmp_path / "pool")]
    assert run_cli(args) == 0
    assert len(in_process_pool) == 3
    for size in in_process_pool:
        assert size < 8 * 301 + 1024  # the 301 distances and little else
    for t in range(3):
        assert (tmp_path / "pool" / f"trace_{t:04d}.json").exists()


def _artifact_bytes(out):
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def test_forkserver_pool_gives_the_serial_bytes(tmp_path, monkeypatch):
    # forkserver is the Linux default start method from Python 3.14; its
    # workers start from a fresh interpreter, not from a copy of this one
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import kaczpr.cli as cli

    context = multiprocessing.get_context("forkserver")
    sizes = []

    def pool(workers):
        sizes.append(workers)
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)

    monkeypatch.setattr(cli, "_pool", pool)
    monkeypatch.setattr(cli, "_usable_cores", lambda: 2)
    args = ["solve", "--n", "16", "--trials", "2", "--max-iters", "60", "--init", "spectral",
            "--ball", "1", "--seed", "4"]
    assert run_cli([*args, "--serial", "--out", str(tmp_path / "serial")]) == 0
    assert run_cli([*args, "--threads", "2", "--out", str(tmp_path / "pool")]) == 0
    assert sizes == [2]
    assert _artifact_bytes(tmp_path / "pool") == _artifact_bytes(tmp_path / "serial")


def test_serial_run_writes_each_trace_after_its_trial(tmp_path, monkeypatch):
    import kaczpr.cli as cli

    events = []
    real_runner, real_write = cli._trial, cli._write_trace

    def runner(cfg, t):
        events.append(f"run {t}")
        return real_runner(cfg, t)

    def write(cfg, t, *rest):
        events.append(f"write {t}")
        real_write(cfg, t, *rest)

    monkeypatch.setattr(cli, "_trial", runner)
    monkeypatch.setattr(cli, "_write_trace", write)
    out = tmp_path / "serial"
    assert run_cli(["solve", "--n", "4", "--m", "32", "--trials", "3", "--max-iters", "200",
                    "--seed", "3", "--serial", "--out", str(out)]) == 0
    assert ",".join(events) == "run 0,write 0,run 1,write 1,run 2,write 2"
    assert len(_artifact_bytes(out)) == 2 * 3 + 2


def test_failing_serial_trial_keeps_earlier_traces_and_no_summary(tmp_path, monkeypatch,
                                                                  capsys):
    import kaczpr.cli as cli
    from kaczpr import Measurements

    real_measure = cli.measure
    ran = []

    def measure(e, x):  # trial 3's magnitudes drive its iterate to inf
        ran.append(e.stream_id)
        if e.stream_id == 3:
            return Measurements(values=np.full(e.m, 1e308))
        return real_measure(e, x)

    monkeypatch.setattr(cli, "measure", measure)
    out = tmp_path / "serial"
    rc = run_cli(["solve", "--n", "8", "--m", "64", "--trials", "5", "--max-iters", "100",
                  "--serial", "--out", str(out)])
    assert rc == 2
    assert re.search(r"kaczpr: non-finite iterate at step \d+, produced by row \d+",
                     capsys.readouterr().err)
    assert ran == [0, 1, 2, 3]
    # each trial before the failing one wrote its trace; no aggregate or summary
    assert sorted(path.name for path in out.iterdir()) == [
        f"trace_{t:04d}.{ext}" for t in range(3) for ext in ("csv", "json")]


@pytest.mark.parametrize("where", ["serial", "pool"])
def test_peak_memory_stays_flat_in_the_trial_count(tmp_path, monkeypatch, request, where):
    import gc
    import tracemalloc

    import kaczpr.cli as cli

    steps = 1000
    row = 8 * (steps + 1)  # one trial's dist; its whole trace is about 3 rows
    # a median buffer of 4 rows, full from 4 trials on, as the default is from 17
    monkeypatch.setattr(cli, "_MEDIAN_BLOCK_BYTES", 4 * row)
    real_write = cli._write_trace

    def write(*args):
        # the JSON encoder leaves reference cycles: free each trial's, so that
        # the peak shows what the run holds and not when the collector ran
        real_write(*args)
        gc.collect(0)

    monkeypatch.setattr(cli, "_write_trace", write)
    if where == "pool":
        request.getfixturevalue("in_process_pool")  # the pool parent, in this process
    peaks = {}
    for trials in (1, 6, 18):  # the first run also makes one-time allocations
        args = ["solve", "--n", "4", "--m", "32", "--trials", str(trials), "--max-iters",
                str(steps), "--seed", "2", "--out", str(tmp_path / str(trials)),
                *(["--serial"] if where == "serial" else ["--threads", "2"])]
        tracemalloc.start()
        try:
            assert run_cli(args) == 0
            peaks[trials] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    # a distance matrix would add a row per trial, keeping every trace about 4
    assert (peaks[18] - peaks[6]) / 12 < 0.1 * row


_M_CASES = [("m", "--m", "0"), ("m", "--m", "-3"),
            ("m_over_n", "--m-over-n", "0"), ("m_over_n", "--m-over-n", "-2")]


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("key, flag, value", _M_CASES)
def test_nonpositive_m_is_rejected_from_every_source(tmp_path, monkeypatch, capsys,
                                                     source, key, flag, value):
    args = ["solve", "--n", "8", "--trials", "1", "--max-iters", "5"]
    if source == "flag":
        args += [flag, value]
    elif source == "env":
        monkeypatch.setenv("KACZPR_" + key.upper(), value)
    else:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({key: int(value)}))
        args += ["--config", str(cfg_file)]
    assert run_cli([*args, "--out", str(tmp_path / "out")]) == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_g_runs_one_estimate_for_both_ceilings(monkeypatch, capsys):
    import kaczpr.verify as verify
    from kaczpr import LemmaParams, RngStream, mc_G
    from kaczpr.rng import GENERATOR_ID

    calls = []
    real = verify._mc_scalar
    monkeypatch.setattr(verify, "_mc_scalar", lambda *a, **k: calls.append(a) or real(*a, **k))
    args = ["verify", "G", "--lambda", "0.3", "--sigma", "0.5", "--samples", "20000", "--seed", "4"]
    assert run_cli(args) == 0
    assert len(calls) == 1
    lines = capsys.readouterr().out.splitlines()
    digest = config_hash(resolve_config("verify", {"lemma": "G", "lam": 0.3, "sigma": 0.5,
                                                   "samples": 20000, "seed": 4}, None))
    params = LemmaParams(lam=0.3, sigma=0.5)
    expected = []
    for bound in ("closed", "loose"):
        doc = mc_G(params, 20000, RngStream(4, 0), bound=bound).to_dict()
        doc.update({"seed": 4, "generator": GENERATOR_ID, "config_hash": digest})
        expected.append(json.dumps(doc, sort_keys=True))
    assert lines == expected


@pytest.mark.parametrize("lemma, bad, good", [
    ("F", "2.9", "3"), ("G", "3.0", "0.4"), ("G", "-0.1", "0"),
    ("restricted-ratio", "2.5", "3"), ("truncated-moment", "0", "0.4"),
    ("truncated-moment", "0.5", "0.1"),
])
def test_out_of_range_lambda_names_the_flag(capsys, lemma, bad, good):
    small = ["--samples", "100"] if lemma in ("F", "G") else ["--h-samples", "3", "--n", "4",
                                                              "--m", "16"]
    assert run_cli(["verify", lemma, "--lambda", bad, *small, "--seed", "1"]) == 2
    err = capsys.readouterr().err
    assert "--lambda must be" in err and f"verify {lemma}" in err
    # the range check is the library's: a value inside it gets past validation
    resolve_config("verify", {"lemma": lemma, "lam": float(good)}, None)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lemma", ["F", "restricted-ratio"])
@pytest.mark.parametrize("lam", ["1e20", "1e300", "1.7976931348623157e308"])
def test_huge_lambda_gives_reports(capsys, lemma, lam):
    small = (["--sigma", "0.5", "--samples", "2000"] if lemma == "F"
             else ["--h-samples", "20", "--n", "4", "--m", "64"])
    assert run_cli(["verify", lemma, "--lambda", lam, *small, "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    docs = [json.loads(line) for line in captured.out.splitlines()]
    assert docs and all(doc["passed"] for doc in docs)
    if lemma == "F":
        assert docs[0]["bound"] == 0.375


def test_out_of_range_sigma_names_the_flag(capsys, monkeypatch):
    import kaczpr.cli as cli

    # each is rejected before any sample is drawn
    monkeypatch.setattr(cli, "_verify_reports", lambda cfg: pytest.fail("sampled"))
    for args, message in [
        (["G", "--lambda", "0.4", "--sigma", "1.5"], "--sigma must lie in [-1, 1]"),
        (["F", "--sigma", "1"], "--sigma must lie in (-1, 1) for verify F"),
        (["F", "--sigma", "-1"], "--sigma must lie in (-1, 1) for verify F"),
    ]:
        assert run_cli(["verify", *args, "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""


def test_verify_covariance_with_m_below_n_names_both_flags(capsys, monkeypatch):
    import kaczpr.cli as cli

    monkeypatch.setattr(cli, "_verify_reports", lambda cfg: pytest.fail("sampled"))
    assert run_cli(["verify", "covariance", "--n", "16", "--m", "8", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert "--m must be at least --n for verify covariance, got --m 8 and --n 16" in captured.err
    assert captured.out == ""
    resolve_config("verify", {"lemma": "covariance", "n": 16, "m": 16}, None)


def test_verify_f_near_unit_sigma_agrees_with_the_series(capsys):
    # a series cut off at 250 terms read 0.9508 here, against 0.98996
    args = ["verify", "F", "--lambda", "3", "--sigma", "0.99", "--samples", "100000", "--seed", "7"]
    assert run_cli(args) == 0
    docs = {doc["name"]: doc for doc in map(json.loads, capsys.readouterr().out.splitlines())}
    assert docs["F_vs_series"]["passed"]


# every key a config file accepts, with one value that cannot be coerced and a
# run that takes the key
_CONFIG_KEYS = {
    "n": ("x", "solve"), "m": ("x", "solve"), "m_over_n": (2.5, "solve"),
    "trials": ([1], "solve"), "max_iters": (True, "solve"), "seed": ("x", "solve"),
    "threads": ({}, "solve"), "samples": ("1e3", "rsc-scan"),
    "h_samples": (1.5, "verify restricted-ratio"), "model": (5, "solve"),
    "init": (["planted"], "solve"), "out_dir": (7, "solve"), "planted_radius": ("x", "solve"),
    "delta": ([0.5], "solve"), "scale": (True, "solve"), "ball_radius": ("big", "solve"),
    "lam": ({}, "verify F"), "sigma": ("x", "verify G"), "serial": ("ture", "solve"),
    "check": (2, "solve"), "allow_radius_override": ([True], "solve"),
}
# small runs, so that a value wrongly let through costs little
_SMALL_ARGS = {"solve": ["--n", "8", "--trials", "1", "--max-iters", "5"],
               "baseline": ["--n", "8", "--trials", "1", "--max-iters", "5"],
               "rsc-scan": ["--n", "8", "--samples", "2"],
               "verify covariance": ["--n", "4", "--m", "16", "--trials", "1"],
               "verify F": ["--samples", "100"], "verify G": ["--lambda", "0.4", "--samples", "100"],
               "verify restricted-ratio": ["--n", "4", "--m", "16", "--h-samples", "1"]}


def _run_with_config(tmp_path, doc, run="solve"):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    return run_cli([*run.split(), *_SMALL_ARGS[run],
                    "--config", str(cfg_file), "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("key", sorted(_CONFIG_KEYS))
def test_config_null_is_rejected_naming_the_key(tmp_path, capsys, key):
    assert _run_with_config(tmp_path, {key: None}, _CONFIG_KEYS[key][1]) == 2
    assert f"config key {key!r} is null" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", sorted(_CONFIG_KEYS))
def test_config_value_that_fails_to_coerce_names_the_key(tmp_path, capsys, key):
    value, run = _CONFIG_KEYS[key]
    assert _run_with_config(tmp_path, {key: value}, run) == 2
    assert f"config key {key!r} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize("doc", [{"command": "baseline"}, {"lemma": "F"}])
def test_config_cannot_set_positional_arguments(tmp_path, capsys, command, doc):
    assert _run_with_config(tmp_path, doc, "verify G" if command == "verify" else command) == 2
    assert f"config key {next(iter(doc))!r} is not allowed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_must_be_an_object(tmp_path, capsys):
    assert _run_with_config(tmp_path, [1, 2]) == 2
    assert "--config must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("name, value, kind", [
    ("KACZPR_SEED", "x", "an integer"), ("KACZPR_CHECK", "maybe", "a boolean"),
])
def test_env_value_that_fails_to_coerce_names_the_variable(tmp_path, monkeypatch, capsys,
                                                           name, value, kind):
    monkeypatch.setenv(name, value)
    assert run_cli(["solve", "--n", "8", "--trials", "1", "--out", str(tmp_path / "o")]) == 2
    assert f"{name} must be {kind}, got {value!r}" in capsys.readouterr().err


def test_boolean_spellings_from_config_and_environment(monkeypatch):
    for text, expected in [("1", True), ("TRUE", True), ("yes", True), ("on", True),
                           ("", False), ("0", False), ("False", False), ("no", False),
                           ("off", False)]:
        monkeypatch.setenv("KACZPR_CHECK", text)
        assert resolve_config("solve", {}, None).check is expected


# valid configs resolve to the hashes they had before key-by-key validation; here
# and in the tables below, explicit ids keep a case's name when other rows change
@pytest.mark.parametrize("command, cli, doc, digest", [
    pytest.param("solve", {}, {"n": 8, "m": 64, "trials": 2, "max_iters": 7, "seed": 1},
                 "75d5100995158b2a", id="solve-cli0-doc0-75d5100995158b2a"),
    # every key a spectral solve takes; the digest is the one this config had
    # before a run's start decided whether it takes --radius
    pytest.param("solve", {}, {"n": 16, "m_over_n": 4, "model": "gaussian", "trials": 3,
                               "max_iters": 9, "init": "spectral", "delta": 0.25, "seed": 5,
                               "out_dir": "o", "threads": 2, "serial": True, "scale": 2.5,
                               "ball_radius": 1.0, "check": True},
                 "8073d55913f3aa86", id="solve-cli1-doc1-8073d55913f3aa86"),
    pytest.param("baseline", {}, {"n": "12", "m": 8.0, "serial": "yes", "scale": "2.5",
                                  "check": 1},
                 "dd932da717fc83df", id="baseline-cli2-doc2-dd932da717fc83df"),
    pytest.param("rsc-scan", {}, {"samples": 10, "ball_radius": 0.02, "n": 16, "m_over_n": 4},
                 "2f72b5e379cefde8", id="rsc-scan-cli3-doc3-2f72b5e379cefde8"),
    pytest.param("verify", {"lemma": "G"}, {"lam": 0.1, "sigma": 0.9, "samples": 1000},
                 "94ce3522062f614f", id="verify-cli4-doc4-94ce3522062f614f"),
    # each command's defaults, with an empty config file
    pytest.param("solve", {}, {}, "e177d3c4486dbed9", id="solve-cli5-doc5-e177d3c4486dbed9"),
    pytest.param("baseline", {}, {}, "2d4d10e0f1581034", id="baseline-cli6-doc6-2d4d10e0f1581034"),
    pytest.param("rsc-scan", {}, {}, "a668a74141410aee", id="rsc-scan-cli7-doc7-a668a74141410aee"),
    pytest.param("verify", {"lemma": "F"}, {}, "5fe591f825525f32",
                 id="verify-cli8-doc8-5fe591f825525f32"),
    pytest.param("verify", {"lemma": "G", "lam": 0.4}, {}, "2f053d2f5e519ad8",
                 id="verify-cli9-doc9-2f053d2f5e519ad8"),
    pytest.param("verify", {"lemma": "covariance"}, {}, "38b937e6c6a96d71",
                 id="verify-cli10-doc10-38b937e6c6a96d71"),
    pytest.param("verify", {"lemma": "restricted-ratio"}, {}, "ec826cc29a8a473c",
                 id="verify-cli11-doc11-ec826cc29a8a473c"),
    pytest.param("verify", {"lemma": "truncated-moment", "lam": 0.4}, {}, "fe6a5b5f3cda04df",
                 id="verify-cli12-doc12-fe6a5b5f3cda04df"),
    # their own defaults are lambda 0.4, so they hash as the flag does
    pytest.param("verify", {"lemma": "G"}, {}, "2f053d2f5e519ad8",
                 id="verify-cli13-doc13-2f053d2f5e519ad8"),
    pytest.param("verify", {"lemma": "truncated-moment"}, {}, "fe6a5b5f3cda04df",
                 id="verify-cli14-doc14-fe6a5b5f3cda04df"),
])
def test_valid_configs_keep_their_hash(tmp_path, command, cli, doc, digest):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(doc))
    assert config_hash(resolve_config(command, cli, str(cfg_file))) == digest


# the keys each run takes besides seed and out_dir, stated apart from the CLI's table
_SOLVE_KEYS = {"threads", "serial", "n", "m", "m_over_n", "trials", "max_iters", "delta", "model",
               "scale", "init", "ball_radius", "check"}
_BASELINE_KEYS = _SOLVE_KEYS - {"delta", "ball_radius"}
_LEMMA_SCAN_KEYS = {"n", "m", "m_over_n", "lam", "delta", "h_samples"}
_TAKES = {
    "solve": _SOLVE_KEYS | {"planted_radius", "allow_radius_override"},
    "solve --init spectral": _SOLVE_KEYS,
    "baseline": _BASELINE_KEYS,
    "baseline --init planted": _BASELINE_KEYS | {"planted_radius"},
    "rsc-scan": {"n", "m", "m_over_n", "model", "scale", "samples", "ball_radius"},
    "verify F": {"lam", "sigma", "samples"},
    "verify G": {"lam", "sigma", "samples"},
    "verify covariance": {"n", "m", "m_over_n", "delta", "trials"},
    "verify restricted-ratio": _LEMMA_SCAN_KEYS,
    "verify truncated-moment": _LEMMA_SCAN_KEYS,
}
# a value of each key that every run taking it accepts along with its other
# defaults, and the exceptions by run
_TAKEN_VALUES = {
    "seed": 5, "out_dir": "o", "threads": 2, "serial": True, "n": 4, "m": 16, "m_over_n": 2,
    "trials": 2, "max_iters": 3, "delta": 0.75, "model": "gaussian", "scale": 2.5,
    "init": "spectral", "planted_radius": 0.001, "lam": 3.5, "sigma": 0.25, "samples": 20,
    "ball_radius": 0.5, "h_samples": 3, "check": True, "allow_radius_override": True,
}
_RUN_VALUES = {("baseline", "init"): "planted", ("verify G", "lam"): 0.2,
               ("verify truncated-moment", "lam"): 0.2}
# a run of solve or baseline is named with its start, the default one where none is given
_STARTS = {"solve": "solve --init planted", "baseline": "baseline --init zero"}


def _resolve_run(args, config=None):
    """resolve_config for a run's command line, as main gives it."""
    from kaczpr.cli import _build_parser

    values = vars(_build_parser().parse_args(args))
    return resolve_config(values.pop("command"), values, config)


def test_each_run_takes_the_options_of_its_row():
    from kaczpr.cli import _OPTIONS

    # a run with a start takes the rows of its command and of the two together
    named = {run: {_STARTS.get(run, run), run.split(" --init")[0]} for run in _TAKES}
    taken = {run: {opt.key for opt in _OPTIONS if named[run] & set(opt.runs)} for run in _TAKES}
    assert taken == {run: keys | {"seed", "out_dir"} for run, keys in _TAKES.items()}
    assert {run for opt in _OPTIONS for run in opt.runs} <= set().union(*named.values())
    # settable (run, option) pairs, from a flag, a config file or a variable alike
    assert sum(len(keys) for keys in taken.values()) == 101


def test_every_run_resolves_at_its_defaults(monkeypatch):
    for name in [name for name in os.environ if name.startswith("KACZPR_")]:
        monkeypatch.delenv(name)
    for run in _TAKES:
        cfg = _resolve_run(run.split())
        assert _STARTS.get(run, run) in (f"{cfg.command} {cfg.lemma}".rstrip(),
                                         f"{cfg.command} --init {cfg.init}")


def _flag_args(key, value):
    from kaczpr.cli import _FLAGS

    return [_FLAGS[key]] if value is True else [_FLAGS[key], _text(value)]


@pytest.mark.parametrize("run", sorted(_TAKES))
@pytest.mark.parametrize("key", sorted(_TAKEN_VALUES))
def test_each_source_obeys_which_run_takes_which_key(tmp_path, monkeypatch, capsys, run, key):
    from kaczpr.cli import _FLAGS

    base_args = run.split()
    value = _RUN_VALUES.get((run, key), _TAKEN_VALUES[key])
    if key == "init" and "--init" in base_args:  # the start is the value that each source sets
        base_args, value = base_args[:-2], base_args[-1]
    for name in [name for name in os.environ if name.startswith("KACZPR_")]:
        monkeypatch.delenv(name)
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({key: value}))
    variable = "KACZPR_" + key.upper()
    if key in _TAKES[run] | {"seed", "out_dir"}:
        from_flag = _resolve_run([*base_args, *_flag_args(key, value)])
        from_config = _resolve_run(base_args, str(cfg_file))
        monkeypatch.setenv(variable, "true" if value is True else _text(value))
        from_env = _resolve_run(base_args)
        assert from_flag == from_config == from_env
        if key == "m_over_n":
            assert from_flag.m == value * from_flag.n
        else:
            assert getattr(from_flag, key) == value
        return
    out = tmp_path / "out"
    assert _exit_code([*base_args, *_flag_args(key, value), "--out", str(out)]) == 2
    named = _STARTS.get(run, run)
    assert f"kaczpr: {_FLAGS[key]} is not an option of {named}\n" in capsys.readouterr().err
    assert _exit_code([*base_args, "--config", str(cfg_file), "--out", str(out)]) == 2
    assert f"config key {key!r} is not an option of {named}\n" in capsys.readouterr().err
    assert not out.exists()
    # a variable is neither read nor checked: "x" parses as no number and no choice
    default = config_hash(_resolve_run(base_args))
    monkeypatch.setenv(variable, "x")
    assert config_hash(_resolve_run(base_args)) == default


def test_a_flag_no_run_takes_is_rejected_under_the_commands_usage(capsys):
    assert _exit_code(["rsc-scan", "--no-such-flag", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: kaczpr rsc-scan ")
    assert err.endswith("kaczpr rsc-scan: error: unrecognized arguments: --no-such-flag 5\n")


def test_a_commands_help_lists_only_the_flags_it_takes(capsys):
    from kaczpr.cli import _OPTIONS

    assert _exit_code(["rsc-scan", "--help"]) == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    assert listed == {"--help", "--config"} | {
        opt.flag for opt in _OPTIONS if "rsc-scan" in opt.runs}


# configs that were once valid, though their runs read none of the keys named
@pytest.mark.parametrize("command, doc, message", [
    # the zero start's distance can exceed a ball of relative radius 1 in the last bit
    pytest.param("baseline", {"ball_radius": 1.0},
                 "config key 'ball_radius' is not an option of baseline",
                 id="baseline-doc0-config key 'ball_radius' is not an option of baseline"),
    # its hash was pinned; solve reads neither samples nor h_samples
    pytest.param("solve", {"n": 16, "m_over_n": 4, "model": "gaussian", "trials": 3,
                           "max_iters": 9, "init": "spectral", "delta": 0.25, "seed": 5,
                           "out_dir": "o", "threads": 2, "serial": True, "scale": 2.5,
                           "ball_radius": 1.0, "samples": 10, "h_samples": 20, "check": True},
                 "config key 'samples' is not an option of solve",
                 id="solve-doc1-config key 'samples' is not an option of solve"),
    # its hash was pinned (2bb26e2cf8e0dcc6), though a spectral start reads no radius
    pytest.param("solve", {"n": 16, "m_over_n": 4, "model": "gaussian", "trials": 3,
                           "max_iters": 9, "init": "spectral", "planted_radius": 0.001,
                           "delta": 0.25, "seed": 5, "out_dir": "o", "threads": 2,
                           "serial": True, "scale": 2.5, "ball_radius": 1.0, "check": True,
                           "allow_radius_override": False},
                 "config key 'planted_radius' is not an option of solve --init spectral",
                 id="solve-doc2-config key 'planted_radius' is not an option of solve --init spectral"),
])
def test_config_keys_the_run_does_not_read_exit_2(tmp_path, capsys, command, doc, message):
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert run_cli([command, "--config", str(tmp_path / "cfg.json"),
                    "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Rejections that once came late (after --out was made), named an internal
# field or no flag at all, or never came: an out-of-range value from any
# source must exit 2 and name its flag before anything is written.
@pytest.mark.parametrize("args, env, doc, flag", [
    pytest.param(["solve"], {"KACZPR_INIT": "zero"}, {}, "--init", id="args0-env0-doc0---init"),
    pytest.param(["baseline"], {}, {"init": "spectral"}, "--init", id="args1-env1-doc1---init"),
    pytest.param(["solve"], {}, {"planted_radius": float("nan")}, "--radius",
                 id="args2-env2-doc2---radius"),
    pytest.param(["solve", "--ball", "nan"], {}, {}, "--ball", id="args3-env3-doc3---ball"),
    pytest.param(["solve", "--ball", "2"], {}, {}, "--ball", id="args4-env4-doc4---ball"),
    pytest.param(["rsc-scan", "--ball", "nan"], {}, {}, "--ball", id="args5-env5-doc5---ball"),
    pytest.param(["verify", "F", "--lambda", "inf"], {}, {}, "--lambda",
                 id="args6-env6-doc6---lambda"),
    pytest.param(["solve", "--n", "0"], {}, {}, "--n", id="args7-env7-doc7---n"),
    pytest.param(["solve", "--max-iters", "-1"], {}, {}, "--max-iters",
                 id="args8-env8-doc8---max-iters"),
    pytest.param(["solve", "--seed", "-1"], {}, {}, "--seed", id="args9-env9-doc9---seed"),
    pytest.param(["verify", "covariance", "--trials", "0"], {}, {}, "--trials",
                 id="args10-env10-doc10---trials"),
    pytest.param(["verify", "F", "--samples", "0"], {}, {}, "--samples",
                 id="args11-env11-doc11---samples"),
    pytest.param(["verify", "G", "--lambda", "0.4", "--samples", "0"], {}, {}, "--samples",
                 id="args12-env12-doc12---samples"),
    pytest.param(["verify", "restricted-ratio", "--h-samples", "-1"], {}, {}, "--h-samples",
                 id="args13-env13-doc13---h-samples"),
    pytest.param(["verify", "truncated-moment", "--lambda", "0.4", "--h-samples", "0"], {}, {},
                 "--h-samples", id="args14-env14-doc14---h-samples"),
    pytest.param(["baseline", "--trials", "0"], {}, {}, "--trials",
                 id="args15-env15-doc15---trials"),
    pytest.param(["solve"], {"KACZPR_MODEL": "foo"}, {}, "--model",
                 id="args16-env16-doc16---model"),
    pytest.param(["solve", "--trials", "0"], {}, {}, "--trials", id="args17-env17-doc17---trials"),
    pytest.param(["verify", "restricted-ratio", "--h-samples", "0"], {}, {}, "--h-samples",
                 id="args18-env18-doc18---h-samples"),
    pytest.param(["verify", "F", "--lambda", "2"], {}, {}, "--lambda",
                 id="args19-env19-doc19---lambda"),
    pytest.param(["verify", "restricted-ratio", "--lambda", "2.5"], {}, {}, "--lambda",
                 id="args20-env20-doc20---lambda"),
    pytest.param(["verify", "truncated-moment", "--lambda", "0"], {}, {}, "--lambda",
                 id="args21-env21-doc21---lambda"),
])
def test_out_of_range_values_name_the_flag(tmp_path, monkeypatch, capsys, args, env, doc, flag):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if doc:
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        args = [*args, "--config", str(tmp_path / "cfg.json")]
    assert run_cli([*args, "--out", str(tmp_path / "out")]) == 2
    assert re.search(rf"kaczpr: {re.escape(flag)}(?![\w-])", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args, message, verdict", [
    pytest.param(["solve", "--n", "8", "--m", "64", "--trials", "2", "--max-iters", "50"],
                 "solve: certified bounds violated", "rate_ok",
                 id="args0-solve: certified bounds violated-rate_ok"),
    pytest.param(["baseline", "--n", "8", "--m", "64", "--trials", "2", "--max-iters", "5"],
                 "baseline: median error above bound", "median_ok",
                 id="args1-baseline: median error above bound-median_ok"),
])
def test_failed_check_exits_1_and_records_the_verdict(tmp_path, capsys, args, message, verdict):
    assert run_cli([*args, "--check", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.endswith(message + "\n")
    assert read_json(tmp_path / "summary.json")["checks"][verdict] is False


@pytest.mark.parametrize("args", [
    ["solve", "--n", "16", "--trials", "32"],
    ["baseline", "--trials", "10"],
])
def test_check_verdicts_do_not_depend_on_the_scale(tmp_path, args):
    runs = {}
    for scale in (1.0, 1e-20, 1e20):
        out = tmp_path / str(scale)
        rc = run_cli([*args, "--check", "--serial", "--scale", repr(scale), "--out", str(out)])
        runs[scale] = rc, read_json(out / "summary.json")
    rc_1, at_1 = runs[1.0]
    assert rc_1 == 0
    for scale in (1e-20, 1e20):
        rc, doc = runs[scale]
        assert rc == rc_1
        assert ({k: v for k, v in doc["checks"].items() if k.endswith("_ok")}
                == {k: v for k, v in at_1["checks"].items() if k.endswith("_ok")})
        assert doc.keys() == at_1.keys()
        if "floor_dist2" in doc:  # not for baseline's zero start, which leaves the ball
            assert doc["floor_dist2"] == pytest.approx(1e-24 * scale**2, rel=1e-15)
            for key in ("max_contraction_ratio", "fitted_contraction"):
                assert doc[key] == pytest.approx(at_1[key], rel=1e-9)
        if "median_error_bound" in doc["checks"]:
            assert doc["checks"]["median_error_bound"] == pytest.approx(1e-10 * scale, rel=1e-15)


def test_main_pins_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    import kaczpr.cli as cli

    control = cli._blas_threads()
    if control is None:
        pytest.skip("no OpenBLAS thread setter in this numpy build")
    set_threads, get_threads = control
    seen, real_trial = [], cli._trial

    def trial(cfg, t):
        seen.append(get_threads())
        return real_trial(cfg, t)

    monkeypatch.setattr(cli, "_trial", trial)
    before = get_threads()
    try:
        set_threads(2)
        expected = get_threads()
        if expected == 1:
            pytest.skip("this OpenBLAS runs one thread at most")
        assert run_cli(["solve", "--n", "8", "--m", "64", "--trials", "2", "--max-iters", "5",
                        "--out", str(tmp_path)]) == 0
        assert seen == [1, 1]
        assert get_threads() == expected
    finally:
        set_threads(before)


def test_without_a_blas_setter_the_run_goes_on_and_says_so(tmp_path, monkeypatch, capsys):
    import kaczpr.cli as cli
    from numpy.random import _philox  # an extension module that links no BLAS

    monkeypatch.setattr(cli, "_umath_linalg", _philox)
    assert cli._blas_threads.__wrapped__() is None
    assert "no OpenBLAS thread setter found" in capsys.readouterr().err
    monkeypatch.setattr(cli, "_blas_threads", lambda: None)
    assert run_cli(["solve", "--n", "8", "--m", "64", "--trials", "1", "--max-iters", "5",
                    "--out", str(tmp_path)]) == 0


_NAN, _INF, _TINY = float("nan"), float("inf"), sys.float_info.min
_WORDS = st.text(string.ascii_letters + string.digits + "_-", max_size=10)


def _floats_outside(lo, hi):
    """NaN and floats below lo or above hi, with zero bounds kept exact."""
    below = st.floats(max_value=-_TINY) if lo == 0.0 else st.floats(max_value=lo, exclude_max=True)
    above = st.just(_INF) if hi == _INF else st.floats(min_value=hi, exclude_min=True)
    return st.just(_NAN) | below | above


# (field, flag, run, out-of-range values, in-range values), stated apart from
# the CLI's own table; each run takes the key, and its in-range values lie
# inside that run's own rule
_RANGES = [
    ("seed", "--seed", "solve", st.integers(max_value=-1) | st.integers(min_value=2**64),
     st.integers(0, 2**64 - 1)),
    ("threads", "--threads", "solve", st.integers(max_value=0), st.integers(1, 64)),
    ("n", "--n", "solve", st.integers(max_value=0), st.integers(1, 10**6)),
    ("m", "--m", "solve", st.integers(max_value=0), st.integers(1, 10**6)),
    ("m_over_n", "--m-over-n", "solve", st.integers(max_value=0), st.integers(1, 64)),
    ("trials", "--trials", "baseline", st.integers(max_value=0), st.integers(1, 10**4)),
    ("max_iters", "--max-iters", "solve", st.integers(max_value=-1), st.integers(0, 10**6)),
    ("samples", "--samples", "rsc-scan", st.integers(max_value=-1), st.integers(0, 10**6)),
    ("h_samples", "--h-samples", "verify restricted-ratio", st.integers(max_value=0),
     st.integers(1, 10**6)),
    ("delta", "--delta", "verify covariance",
     st.just(_NAN) | st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True),
     st.floats(_TINY, 1.0)),
    ("planted_radius", "--radius", "baseline --init planted", _floats_outside(0.0, _INF),
     st.floats(0.0, allow_infinity=False)),
    ("ball_radius", "--ball", "rsc-scan", _floats_outside(0.0, 1.0), st.floats(0.0, 1.0)),
    ("scale", "--scale", "solve", _floats_outside(1e-150, 1e150), st.floats(1e-150, 1e150)),
    ("lam", "--lambda", "verify F", st.sampled_from([_NAN, _INF, -_INF]),
     st.floats(2.95, allow_infinity=False)),
    ("sigma", "--sigma", "verify F", _floats_outside(-1.0, 1.0),
     st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)),
    ("model", "--model", "solve", _WORDS.filter(lambda w: w not in ("sphere", "gaussian")),
     st.sampled_from(["sphere", "gaussian"])),
    ("init", "--init", "solve", _WORDS.filter(lambda w: w not in ("planted", "spectral")),
     st.sampled_from(["planted", "spectral"])),
    ("init", "--init", "baseline", _WORDS.filter(lambda w: w not in ("zero", "planted")),
     st.sampled_from(["zero", "planted"])),
]
_RANGE_IDS = [f"{flag}-{run.split()[0]}" for _, flag, run, _, _ in _RANGES]


def test_every_option_with_a_range_has_a_range_case():
    from kaczpr.cli import _OPTIONS

    ranged = {opt.key for opt in _OPTIONS if opt.valid or opt.choices}
    assert ranged == {key for key, *_ in _RANGES}


def _text(value):
    return repr(value) if isinstance(value, float) else str(value)


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse rejects a value outside --model's or --init's choices
        return exc.code


@pytest.mark.parametrize("source", ["flag", "env", "config"])
@pytest.mark.parametrize("key, flag, run, bad, good", _RANGES, ids=_RANGE_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_out_of_range_value_exits_2_naming_the_flag(source, key, flag, run, bad, good, data):
    value = data.draw(bad)
    small = list(_SMALL_ARGS[run.split(" --init")[0]])
    if flag in small:
        del small[small.index(flag):small.index(flag) + 2]
    args, env = [*run.split(), *small], {}
    with tempfile.TemporaryDirectory() as tmp:
        if source == "flag":
            args.append(f"{flag}={_text(value)}")
        elif source == "env":
            env["KACZPR_" + key.upper()] = _text(value)
        else:
            Path(tmp, "cfg.json").write_text(json.dumps({key: value}))
            args += ["--config", str(Path(tmp, "cfg.json"))]
        err = io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stderr(err):
            code = _exit_code([*args, "--out", str(Path(tmp, "out"))])
        assert code == 2
        assert re.search(rf"{re.escape(flag)}(?![\w-])", err.getvalue())
        assert not Path(tmp, "out").exists()


@pytest.mark.parametrize("key, flag, run, bad, good", _RANGES, ids=_RANGE_IDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_in_range_value_resolves_alike_from_every_source(key, flag, run, bad, good, data):
    value = data.draw(good)
    from_flag = _resolve_run([*run.split(), f"{flag}={_text(value)}"])
    with mock.patch.dict(os.environ, {"KACZPR_" + key.upper(): _text(value)}):
        from_env = _resolve_run(run.split())
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "cfg.json").write_text(json.dumps({key: value}))
        from_config = _resolve_run(run.split(), str(Path(tmp, "cfg.json")))
    assert from_flag == from_env == from_config
    if key == "m_over_n":
        assert from_flag.m == value * from_flag.n
    else:
        assert getattr(from_flag, key) == value


# np.linalg.eigh's eigenvector moves in the last bits between BLAS thread
# counts, so the spectral runs hold only because main pins one BLAS thread.
# They run at n = 128: at n = 64 and below, eigh gave the same bits at 1 and 2
# threads without the pin (2 cores, OpenBLAS 0.3.31).
_THREAD_INVARIANT_RUNS = [
    ["solve", "--n", "16", "--m", "256", "--trials", "3", "--max-iters", "300", "--serial"],
    ["solve", "--n", "128", "--trials", "2", "--max-iters", "50", "--init", "spectral",
     "--ball", "1.0", "--serial"],
    ["solve", "--n", "128", "--trials", "2", "--max-iters", "50", "--init", "spectral",
     "--ball", "1.0", "--threads", "2"],
    ["baseline", "--n", "16", "--m", "256", "--trials", "3", "--max-iters", "300", "--serial"],
    ["rsc-scan", "--n", "32", "--m", "1024", "--samples", "20"],
    ["verify", "covariance", "--n", "32", "--m", "1024", "--trials", "3"],
    ["verify", "restricted-ratio", "--n", "32", "--m", "2048", "--delta", "0.1",
     "--h-samples", "500"],
]


def _sha256_listing(root):
    import hashlib

    return sorted((str(p.relative_to(root)), hashlib.sha256(p.read_bytes()).hexdigest())
                  for p in root.rglob("*") if p.is_file())


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    import subprocess

    child = ("import json, sys\n"
             "from kaczpr.cli import main\n"
             "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    listings = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        runs = [[*argv, "--seed", "3", "--out", str(out / str(i))]
                for i, argv in enumerate(_THREAD_INVARIANT_RUNS)]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", child, json.dumps(runs)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        listings.append(_sha256_listing(out))
    # 8 each from planted solve and baseline, 6 per spectral solve, 2 from rsc-scan, 1 per verify
    assert len(listings[0]) == 32
    assert listings[0] == listings[1]


def test_console_script_entry_point_resolves_to_main():
    import importlib

    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["kaczpr"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert callable(entry)
    assert entry is main
