import json
import re

import numpy as np
import pytest

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
    from kaczpr.cli import _solve_trial

    out = tmp_path / "run"
    assert run_cli(["solve", "--n", "10", "--m", "80", "--trials", "2", "--max-iters", "30",
                    "--seed", "31", "--out", str(out)]) == 0
    stored = read_json(out / "summary.json")["config"]
    cfg = ExperimentConfig(out_dir="unused", **stored)
    sidecar = read_json(out / "trace_0001.json")
    trace = _solve_trial(cfg, sidecar["trial"])
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
    with pytest.raises(ValueError):
        ExperimentConfig(
            command="solve", n=0, m=8, model="sphere", trials=1, max_iters=1,
            init="planted", planted_radius=0.005, delta=0.5, seed=0, out_dir="x",
        )
    with pytest.raises(ValueError):
        ExperimentConfig(
            command="solve", n=8, m=8, model="sphere", trials=1, max_iters=1,
            init="warm", planted_radius=0.005, delta=0.5, seed=0, out_dir="x",
        )


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_solve_reports_non_finite_iterate(tmp_path, monkeypatch, capsys):
    import kaczpr.cli as cli
    from kaczpr import Measurements

    monkeypatch.setattr(cli, "measure", lambda e, x: Measurements(values=np.full(e.m, 1e308)))
    rc = run_cli(["solve", "--n", "8", "--m", "64", "--trials", "2", "--max-iters", "100",
                  "--serial", "--out", str(tmp_path / "blowup")])
    assert rc == 2
    assert re.search(r"kaczpr: non-finite iterate at step \d+, produced by row \d+",
                     capsys.readouterr().err)
