import json
import pickle
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


@pytest.mark.parametrize("threads, trials, workers", [(8, 3, 3), (2, 4, 2)])
def test_pool_is_sized_by_threads_and_trials(tmp_path, monkeypatch, threads, trials, workers):
    import kaczpr.cli as cli

    sizes = []

    class SerialPool:  # records the requested size and runs in this process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    args = ["solve", "--n", "8", "--m", "64", "--trials", str(trials), "--max-iters", "20",
            "--seed", "3"]
    assert run_cli([*args, "--threads", str(threads), "--out", str(tmp_path / "pool")]) == 0
    assert sizes == [workers]


def test_aggregate_csv_bytes_match_per_line_writer(tmp_path):
    from kaczpr.cli import _aggregate, _fmt, _solve_trial

    cfg = resolve_config("solve", {"n": 8, "m": 64, "trials": 3, "max_iters": 40, "seed": 5,
                                   "out_dir": str(tmp_path)}, None)
    traces = [_solve_trial(cfg, t) for t in range(3)]
    dists = np.stack([t.dist for t in traces])
    k_axis = np.arange(41)
    for stops, surviving in (((None, 7, None), [0, 2]), ((3, 7, 0), [])):
        for trace, stop in zip(traces, stops):
            trace.stopping_time = stop
        _aggregate(cfg, traces, tmp_path)
        # the per-line writer aggregate.csv was first written with
        mean_d2 = (dists[surviving] ** 2).mean(axis=0) if surviving else np.full(41, np.nan)
        median_d = np.median(dists, axis=0)
        stop_k = np.array([41 if s is None else s for s in stops])
        frac = (stop_k[None, :] <= k_axis[:, None]).mean(axis=1)
        lines = ["k,mean_dist2,median_dist,frac_exited"]
        for k in range(41):
            lines.append(f"{k},{_fmt(mean_d2[k])},{_fmt(median_d[k])},{_fmt(frac[k])}")
        assert (tmp_path / "aggregate.csv").read_bytes() == ("\n".join(lines) + "\n").encode()


@pytest.fixture
def in_process_pool(monkeypatch):
    """Run pool jobs in this process, in order; returns what the jobs returned."""
    import kaczpr.cli as cli

    returned = []

    class InProcessPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            for job in jobs:
                returned.append(fn(job))
                yield returned[-1]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    return returned


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    for result in in_process_pool:
        assert len(pickle.dumps(result)) < result.dist.nbytes + 1024
    for t in range(3):
        assert (tmp_path / "pool" / f"trace_{t:04d}.json").exists()


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
