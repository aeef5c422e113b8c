"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on a green suite.  Tolerances are fixed here, not configurable.
"""

import json

import numpy as np
import pytest

from kaczpr import (
    LemmaParams,
    Model,
    RngStream,
    check_covariance,
    closed_form_g,
    contraction_stats,
    directional_derivative,
    dist,
    expected_step,
    loss,
    make_ensemble,
    margin_row_terms,
    mc_F,
    mc_G,
    measure,
    optimal_phase,
    planted_init,
    series_F,
)
from kaczpr.cli import _trial, main, resolve_config
from kaczpr.rng import complex_standard_normal
from conftest import unit_signal

A1_SEED = 7
A10_SEED = 207


def report(criterion: str, ok: bool, detail: str):
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def solve_run():
    cfg = resolve_config(
        "solve",
        dict(n=128, m_over_n=8, trials=200, max_iters=40 * 128, seed=A1_SEED,
             planted_radius=0.005, delta=0.5),
        None,
    )
    traces = [_trial(cfg, t) for t in range(cfg.trials)]
    return cfg, traces


def test_a1_linear_rate(solve_run):
    cfg, traces = solve_run
    stats = contraction_stats(traces)
    bound = 1.0 - 0.03 / cfg.n
    mask = stats.mean_dist_sq[:-1] > 1e-24
    worst = float(stats.ratios[mask].max())
    report("A1 per-step contraction of mean squared error", worst <= bound,
           f"max ratio {worst:.9f} <= {bound:.9f} over {int(mask.sum())} steps")


def test_a2_exit_probability(solve_run):
    cfg, traces = solve_run
    frac = float(np.mean([t.exited() for t in traces]))
    bound = cfg.delta**2
    report("A2 trust-ball exit fraction", frac <= bound, f"{frac:.4f} <= {bound}")


def test_a3_single_step_oracle():
    n, m = 64, 16 * 64
    root = RngStream(31, 0)
    e = make_ensemble(m, n, Model.UNIT_SPHERE, root.substream(1))
    x = unit_signal(n, root.substream(2))
    b = measure(e, x)
    bound = 1.0 - 0.03 / n
    worst = -np.inf
    for t in range(100):
        z = planted_init(x, 0.005, RngStream(32, t))
        ratio = expected_step(e, b, x, z) / dist(z, x) ** 2
        worst = max(worst, ratio)
    report("A3 exhaustive one-step contraction", worst <= bound,
           f"worst ratio {worst:.6f} <= {bound:.6f} on 100 points")


def test_a4_margin_scan(tmp_path):
    out = tmp_path / "scan"
    rc = main(["rsc-scan", "--n", "64", "--m", "1024", "--samples", "1000",
               "--seed", "17", "--out", str(out)])
    doc = json.loads((out / "rsc_scan.json").read_text())
    ok = rc == 0 and doc["passed"] and doc["min_gamma"] >= 0.03 / 64
    report("A4 curvature margin scan", ok,
           f"min gamma {doc['min_gamma']:.6f} >= {0.03 / 64:.6f} over 1000 samples")


def test_a5_covariance_concentration():
    rep = check_covariance(16, 1024, delta=0.5, trials=50, rng=RngStream(55, 0))
    report("A5 covariance concentration", rep.estimate >= 0.98,
           f"pass fraction {rep.estimate:.3f} >= 0.98 over 50 ensembles")


def test_a6_expectation_lower_bound():
    floor = 0.3125  # 3/8 - 1/(3+1)^2
    details = []
    ok = True
    for i, sigma in enumerate((0.0, 0.5, 0.9)):
        params = LemmaParams(lam=3.0, sigma=sigma)
        rep = mc_F(params, 10**6, RngStream(66, i))
        series = series_F(params)
        ok_point = rep.estimate >= floor - 3 * rep.std_error
        ok_agree = abs(rep.estimate - series) <= 3 * rep.std_error
        ok = ok and ok_point and ok_agree
        details.append(f"sigma={sigma}: mc {rep.estimate:.5f} series {series:.5f} se {rep.std_error:.1e}")
    report("A6 lower bound and series agreement", ok, "; ".join(details))


def test_a7_truncated_moment_ceiling():
    ceiling = closed_form_g(0.4)
    details = []
    ok = True
    for i, sigma in enumerate((0.0, 0.5, 0.9)):
        rep = mc_G(LemmaParams(lam=0.4, sigma=sigma), 10**6, RngStream(77, i))
        ok = ok and rep.estimate <= ceiling + 3 * rep.std_error
        details.append(f"sigma={sigma}: mc {rep.estimate:.5f} se {rep.std_error:.1e}")
    report("A7 truncated second-moment ceiling", ok,
           f"ceiling {ceiling:.5f}; " + "; ".join(details))


def test_a8_proof_chain_identity():
    worst_step = 0.0
    worst_rows = 0.0
    count = 0
    configs = [(2, 5), (2, 64), (8, 5), (8, 64)]
    for rep in range(25):
        for n, m in configs:
            root = RngStream(88000 + rep, len(configs) * rep + n + m)
            e = make_ensemble(m, n, Model.UNIT_SPHERE, root.substream(1))
            x = unit_signal(n, root.substream(2))
            b = measure(e, x)
            z = planted_init(x, 1e-5, root.substream(3))
            d2 = dist(z, x) ** 2
            f = loss(e, x, z)
            v = z - x * np.exp(1j * optimal_phase(z, x))
            d = directional_derivative(e, x, z, v)
            lhs = expected_step(e, b, x, z)
            rhs = d2 + f - d
            worst_step = max(worst_step, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
            gap_rows = float(np.mean(margin_row_terms(e, x, z)))
            worst_rows = max(worst_rows, abs(gap_rows - (d - f)) / max(abs(gap_rows), abs(d - f)))
            count += 1
    ok = worst_step <= 1e-10 and worst_rows <= 1e-8 and count == 100
    report("A8 one-step identity and row decomposition", ok,
           f"worst step rel {worst_step:.2e} <= 1e-10, worst rows rel {worst_rows:.2e} <= 1e-8")


def test_a9_derivative_matches_finite_differences():
    worst = 0.0
    checked = 0
    seed = 0
    while checked < 100:
        root = RngStream(99000, seed)
        seed += 1
        e = make_ensemble(24, 6, Model.UNIT_SPHERE, root.substream(1))
        x = unit_signal(6, root.substream(2))
        z = complex_standard_normal(6, root.substream(3).generator())
        if np.min(np.abs(e.rows.conj() @ z)) < 1e-3:
            continue
        v = complex_standard_normal(6, root.substream(4).generator())
        v /= np.linalg.norm(v)
        t = 1e-6
        fd = (loss(e, x, z + t * v) - loss(e, x, z)) / t
        exact = directional_derivative(e, x, z, v)
        worst = max(worst, abs(fd - exact))
        checked += 1
    report("A9 one-sided finite-difference oracle", worst <= 1e-4,
           f"worst abs error {worst:.2e} <= 1e-4 on 100 points")


def test_a10_linear_baseline():
    cfg = resolve_config(
        "baseline", dict(n=32, m=512, trials=50, max_iters=50 * 32, seed=A10_SEED), None
    )
    finals = []
    monotone = True
    for t in range(cfg.trials):
        trace = _trial(cfg, t)
        finals.append(trace.dist[-1])
        monotone = monotone and bool(
            np.all(trace.dist[1:] <= trace.dist[:-1] * (1.0 + 1e-10) + 1e-15)
        )
    worst = max(finals)
    ok = worst <= 1e-10 and monotone
    report("A10 linear baseline convergence", ok,
           f"worst final error {worst:.2e} <= 1e-10 in all 50 trials, monotone={monotone}")


def test_a11_seeded_reruns_are_byte_identical(tmp_path, capsys):
    specs = [
        (["solve", "--n", "16", "--m", "128", "--trials", "3", "--max-iters", "60",
          "--seed", "11", "--serial"], "solve"),
        (["baseline", "--n", "16", "--m", "128", "--trials", "2", "--max-iters", "100",
          "--seed", "12", "--serial"], "baseline"),
        (["rsc-scan", "--n", "16", "--m", "256", "--samples", "10", "--seed", "13"], "scan"),
        (["verify", "F", "--lambda", "3", "--sigma", "0.5", "--samples", "20000",
          "--seed", "14"], "verify"),
    ]
    ok = True
    details = []
    for args, label in specs:
        out_a = tmp_path / f"{label}_a"
        out_b = tmp_path / f"{label}_b"
        rc_a = main(args + ["--out", str(out_a)])
        rc_b = main(args + ["--out", str(out_b)])
        same = rc_a == rc_b
        for name in sorted(p.name for p in out_a.iterdir()):
            same = same and (out_a / name).read_bytes() == (out_b / name).read_bytes()
        ok = ok and same
        details.append(f"{label}:{'=' if same else '!='}")
    capsys.readouterr()  # drop verify stdout
    report("A11 determinism of serial artifacts", ok, " ".join(details))
