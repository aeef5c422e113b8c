import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from kaczpr import (
    Direction,
    LemmaParams,
    Model,
    RngStream,
    check_covariance,
    check_restricted_ratio,
    check_truncated_moment,
    closed_form_g,
    covariance_deviation,
    loose_bound_g,
    lower_bound_f,
    make_ensemble,
    mc_F,
    mc_G,
    series_F,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def exact_f_sigma0(lam):
    # direct integration: F(lam, 0) = lam^4 / (2 (1 + lam^2)^2)
    return lam**4 / (2.0 * (1.0 + lam**2) ** 2)


def betainc_series_f(lam, sigma, k_max=400):
    # independent evaluation: per-term integral via the regularized
    # incomplete beta function instead of quadrature
    x = lam * lam / (1.0 + lam * lam)
    total = 0.0
    for k in range(k_max):
        integral = 0.5 * scipy.special.betainc(k + 2, k + 1, x) * scipy.special.beta(k + 2, k + 1)
        log_coeff = (
            np.log(2.0)
            + scipy.special.gammaln(2 * k + 2)
            + np.log(2 * k + 1)
            - 2.0 * scipy.special.gammaln(k + 1)
            + 2.0 * np.log1p(-sigma**2)
        )
        if sigma == 0.0:
            if k > 0:
                break
        else:
            log_coeff += 2.0 * k * np.log(abs(sigma))
        term = np.exp(log_coeff) * integral
        total += term
        if term < 1e-15 and k > 5:
            break
    return total


def test_series_f_sigma_zero_closed_form():
    for lam in (3.0, 5.0, 10.0):
        got = series_F(LemmaParams(lam=lam, sigma=0.0))
        assert got == pytest.approx(exact_f_sigma0(lam), rel=1e-12)


def test_series_f_matches_betainc_oracle():
    for lam in (3.0, 5.0):
        for sigma in (0.0, 0.3, 0.6, 0.9):
            got = series_F(LemmaParams(lam=lam, sigma=sigma))
            want = betainc_series_f(lam, sigma)
            assert got == pytest.approx(want, rel=1e-10)


def quad_series_f(lam, sigma):
    # the series summed in closed form, (1+8y)/(1-4y)^(5/2) at y = sigma^2 r^2, by
    # adaptive quadrature: [0, min(lam, 1)] directly, (1, lam] as [1/lam, 1] under u = 1/t
    tau2 = (1.0 - sigma) * (1.0 + sigma)

    def integrand(t, jacobian):
        r = t / (1.0 + t * t)
        # 1 - 4 sigma^2 r^2, without cancellation
        d = ((1.0 - t * t) ** 2 + 4.0 * t * t * tau2) / (1.0 + t * t) ** 2
        return r**3 * (1.0 + 8.0 * sigma**2 * r**2) / d**2.5 * jacobian(t)

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=500)
    total = scipy.integrate.quad(integrand, 0.0, min(lam, 1.0), args=(lambda t: 1.0,), **opts)[0]
    if lam > 1.0:
        total += scipy.integrate.quad(integrand, 1.0 / lam, 1.0, args=(lambda u: 1.0 / (u * u),),
                                      **opts)[0]
    return 2.0 * tau2**2 * total


# every finite lambda is accepted, so the largest is the largest double
@pytest.mark.parametrize("lam", [3.0, 20.0, 50.0, 1e4, 1e300, sys.float_info.max])
@pytest.mark.parametrize("sigma", [0.0, 0.5, 0.97, 0.99, 1.0 - 1e-6])
def test_series_f_matches_quad_up_to_the_largest_lambda(lam, sigma):
    got = series_F(LemmaParams(lam=lam, sigma=sigma))
    assert got == pytest.approx(quad_series_f(lam, sigma), rel=1e-12)


# 1 - 1e-12 fails if 1 - t^2 is formed by cancellation near the peak at t = 1
@pytest.mark.parametrize("sigma", [0.0, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-12])
def test_series_f_tends_to_its_exact_limit(sigma):
    # given w = xi^* x, xi^* h = sigma w + tau g, so E Re^2(...) / |w|^2 = sigma^2 + tau^2 / 2
    got = series_F(LemmaParams(lam=1e300, sigma=sigma))
    assert got == pytest.approx((1.0 + sigma**2) / 2.0, abs=1e-14)


def test_lambda_past_the_square_overflow_gives_the_limit_bounds():
    assert lower_bound_f(1e300) == 0.375
    bound = check_restricted_ratio(4, 64, LemmaParams(lam=1e300), 10, RngStream(3, 0)).bound
    assert bound == (0.375 - 0.001) / 4


def test_series_f_monotone_in_lambda():
    vals = [series_F(LemmaParams(lam=lam, sigma=0.5)) for lam in (3.0, 4.0, 6.0, 10.0)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_series_f_rejects_unit_sigma():
    with pytest.raises(ValueError):
        series_F(LemmaParams(lam=3.0, sigma=1.0))


def test_mc_f_agrees_with_series_on_grid():
    for lam in (3.0, 5.0, 10.0):
        for sigma in (0.0, 0.3, 0.6, 0.9):
            params = LemmaParams(lam=lam, sigma=sigma)
            report = mc_F(params, 10**5, RngStream(200, int(lam * 10 + sigma * 10)))
            series = series_F(params)
            assert abs(report.estimate - series) <= 3.5 * report.std_error
            assert report.estimate - 3.0 * report.std_error >= lower_bound_f(lam)
            assert report.passed


def test_mc_f_symmetric_in_sigma():
    a = mc_F(LemmaParams(lam=3.0, sigma=0.5), 10**5, RngStream(201, 0))
    b = mc_F(LemmaParams(lam=3.0, sigma=-0.5), 10**5, RngStream(201, 1))
    assert abs(a.estimate - b.estimate) <= 3.0 * (a.std_error + b.std_error)


def test_mc_f_full_space_matches_reduction():
    params = LemmaParams(lam=3.0, sigma=0.4)
    reduced = mc_F(params, 10**5, RngStream(202, 0))
    full = mc_F(params, 10**5, RngStream(202, 1), mode="full", dim=8)
    assert abs(reduced.estimate - full.estimate) <= 3.0 * (reduced.std_error + full.std_error)


def test_mc_f_domain():
    with pytest.raises(ValueError):
        mc_F(LemmaParams(lam=2.0), 100, RngStream(1, 0))


def test_mc_g_zero_lambda_empty_event():
    report = mc_G(LemmaParams(lam=0.0), 10**4, RngStream(203, 0))
    assert report.estimate == 0.0


def test_mc_g_matches_exact_value_at_sigma_zero():
    # at sigma = 0 the ceiling is attained exactly
    params = LemmaParams(lam=0.4, sigma=0.0)
    report = mc_G(params, 10**6, RngStream(204, 0))
    assert abs(report.estimate - closed_form_g(0.4)) <= 3.0 * report.std_error


def test_mc_g_monotone_in_lambda():
    estimates = []
    for i, lam in enumerate((0.1, 0.2, 0.3, 0.4)):
        rep = mc_G(LemmaParams(lam=lam, sigma=0.3), 10**5, RngStream(205, i))
        estimates.append((rep.estimate, rep.std_error))
    for (lo, se_lo), (hi, se_hi) in zip(estimates, estimates[1:]):
        assert hi >= lo - 3.0 * (se_lo + se_hi)


def test_mc_g_bounds_and_modes():
    params = LemmaParams(lam=0.4, sigma=0.5)
    closed = mc_G(params, 10**5, RngStream(206, 0), bound="closed")
    loose = mc_G(params, 10**5, RngStream(206, 0), bound="loose")
    assert closed.estimate == loose.estimate
    assert closed.bound == pytest.approx(closed_form_g(0.4))
    assert loose.bound == pytest.approx(loose_bound_g(0.4))
    assert closed.bound < loose.bound
    full = mc_G(params, 10**5, RngStream(206, 1), mode="full", dim=6)
    assert abs(full.estimate - closed.estimate) <= 3.0 * (full.std_error + closed.std_error)


def test_mc_g_domain():
    with pytest.raises(ValueError):
        mc_G(LemmaParams(lam=0.9), 100, RngStream(1, 0))


def test_report_pass_rule():
    rep = mc_F(LemmaParams(lam=3.0), 10**4, RngStream(207, 0))
    assert rep.direction is Direction.AT_LEAST
    assert rep.passed == (rep.estimate - 3.0 * rep.std_error >= rep.bound)
    doc = rep.to_dict()
    assert doc["direction"] == "at_least"
    assert set(doc) == {"name", "estimate", "std_error", "bound", "direction", "samples", "passed"}


@pytest.mark.parametrize("n, m", [(4, 16), (16, 256), (64, 1024)])
def test_covariance_deviation_matches_dense_norm(n, m):
    rows = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(208, n)).rows
    deviation = sum(np.outer(a, a.conj()) for a in rows) / m - np.eye(n) / n
    want = np.linalg.norm(deviation, 2)
    assert covariance_deviation(rows) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("n, m", [(16, 1024), (8, 512), (64, 1024)])
def test_covariance_deviation_keeps_the_bits_of_the_whole_ensemble_product(n, m):
    # verify covariance's default sizes, the CI run's and the 64-wide tile's
    from kaczpr.initializers import _weighted_covariance

    root = RngStream(7, 0)
    for t in range(3):  # check_covariance's own ensembles
        rows = make_ensemble(m, n, Model.UNIT_SPHERE, root.substream(t)).rows
        want = rows.T @ rows.conj()
        got = _weighted_covariance(rows, np.ones(m))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        deviation = want / m - np.eye(n) / n
        assert covariance_deviation(rows) == float(np.max(np.abs(np.linalg.eigvalsh(deviation))))


def test_covariance_deviation_counts_negative_eigenvalues():
    # n - 1 coordinate rows: the deviation's largest eigenvalue is 1/(n(n-1)),
    # its most negative -1/n, which sets the norm
    n = 4
    assert covariance_deviation(np.eye(n, dtype=complex)[:-1]) == pytest.approx(1.0 / n, rel=1e-12)


def test_covariance_population_deviation_zero():
    # rows forming an exact tight frame: deviation is zero
    n = 4
    rows = np.eye(n, dtype=complex)
    assert covariance_deviation(rows) <= 1e-12


def test_check_covariance_wide_regime_passes():
    report = check_covariance(16, 64 * 16, delta=0.5, trials=50, rng=RngStream(209, 0))
    assert report.estimate >= 0.98
    assert report.passed


def test_check_covariance_tight_regime_reports_failures():
    # m = n sits far outside the concentration regime; expect honest failures
    report = check_covariance(16, 16, delta=0.01, trials=10, rng=RngStream(210, 0))
    assert report.estimate < 0.5
    assert not report.passed


def test_check_covariance_validation():
    with pytest.raises(ValueError):
        check_covariance(16, 8, delta=0.5, trials=5, rng=RngStream(1, 0))
    with pytest.raises(ValueError):
        check_covariance(4, 16, delta=0.0, trials=5, rng=RngStream(1, 0))


def test_check_restricted_ratio_bound_holds():
    params = LemmaParams(lam=3.0, delta=0.1)
    report = check_restricted_ratio(32, 64 * 32, params, 500, RngStream(211, 0))
    assert report.passed
    expected_bound = (0.375 - 1.0 / (1.0 + 0.99 * 3.0) ** 2 - 0.1) / 32
    assert report.bound == pytest.approx(expected_bound, rel=1e-12)


def test_check_restricted_ratio_seed_stability():
    params = LemmaParams(lam=3.0, delta=0.1)
    a = check_restricted_ratio(32, 64 * 32, params, 200, RngStream(212, 0))
    b = check_restricted_ratio(32, 64 * 32, params, 200, RngStream(213, 0))
    # fresh ensemble moves the minimum only within Monte Carlo noise
    assert abs(a.estimate - b.estimate) <= 0.5 * a.estimate


def test_check_restricted_ratio_domain():
    with pytest.raises(ValueError):
        check_restricted_ratio(8, 64, LemmaParams(lam=2.0), 10, RngStream(1, 0))


def test_check_truncated_moment_bound_holds():
    params = LemmaParams(lam=0.4, delta=0.1)
    report = check_truncated_moment(32, 64 * 32, params, 500, RngStream(214, 0))
    assert report.passed
    l2 = 0.16
    assert report.bound == pytest.approx((2 * l2 / (l2 + 0.99) + 0.1) / 32, rel=1e-12)
    # direction h = x is the first structured sample; its sum must vanish:
    # |a^* x| <= 0.4 |a^* x| fails whenever the product is nonzero
    assert report.estimate >= 0.0


def test_check_truncated_moment_vanishes_as_lambda_shrinks():
    big = check_truncated_moment(16, 64 * 16, LemmaParams(lam=0.4, delta=0.1), 100, RngStream(215, 0))
    small = check_truncated_moment(16, 64 * 16, LemmaParams(lam=0.05, delta=0.1), 100, RngStream(215, 0))
    assert small.estimate <= 0.1 * big.estimate


def test_check_truncated_moment_domain():
    with pytest.raises(ValueError):
        check_truncated_moment(8, 64, LemmaParams(lam=0.0), 10, RngStream(1, 0))


@pytest.mark.parametrize("lam", [3.0, 10.0, 1e300])
def test_check_restricted_ratio_matches_reference_form_bit_for_bit(lam):
    from kaczpr.verify import _scan_products

    params = LemmaParams(lam=lam, delta=0.1)
    for seed in range(3):
        Q, H = _scan_products(8, 128, 10, RngStream(seed, 0))
        q = np.abs(Q)
        safe_q = np.where(q > 0.0, q, 1.0)
        keep = lam * q[:, None] >= np.abs(H)
        cross = (H.conj() * Q[:, None]).real
        vals = np.where(keep & (q[:, None] > 0.0), cross**2 / safe_q[:, None] ** 2, 0.0)
        bound = (0.375 - 1.0 / (1.0 + 0.99 * min(lam, 1e150)) ** 2 - 0.1) / 8
        report = check_restricted_ratio(8, 128, params, 10, RngStream(seed, 0))
        assert report.estimate.hex() == float(vals.mean(axis=0).min()).hex()
        assert report.bound.hex() == bound.hex()


@pytest.mark.parametrize("lam", [0.1, 0.4])
def test_check_truncated_moment_matches_reference_form_bit_for_bit(lam):
    from kaczpr.verify import _scan_products

    for seed in range(3):
        Q, H = _scan_products(8, 128, 10, RngStream(seed, 0))
        absH = np.abs(H)
        vals = np.where(np.abs(Q)[:, None] <= lam * absH, absH**2, 0.0)
        report = check_truncated_moment(8, 128, LemmaParams(lam=lam, delta=0.1), 10,
                                        RngStream(seed, 0))
        assert report.estimate.hex() == float(vals.mean(axis=0).max()).hex()


def test_lemma_params_validation_and_tau():
    with pytest.raises(ValueError):
        LemmaParams(lam=-1.0)
    with pytest.raises(ValueError):
        LemmaParams(lam=3.0, sigma=1.5)
    with pytest.raises(ValueError):
        LemmaParams(lam=3.0, delta=0.0)
    params = LemmaParams(lam=3.0, sigma=0.6)
    assert params.tau == pytest.approx(0.8)


def _ref_mc_scalar(params, samples, rng, kind, mode, dim):
    # the batch loop with every batch's arrays bound in the loop body
    from kaczpr.initializers import real_overlap_direction
    from kaczpr.rng import complex_standard_normal
    from kaczpr.verify import _BATCH

    gen = rng.generator()
    lam, sigma, tau = params.lam, params.sigma, params.tau
    if mode == "full":
        x = complex_standard_normal(dim, gen)
        x /= np.linalg.norm(x)
        h = real_overlap_direction(x, gen)
        overlap = float(np.vdot(x, h).real)
        perp = h - overlap * x
        h = sigma * x + tau * perp / np.linalg.norm(perp)
    total = 0.0
    total_sq = 0.0
    left = samples
    while left > 0:
        chunk = min(left, _BATCH)
        if mode == "reduced":
            xi1 = complex_standard_normal(chunk, gen)
            xi2 = complex_standard_normal(chunk, gen)
            phi = 2.0 * np.pi * gen.random(chunk)
            xs_x = sigma * xi1.conj() + tau * np.exp(1j * phi) * xi2.conj()
            hs_xi = xi1
            xs_h = xi1.conj()
        else:
            xi = complex_standard_normal(chunk * dim, gen).reshape(chunk, dim)
            xs_x = xi.conj() @ x
            xs_h = xi.conj() @ h
            hs_xi = xs_h.conj()
        if kind == "F":
            mags = np.abs(xs_x)
            keep = lam * mags >= np.abs(xs_h)
            safe = np.where(mags > 0.0, mags, 1.0)
            vals = np.where(keep & (mags > 0.0), (hs_xi * xs_x).real ** 2 / safe**2, 0.0)
        else:
            vals = np.abs(xs_h) ** 2 * (np.abs(xs_x) <= lam * np.abs(xs_h))
        total += float(vals.sum())
        total_sq += float((vals * vals).sum())
        left -= chunk
    mean = total / samples
    return mean, math.sqrt(max(0.0, total_sq / samples - mean**2) / samples)


@pytest.mark.parametrize("kind, lam", [("F", 3.0), ("G", 0.4)])
@pytest.mark.parametrize("mode", ["reduced", "full"])
def test_mc_scalar_matches_reference_loop_bit_for_bit(monkeypatch, kind, lam, mode):
    import kaczpr.verify as verify

    monkeypatch.setattr(verify, "_BATCH", 1000)  # several batches and a short last one
    # several slices per batch and a short last one; at 1065 samples the
    # last batch is one slice plus a one-sample tail
    monkeypatch.setattr(verify, "_SLICE", 64)
    params = LemmaParams(lam=lam, sigma=0.6)
    for samples in (3500, 1065):
        got = verify._mc_scalar(params, samples, RngStream(207, 0), kind, mode, 5)
        want = _ref_mc_scalar(params, samples, RngStream(207, 0), kind, mode, 5)
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def test_mc_scalar_batch_peaks_below_3_mib(monkeypatch):
    import tracemalloc

    import kaczpr.verify as verify
    from kaczpr.verify import mc_G_reports

    # each worker holds its own slice buffers
    monkeypatch.setattr(verify, "_usable_cores", lambda: 2)

    calls = [
        lambda: mc_F(LemmaParams(lam=3.0, sigma=0.6), 1 << 17, RngStream(208, 0)),
        lambda: mc_G_reports(LemmaParams(lam=0.4, sigma=0.6), 1 << 17, RngStream(208, 0)),
    ]
    for call in calls:
        call()  # one-time allocations stay out of the measured call
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20


def test_mc_scalar_peak_is_capped_on_many_cores(monkeypatch):
    import threading
    import tracemalloc

    import kaczpr.verify as verify

    monkeypatch.setattr(verify, "_usable_cores", lambda: 64)
    # every worker holds its slice buffers at once, as on a host with that
    # many free cores: each waits at its first transform for all the others
    run_jobs, draw_normals = verify._in_threads, verify._draw_normals
    meeting = {}

    def in_threads(work, jobs):
        meeting.update(barrier=threading.Barrier(len(jobs)), met=set())
        run_jobs(work, jobs)

    def waiting_draw_normals(*args):
        if threading.get_ident() not in meeting["met"]:
            meeting["met"].add(threading.get_ident())
            meeting["barrier"].wait(timeout=60)
        return draw_normals(*args)

    monkeypatch.setattr(verify, "_in_threads", in_threads)
    monkeypatch.setattr(verify, "_draw_normals", waiting_draw_normals)
    call = lambda: mc_F(LemmaParams(lam=3.0, sigma=0.6), 1 << 17, RngStream(208, 0))
    call()  # one-time allocations stay out of the measured call
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # below the whole-batch draws' 6.48 MiB: 3.0-4.8 MiB measured at 8
    # workers, 7.6 MiB at 32 without the cap
    assert peak < 6.48 * (1 << 20)


@pytest.mark.parametrize("kind, lam", [("F", 3.0), ("G", 0.4)])
@pytest.mark.parametrize("mode", ["reduced", "full"])
def test_mc_scalar_bits_do_not_depend_on_the_core_count(monkeypatch, kind, lam, mode):
    import kaczpr.verify as verify

    monkeypatch.setattr(verify, "_BATCH", 1000)
    monkeypatch.setattr(verify, "_SLICE", 64)  # 16 slices a batch, the last with 40 samples
    params = LemmaParams(lam=lam, sigma=0.6)
    want = [_ref_mc_scalar(params, samples, RngStream(209, 0), kind, mode, 5)
            for samples in (3500, 1065, 70)]
    for cores in (1, 2, 3):
        monkeypatch.setattr(verify, "_usable_cores", lambda: cores)
        got = [verify._mc_scalar(params, samples, RngStream(209, 0), kind, mode, 5)
               for samples in (3500, 1065, 70)]
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def _run_verify(args, preexec_fn=None) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "kaczpr.cli", "verify", *args], env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=preexec_fn)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs a host with two usable cores")
@pytest.mark.parametrize("args", [
    ["F", "--lambda", "3", "--sigma", "0.5", "--samples", "140001"],
    ["G", "--lambda", "0.4", "--sigma", "0.5", "--samples", "140001"],
])
def test_verify_reports_do_not_depend_on_the_cores_it_may_use(args):
    one_core = _run_verify([*args, "--seed", "5"], lambda: os.sched_setaffinity(0, {0}))
    assert one_core and one_core == _run_verify([*args, "--seed", "5"])


def test_a_worker_thread_exception_is_raised_in_the_caller():
    import threading

    from kaczpr.verify import _in_threads

    ran = []

    def work(job):
        if job == 2:
            raise ArithmeticError("job 2")
        ran.append((job, threading.current_thread() is threading.main_thread()))

    with pytest.raises(ArithmeticError, match="job 2"):
        _in_threads(work, [(0,), (1,), (2,)])
    assert sorted(ran) == [(0, True), (1, False)]  # the first job runs in the caller
