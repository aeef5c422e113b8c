import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kaczpr import (
    Measurements,
    Model,
    RngStream,
    SolverConfig,
    dist,
    linear_step,
    make_ensemble,
    measure,
    planted_init,
    pr_step,
    run_linear,
    run_pr,
    sample_unit_sphere,
    select_rows,
)
from kaczpr import _csv, kaczmarz
from conftest import unit_signal

GOLDEN_ROWS_9_1 = [0, 7, 1, 4, 2, 6, 0, 2, 4, 5, 7, 3]


def test_select_row_uniform_frequencies():
    e = make_ensemble(4, 3, Model.UNIT_SPHERE, RngStream(1, 0))
    idx = select_rows(e, RngStream(2, 0), 10**5)
    freqs = np.bincount(idx, minlength=4) / idx.size
    assert np.all(np.abs(freqs - 0.25) <= 0.01)


def test_select_row_norm_weighted_frequencies():
    from kaczpr import Ensemble

    rows = np.array([[np.sqrt(3.0), 0.0], [0.0, 1.0]], dtype=complex)
    e = Ensemble(rows=rows, model=Model.COMPLEX_GAUSSIAN, row_norms_sq=np.array([3.0, 1.0]))
    idx = select_rows(e, RngStream(3, 0), 10**5)
    freq0 = float((idx == 0).mean())
    assert abs(freq0 - 0.75) <= 0.01


def test_select_row_deterministic_and_matches_batch():
    e = make_ensemble(8, 2, Model.UNIT_SPHERE, RngStream(3, 0))
    idx = select_rows(e, RngStream(9, 1), 12)
    assert list(idx) == GOLDEN_ROWS_9_1


def test_pr_step_fixed_point_and_equation_satisfaction():
    a = sample_unit_sphere(5, RngStream(4, 0))
    z = 2.0 * sample_unit_sphere(5, RngStream(5, 0))
    b = abs(np.vdot(a, z))
    np.testing.assert_allclose(pr_step(z, a, b), z, atol=1e-14)
    for b_target in (0.1, 1.0, 3.7):
        z_new = pr_step(z, a, b_target)
        assert abs(np.vdot(a, z_new)) == pytest.approx(b_target, rel=1e-10)


def test_pr_step_matches_linear_step_on_real_data():
    gen = RngStream(6, 0).generator()
    a = gen.random(4).astype(complex)
    z = gen.random(4).astype(complex)
    s = np.vdot(a, z).real
    assert s > 0
    b = 0.5 * s  # keep the target on the same side so the phases agree
    np.testing.assert_allclose(pr_step(z, a, b), linear_step(z, a, b), atol=1e-12)


def test_pr_step_global_phase_equivariance():
    a = sample_unit_sphere(4, RngStream(7, 0))
    z = 1.5 * sample_unit_sphere(4, RngStream(8, 0))
    b = 0.8
    stepped = pr_step(z, a, b)
    for factor in (1j, -1.0, -1j):  # exact unimodular multiplications
        np.testing.assert_array_equal(pr_step(factor * z, a, b), factor * stepped)
    theta = 0.9774
    np.testing.assert_allclose(
        pr_step(np.exp(1j * theta) * z, a, b), np.exp(1j * theta) * stepped, atol=1e-12
    )


def test_pr_step_zero_residual_policies():
    a = np.array([1.0 + 0j, 0.0])
    z = np.array([0.0 + 0j, 1.0])  # a^* z = 0
    landed = pr_step(z, a, 2.0)
    np.testing.assert_allclose(landed, np.array([2.0 + 0j, 1.0]), atol=1e-15)
    assert abs(np.vdot(a, landed)) == pytest.approx(2.0)


def test_pr_step_rejects_zero_row_and_bad_b():
    z = np.ones(3, complex)
    with pytest.raises(ValueError):
        pr_step(z, np.zeros(3, complex), 1.0)
    with pytest.raises(ValueError):
        pr_step(z, np.ones(3, complex), -1.0)
    with pytest.raises(ValueError):
        pr_step(z, np.ones(2, complex), 1.0)


def test_linear_step_projection_properties():
    a = sample_unit_sphere(6, RngStream(9, 0))
    z = 3.0 * sample_unit_sphere(6, RngStream(10, 0))
    y = 0.3 - 0.8j
    z_new = linear_step(z, a, y)
    assert np.vdot(a, z_new) == pytest.approx(y, rel=1e-10)
    # projection distance formula
    assert np.linalg.norm(z_new - z) == pytest.approx(abs(y - np.vdot(a, z)), rel=1e-12)
    on_plane = linear_step(z_new, a, y)
    np.testing.assert_allclose(on_plane, z_new, atol=1e-12)


def test_linear_step_scalar_case():
    z_new = linear_step(np.array([0.0 + 0j]), np.array([1.0 + 0j]), 7.0)
    np.testing.assert_allclose(z_new, np.array([7.0 + 0j]))


_entries = st.complex_numbers(min_magnitude=1e-2, max_magnitude=1e2,
                              allow_nan=False, allow_infinity=False)
_step_cases = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(_entries, min_size=n, max_size=n),
        st.lists(_entries, min_size=n, max_size=n),
        st.floats(0.0, 50.0),
    )
)


@settings(max_examples=150, deadline=None)
@given(_step_cases)
def test_pr_step_lands_on_magnitude_level_set(case):
    a = np.array(case[0], dtype=complex)
    z = np.array(case[1], dtype=complex)
    b = case[2]
    z_new = pr_step(z, a, b)
    assert abs(abs(np.vdot(a, z_new)) - b) <= 1e-10 * (1.0 + b)


@settings(max_examples=300, deadline=None)
@given(_step_cases)
def test_pr_step_exact_phase_equivariance_property(case):
    a = np.array(case[0], dtype=complex)
    z = np.array(case[1], dtype=complex)
    b = case[2]
    assume(np.vdot(a, z) != 0)  # the zero-residual branch has no phase to follow
    stepped = pr_step(z, a, b)
    for factor in (1j, -1.0, -1j):
        np.testing.assert_array_equal(pr_step(factor * z, a, b), factor * stepped)


@settings(max_examples=150, deadline=None)
@given(_step_cases)
def test_linear_step_lands_on_hyperplane(case):
    a = np.array(case[0], dtype=complex)
    z = np.array(case[1], dtype=complex)
    y = complex(case[2], -0.5 * case[2])
    z_new = linear_step(z, a, y)
    scale = 1.0 + abs(y) + float(np.linalg.norm(z)) * float(np.linalg.norm(a))
    assert abs(np.vdot(a, z_new) - y) <= 1e-10 * scale


def test_run_pr_fixed_point_and_determinism():
    n, m = 8, 64
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(11, 0))
    x = unit_signal(n, RngStream(12, 0))
    b = measure(e, x)
    cfg = SolverConfig(max_iters=50)
    trace = run_pr(e, b, x, cfg, RngStream(13, 0), truth=x)
    assert trace.stopping_time is None
    assert np.all(trace.dist <= 1e-12)
    np.testing.assert_allclose(trace.final, x, atol=1e-12)
    again = run_pr(e, b, x, cfg, RngStream(13, 0), truth=x)
    np.testing.assert_array_equal(trace.rows, again.rows)
    np.testing.assert_array_equal(trace.dist, again.dist)


def test_run_pr_matches_manual_step_sequence():
    n, m = 6, 48
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(50, 0))
    x = unit_signal(n, RngStream(51, 0))
    b = measure(e, x)
    z = planted_init(x, 0.005, RngStream(52, 0))
    steps = 25
    idx = select_rows(e, RngStream(53, 0), steps)
    manual = z.copy()
    for j in idx:
        manual = pr_step(manual, e.rows[j], b.values[j], row_norm_sq=e.row_norms_sq[j])
    trace = run_pr(e, b, z, SolverConfig(max_iters=steps), RngStream(53, 0), truth=x)
    np.testing.assert_array_equal(trace.rows, idx)
    np.testing.assert_allclose(trace.final, manual, rtol=1e-12, atol=1e-14)


def test_run_pr_commutes_with_a_global_phase_to_roundoff():
    # pr_step is exact under ±1 and ±i; the loop's cheaper update is not, so
    # the documented claim is agreement to roundoff over a run
    n, m, steps = 32, 256, 200
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(54, 0))
    x = unit_signal(n, RngStream(55, 0))
    b = measure(e, x)
    z0 = planted_init(x, 0.005, RngStream(56, 0))
    cfg = SolverConfig(max_iters=steps, track_distance=False)
    ref = run_pr(e, b, z0, cfg, RngStream(57, 0))
    for f in (1j, -1.0, -1j):
        turned = run_pr(e, b, f * z0, cfg, RngStream(57, 0))
        np.testing.assert_array_equal(turned.rows, ref.rows)
        gap = np.linalg.norm(turned.final - f * ref.final)
        assert gap <= 1e-13 * np.linalg.norm(ref.final)
        np.testing.assert_allclose(turned.abs_az, ref.abs_az, rtol=1e-13, atol=0)


def test_run_linear_matches_manual_step_sequence():
    n, m = 5, 40
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(54, 0))
    x = unit_signal(n, RngStream(55, 0))
    y = e.rows.conj() @ x
    steps = 25
    idx = select_rows(e, RngStream(56, 0), steps)
    manual = np.zeros(n, complex)
    for j in idx:
        manual = linear_step(manual, e.rows[j], y[j], row_norm_sq=e.row_norms_sq[j])
    trace = run_linear(e, y, np.zeros(n, complex), SolverConfig(max_iters=steps),
                       RngStream(56, 0), truth=x)
    np.testing.assert_allclose(trace.final, manual, rtol=1e-12, atol=1e-14)


def test_run_pr_converges_from_planted_start():
    n, m = 32, 512
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(14, 0))
    x = unit_signal(n, RngStream(15, 0))
    b = measure(e, x)
    z0 = planted_init(x, 0.005, RngStream(16, 0))
    cfg = SolverConfig(max_iters=20 * n)
    trace = run_pr(e, b, z0, cfg, RngStream(17, 0), truth=x)
    assert trace.dist[0] == pytest.approx(0.005, rel=1e-10)
    assert trace.dist[-1] < 1e-4
    assert trace.stopping_time is None


def test_run_pr_median_distance_at_forty_n():
    # end-to-end rate check at n=128, m=16n over 50 trials; the pinned seed's
    # median was verified against the (1 - 0.03/n)^(k/2) envelope's scale
    n, m, trials = 128, 16 * 128, 50
    finals = []
    for t in range(trials):
        root = RngStream(404, t)
        e = make_ensemble(m, n, Model.UNIT_SPHERE, root.substream(1))
        x = unit_signal(n, root.substream(2))
        b = measure(e, x)
        z0 = planted_init(x, 0.005, root.substream(3))
        cfg = SolverConfig(max_iters=40 * n, track_distance=False)
        trace = run_pr(e, b, z0, cfg, root.substream(4))
        finals.append(dist(trace.final, x))
    assert np.median(finals) <= 1e-6


def test_run_pr_records_stopping_time_and_keeps_going():
    # plant far outside the ball: stopping time fires immediately, run continues
    n, m = 16, 256
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(18, 0))
    x = unit_signal(n, RngStream(19, 0))
    b = measure(e, x)
    z0 = planted_init(x, 0.5, RngStream(20, 0))
    cfg = SolverConfig(max_iters=100)
    trace = run_pr(e, b, z0, cfg, RngStream(21, 0), truth=x)
    assert trace.stopping_time == 0
    assert trace.iterations == 100
    assert trace.dist.shape == (101,)


def test_run_linear_consistent_system():
    n, m = 32, 512
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(22, 0))
    x = unit_signal(n, RngStream(23, 0))
    y = e.rows.conj() @ x
    cfg = SolverConfig(max_iters=50 * n)
    trace = run_linear(e, y, np.zeros(n, complex), cfg, RngStream(24, 0), truth=x)
    assert trace.dist[-1] <= 1e-10
    # orthogonal projections never increase the error
    assert np.all(trace.dist[1:] <= trace.dist[:-1] * (1.0 + 1e-10) + 1e-15)


def test_run_linear_stationary_at_solution():
    n, m = 8, 32
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(25, 0))
    x = unit_signal(n, RngStream(26, 0))
    y = e.rows.conj() @ x
    cfg = SolverConfig(max_iters=30)
    trace = run_linear(e, y, x, cfg, RngStream(27, 0), truth=x)
    assert np.all(trace.dist <= 1e-12)


def test_run_validation_errors():
    e = make_ensemble(4, 3, Model.UNIT_SPHERE, RngStream(28, 0))
    x = unit_signal(3, RngStream(29, 0))
    b = measure(e, x)
    cfg = SolverConfig(max_iters=5)
    with pytest.raises(ValueError):
        run_pr(e, b, np.ones(2, complex), cfg, RngStream(1, 0), truth=x)
    with pytest.raises(ValueError):
        run_pr(e, b, x, cfg, RngStream(1, 0))  # track_distance needs truth
    short = measure(make_ensemble(3, 3, Model.UNIT_SPHERE, RngStream(2, 0)), x)
    with pytest.raises(ValueError):
        run_pr(e, short, x, cfg, RngStream(1, 0), truth=x)


def test_trace_csv_and_sidecar(tmp_path):
    e = make_ensemble(6, 3, Model.UNIT_SPHERE, RngStream(30, 0))
    x = unit_signal(3, RngStream(31, 0))
    b = measure(e, x)
    cfg = SolverConfig(max_iters=4)
    trace = run_pr(e, b, planted_init(x, 0.005, RngStream(32, 0)), cfg, RngStream(33, 0), truth=x)
    csv_path = tmp_path / "trace.csv"
    trace.to_csv(csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "k,i_k,dist,abs_az"
    assert len(lines) == cfg.max_iters + 2  # header + per-step rows + final state
    assert lines[-1].startswith("4,-1,")
    trace.to_sidecar_json(tmp_path / "trace.json")
    import json

    doc = json.loads((tmp_path / "trace.json").read_text())
    for key in ("seed", "stream_id", "m", "n", "model", "max_iters", "stopping_time", "config"):
        assert key in doc
    # the step rule is fixed, and every trace sidecar names it
    assert doc["config"] == {"ball_radius_rel": 0.01, "track_distance": True,
                             "selection": "norm_weighted", "zero_residual_policy": "phase_one"}
    # a stamp adds its keys to the same document
    trace.to_sidecar_json(tmp_path / "stamped.json", trial=3, root_seed=33)
    assert json.loads((tmp_path / "stamped.json").read_text()) == {**doc, "trial": 3,
                                                                    "root_seed": 33}


def test_single_step_expected_contraction_bound():
    # averaged over all rows, one step contracts squared error by 0.03/n
    from kaczpr import expected_step

    n, m = 32, 16 * 32
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(34, 0))
    x = unit_signal(n, RngStream(35, 0))
    b = measure(e, x)
    for t in range(5):
        z = planted_init(x, 0.01 * (0.2 + 0.16 * t), RngStream(36, t))
        d2 = dist(z, x) ** 2
        assert expected_step(e, b, x, z) <= (1.0 - 0.03 / n) * d2


def test_run_pr_mean_contraction_across_trials():
    from kaczpr import contraction_stats

    n, m, trials = 16, 16 * 16, 200
    traces = []
    for t in range(trials):
        root = RngStream(40000, t)
        e = make_ensemble(m, n, Model.UNIT_SPHERE, root.substream(1))
        x = unit_signal(n, root.substream(2))
        b = measure(e, x)
        z0 = planted_init(x, 0.005, root.substream(3))
        cfg = SolverConfig(max_iters=60)
        traces.append(run_pr(e, b, z0, cfg, root.substream(4), truth=x))
    stats = contraction_stats(traces)
    mask = stats.mean_dist_sq[:-1] > 1e-24
    assert np.all(stats.ratios[mask] <= 1.0 - 0.03 / n)


def _planted_problem(n, m, seed):
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(seed, 0))
    x = unit_signal(n, RngStream(seed, 1))
    return e, x, planted_init(x, 0.005, RngStream(seed, 2))


def _buffer_rows(n):
    return kaczmarz._TRACK_BUFFER_BYTES // (16 * n)


def test_tracked_distance_matches_truncated_runs_across_buffer_boundaries():
    n, m = 128, 1024
    e, x, z0 = _planted_problem(n, m, 60)
    b = measure(e, x)
    y = e.rows.conj() @ x
    B = _buffer_rows(n)
    k_max = 2 * B + 37
    pr = run_pr(e, b, z0, SolverConfig(max_iters=k_max), RngStream(61, 0), truth=x)
    lin = run_linear(e, y, z0, SolverConfig(max_iters=k_max), RngStream(61, 0), truth=x)
    tol = 1e-12 * np.linalg.norm(x)
    for k in (0, B - 1, B, B + 1, k_max):
        cfg = SolverConfig(max_iters=k, track_distance=False)
        short = run_pr(e, b, z0, cfg, RngStream(61, 0))
        np.testing.assert_array_equal(short.rows, pr.rows[:k])
        assert abs(pr.dist[k] - dist(short.final, x)) <= tol
        short = run_linear(e, y, z0, cfg, RngStream(61, 0))
        assert abs(lin.dist[k] - np.linalg.norm(short.final - x)) <= tol


def test_tracking_never_perturbs_the_iteration():
    e, x, z0 = _planted_problem(16, 128, 62)
    b = measure(e, x)
    y = e.rows.conj() @ x
    for solver, rhs in ((run_pr, b), (run_linear, y)):
        on = solver(e, rhs, z0, SolverConfig(max_iters=700), RngStream(63, 0), truth=x)
        off = solver(e, rhs, z0, SolverConfig(max_iters=700, track_distance=False),
                     RngStream(63, 0), truth=x)
        assert off.dist is None and off.stopping_time is None
        np.testing.assert_array_equal(on.rows, off.rows)
        np.testing.assert_array_equal(on.abs_az, off.abs_az)
        np.testing.assert_array_equal(on.final, off.final)


def _exit_case():
    # far from the circle the distance can set a new running maximum (here at
    # k = 13); a radius between the old maximum and the new one makes that
    # step the first exit
    n, m = 8, 64
    e = make_ensemble(m, n, Model.UNIT_SPHERE, RngStream(69, 0))
    x = 4.0 * unit_signal(n, RngStream(69, 1))
    b = measure(e, x)
    z0 = x + 2.0 * unit_signal(n, RngStream(69, 2))
    d = run_pr(e, b, z0, SolverConfig(max_iters=60), RngStream(70, 0), truth=x).dist
    records = [k for k in range(3, d.size) if d[k] > d[:k].max()]
    assert records, "no running maximum to exit at"
    k_star = records[0]
    radius = 0.5 * (d[:k_star].max() + d[k_star])
    return e, b, z0, x, k_star, radius / np.linalg.norm(x)


def test_stopping_time_is_first_exit_on_buffer_boundaries_and_at_k_max(monkeypatch):
    e, b, z0, x, k_star, rel = _exit_case()
    cases = [(60, k_star), (60, k_star + 1), (k_star, 4), (60, 10**6)]
    for max_iters, rows in cases:  # k_star first in a buffer, last in one, at k_max
        monkeypatch.setattr(kaczmarz, "_TRACK_BUFFER_BYTES", 16 * e.n * rows)
        trace = run_pr(e, b, z0, SolverConfig(max_iters=max_iters, ball_radius_rel=rel),
                       RngStream(70, 0), truth=x)
        radius = rel * np.linalg.norm(x)
        assert trace.stopping_time == int(np.flatnonzero(trace.dist > radius)[0]) == k_star


def test_zero_iterations_track_only_the_start():
    e, x, z0 = _planted_problem(8, 64, 66)
    b = measure(e, x)
    for solver, rhs, ref in ((run_pr, b, dist(z0, x)),
                             (run_linear, e.rows.conj() @ x, np.linalg.norm(z0 - x))):
        trace = solver(e, rhs, z0, SolverConfig(max_iters=0), RngStream(67, 0), truth=x)
        assert trace.dist.shape == (1,)
        assert trace.dist[0] == pytest.approx(ref, rel=1e-12)
        assert trace.abs_az.shape == (0,)
        assert trace.sidecar()["min_abs_az"] is None


def test_tracked_distance_bytes_do_not_depend_on_buffer_length(monkeypatch):
    e, x, z0 = _planted_problem(32, 256, 68)
    b = measure(e, x)
    y = e.rows.conj() @ x
    cfg = SolverConfig(max_iters=900)
    default = [run_pr(e, b, z0, cfg, RngStream(69, 0), truth=x).dist,
               run_linear(e, y, z0, cfg, RngStream(69, 0), truth=x).dist]
    monkeypatch.setattr(kaczmarz, "_TRACK_BUFFER_BYTES", 1)
    single = [run_pr(e, b, z0, cfg, RngStream(69, 0), truth=x).dist,
              run_linear(e, y, z0, cfg, RngStream(69, 0), truth=x).dist]
    assert _buffer_rows(32) < cfg.max_iters
    for a, c in zip(default, single):
        assert a.tobytes() == c.tobytes()


def test_run_linear_rejects_mismatched_truth():
    e = make_ensemble(16, 8, Model.UNIT_SPHERE, RngStream(70, 0))
    y = e.rows.conj() @ unit_signal(8, RngStream(70, 1))
    for truth in (np.ones(1, complex), np.ones(9, complex)):
        with pytest.raises(ValueError, match="truth dimension does not match ensemble"):
            run_linear(e, y, np.zeros(8, complex), SolverConfig(max_iters=5),
                       RngStream(71, 0), truth=truth)


@pytest.mark.parametrize("track", [True, False])
def test_runs_raise_on_non_finite_iterate_naming_step_and_row(monkeypatch, track):
    monkeypatch.setattr(kaczmarz, "_TRACK_BUFFER_BYTES", 16 * 8 * 5)  # several flushes
    e = make_ensemble(64, 8, Model.UNIT_SPHERE, RngStream(72, 0))
    x = unit_signal(8, RngStream(72, 1))
    cases = ((run_linear, np.full(64, 1e308 + 0j), np.zeros(8, complex)),
             (run_pr, Measurements(values=np.full(64, 1e308)), unit_signal(8, RngStream(72, 2))))
    for solver, rhs, z0 in cases:
        cfg = SolverConfig(max_iters=200, track_distance=track)
        with pytest.raises(ValueError, match=r"non-finite iterate at step \d+") as err:
            solver(e, rhs, z0, cfg, RngStream(73, 0), truth=x)
        k = int(err.value.args[0].split("step ")[1].split(",")[0])
        idx = select_rows(e, RngStream(73, 0), 200)
        assert 1 <= k <= 200
        assert err.value.args[0].endswith(f"produced by row {idx[k - 1]}")
        # every step before k stayed finite
        solver(e, rhs, z0, SolverConfig(max_iters=k - 1, track_distance=track),
               RngStream(73, 0), truth=x)


def test_sidecar_counts_zero_residual_steps_and_smallest_abs_az():
    from kaczpr import SolverTrace

    trace = SolverTrace(rows=np.array([3, 1, 4, 1, 5]), abs_az=np.array([0.5, 0.0, 0.25, 0.0, 2.0]),
                        dist=None, stopping_time=None, final=np.zeros(2, complex))
    doc = trace.sidecar()
    assert doc["zero_residual_steps"] == 2
    assert doc["min_abs_az"] == 0.0
    trace.abs_az = np.array([0.75, 0.125, 3.0])
    doc = trace.sidecar()
    assert doc["zero_residual_steps"] == 0
    assert doc["min_abs_az"] == 0.125


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def _block_problem(n=128, m=32):
    """Rows supported on the first or the second half of the coordinates.

    z0 lives on the first half, so a^* z is exactly 0 for second-half rows
    until the iterate picks up second-half coordinates.
    """
    from kaczpr import Ensemble

    gen = RngStream(90, 0).generator()
    rows = np.zeros((m, n), complex)
    half = n // 2
    rows[: m // 2, :half] = gen.standard_normal((m // 2, half)) + 1j * gen.standard_normal((m // 2, half))
    rows[m // 2 :, half:] = gen.standard_normal((m // 2, half)) + 1j * gen.standard_normal((m // 2, half))
    rows *= (1.0 + gen.random(m))[:, None] / np.linalg.norm(rows, axis=1)[:, None]
    norms_sq = np.einsum("ij,ij->i", rows.real, rows.real) + np.einsum("ij,ij->i", rows.imag, rows.imag)
    e = Ensemble(rows=rows, model=Model.COMPLEX_GAUSSIAN, row_norms_sq=norms_sq)
    x = unit_signal(n, RngStream(90, 1))
    z0 = np.zeros(n, complex)
    z0[:half] = x[:half] + 0.01 * unit_signal(half, RngStream(90, 2))
    return e, x, z0


def _reference_run(e, rhs, z0, cfg, rng, x, linear):
    """Plain per-step loop: the oracle for the shared step loop.

    Returns (abs_az, dist, final); dist comes from one pass over all iterates.
    """
    idx = select_rows(e, rng, cfg.max_iters)
    z = np.array(z0, dtype=complex)
    iterates, abs_az = [z], []
    for j in idx:
        a = e.rows[j]
        s = np.vdot(a, z)
        mag = abs(s)
        abs_az.append(mag)
        if linear:
            z = z + ((rhs[j] - s) / e.row_norms_sq[j]) * a
        elif mag != 0.0:
            c = (1.0 - rhs[j] / mag) * s / e.row_norms_sq[j]
            z = z - c * a
        else:
            z = z + (rhs[j] / e.row_norms_sq[j]) * a
        iterates.append(z)
    dist = None
    if cfg.track_distance:
        zs = np.array(iterates)
        dist = kaczmarz._row_norms(zs - x) if linear else kaczmarz._dist_rows(zs, x)
    return np.array(abs_az, dtype=float), dist, z


@pytest.mark.parametrize("buffer_rows", [1, 2, None])
def test_run_loops_match_plain_reference_loop_bit_for_bit(monkeypatch, buffer_rows):
    e, x, z0 = _block_problem()
    if buffer_rows is not None:
        monkeypatch.setattr(kaczmarz, "_TRACK_BUFFER_BYTES", 16 * e.n * buffer_rows)
    B = _buffer_rows(e.n)
    b = measure(e, x)
    y = e.rows.conj() @ x
    zero_steps = 0
    for solver, rhs, raw, linear in ((run_pr, b, b.values, False), (run_linear, y, y, True)):
        for track in (True, False):
            for k_max in sorted({0, 1, B - 1, B, B + 1}):
                cfg = SolverConfig(max_iters=k_max, track_distance=track)
                trace = solver(e, rhs, z0, cfg, RngStream(91, k_max), truth=x)
                abs_az, dist, final = _reference_run(e, raw, z0, cfg, RngStream(91, k_max),
                                                     x, linear)
                _same_bits(trace.abs_az, abs_az)
                _same_bits(trace.final, final)
                if track:
                    _same_bits(trace.dist, dist)
                else:
                    assert trace.dist is None
                if not linear:
                    zero_steps += int(np.count_nonzero(abs_az == 0.0))
    assert zero_steps  # the phase-one zero-residual branch ran


def _reference_csv(trace):
    """Per-line trace writer, kept as the reference for SolverTrace.to_csv."""
    k_max = trace.iterations
    lines = ["k,i_k,dist,abs_az"]
    for k in range(k_max):
        d = repr(float(trace.dist[k])) if trace.dist is not None else ""
        lines.append(f"{k},{trace.rows[k]},{d},{repr(float(trace.abs_az[k]))}")
    d = repr(float(trace.dist[k_max])) if trace.dist is not None else ""
    lines.append(f"{k_max},-1,{d},")
    return ("\n".join(lines) + "\n").encode()


def test_trace_csv_bytes_match_per_line_writer(tmp_path):
    e, x, z0 = _planted_problem(16, 128, 94)
    b = measure(e, x)
    # and step counts at the edges of the passes the file is written in
    rows = _csv._CHUNK_ROWS
    for k_max in (0, 300, rows - 1, rows, rows + 1, 2 * rows):
        for track in (True, False):
            cfg = SolverConfig(max_iters=k_max, track_distance=track)
            trace = run_pr(e, b, z0, cfg, RngStream(95, 0), truth=x)
            path = tmp_path / f"trace_{k_max}_{track}.csv"
            trace.to_csv(path)
            assert path.read_bytes() == _reference_csv(trace)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 32), ratio=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       k=st.integers(0, 200))
def test_run_pr_lands_on_the_level_set_of_its_last_row(n, ratio, seed, k):
    e = make_ensemble(ratio * n, n, Model.UNIT_SPHERE, RngStream(seed, 0))
    x = unit_signal(n, RngStream(seed, 1))
    b = measure(e, x)
    z0 = planted_init(x, 0.005, RngStream(seed, 2))
    trace = run_pr(e, b, z0, SolverConfig(max_iters=k + 1, track_distance=False), RngStream(seed, 3))
    assume(trace.abs_az[-1] != 0.0)
    j = trace.rows[-1]
    assert abs(np.vdot(e.rows[j], trace.final)) == pytest.approx(b.values[j], rel=1e-12)
