import numpy as np
import pytest

from kaczpr import (
    Ensemble,
    Measurements,
    Model,
    RngStream,
    SolverTrace,
    contraction_stats,
    directional_derivative,
    dist,
    expected_step,
    loss,
    make_ensemble,
    margin_row_bounds,
    margin_row_terms,
    measure,
    optimal_phase,
    planted_init,
    rsc_margin,
    sample_complex_gaussian,
)
from kaczpr.geometry import aligned_error, as_cvector
from kaczpr.rng import complex_standard_normal
from conftest import unit_signal


def scalar_loss(rows, x, z):
    # independent brute-force summation, one row at a time, no vectorization
    total = 0.0
    for j in range(rows.shape[0]):
        pz = sum(rows[j][i].conjugate() * z[i] for i in range(rows.shape[1]))
        px = sum(rows[j][i].conjugate() * x[i] for i in range(rows.shape[1]))
        total += (abs(pz) - abs(px)) ** 2
    return total / rows.shape[0]


def test_loss_zero_on_solution_circle(small_ensemble):
    x = unit_signal(4, RngStream(80, 0))
    assert loss(small_ensemble, x, x) == 0.0
    assert loss(small_ensemble, x, np.exp(0.77j) * x) <= 1e-28


def test_loss_matches_bruteforce():
    e = make_ensemble(3, 2, Model.UNIT_SPHERE, RngStream(81, 0))
    x = sample_complex_gaussian(2, RngStream(82, 0))
    z = sample_complex_gaussian(2, RngStream(83, 0))
    assert loss(e, x, z) == pytest.approx(scalar_loss(e.rows, x, z), rel=1e-12)


def test_loss_phase_invariance(small_ensemble):
    x = sample_complex_gaussian(4, RngStream(84, 0))
    z = sample_complex_gaussian(4, RngStream(85, 0))
    base = loss(small_ensemble, x, z)
    assert loss(small_ensemble, np.exp(1.3j) * x, z) == pytest.approx(base, rel=1e-12)
    assert loss(small_ensemble, x, np.exp(-2.1j) * z) == pytest.approx(base, rel=1e-12)


def test_directional_derivative_zero_at_solution(small_ensemble):
    x = unit_signal(4, RngStream(86, 0))
    v = sample_complex_gaussian(4, RngStream(87, 0))
    assert directional_derivative(small_ensemble, x, x, v) == 0.0


def test_directional_derivative_finite_difference_oracle():
    rel_errors = []
    for seed in range(40):
        root = RngStream(90000, seed)
        e = make_ensemble(20, 4, Model.UNIT_SPHERE, root.substream(1))
        x = unit_signal(4, root.substream(2))
        z = complex_standard_normal(4, root.substream(3).generator())
        if np.min(np.abs(e.rows.conj() @ z)) < 1e-3:
            continue
        v = complex_standard_normal(4, root.substream(4).generator())
        v /= np.linalg.norm(v)
        t = 1e-6
        fd = (loss(e, x, z + t * v) - loss(e, x, z)) / t
        exact = directional_derivative(e, x, z, v)
        assert abs(fd - exact) <= 1e-4
        rel_errors.append(abs(fd - exact))
    assert rel_errors  # at least some non-degenerate draws


def test_directional_derivative_positive_homogeneity(small_ensemble):
    x = unit_signal(4, RngStream(88, 0))
    z = sample_complex_gaussian(4, RngStream(89, 0))
    v = sample_complex_gaussian(4, RngStream(90, 0))
    base = directional_derivative(small_ensemble, x, z, v)
    for c in (0.25, 2.0, 17.0):
        scaled = directional_derivative(small_ensemble, x, z, c * v)
        assert scaled == pytest.approx(c * base, rel=1e-12)


def test_directional_derivative_phase_equivariance(small_ensemble):
    # exact at quarter turns (unimodular multiplication is exact in floats):
    # the direction co-rotates with z, and the signal phase drops out entirely
    x = unit_signal(4, RngStream(107, 0))
    z = sample_complex_gaussian(4, RngStream(108, 0))
    v = sample_complex_gaussian(4, RngStream(109, 0))
    base = directional_derivative(small_ensemble, x, z, v)
    for factor in (1j, -1.0, -1j):
        assert directional_derivative(small_ensemble, x, factor * z, factor * v) == base
        assert directional_derivative(small_ensemble, factor * x, z, v) == base
    theta = 0.73
    rotated = directional_derivative(
        small_ensemble, x, np.exp(1j * theta) * z, np.exp(1j * theta) * v
    )
    assert rotated == pytest.approx(base, rel=1e-10)


def test_directional_derivative_rejects_zero_products():
    e = make_ensemble(3, 2, Model.UNIT_SPHERE, RngStream(91, 0))
    z = np.array([1.0 + 0j, 0.0])
    rows = e.rows.copy()
    rows[1] = np.array([0.0, 1.0])  # orthogonal to z
    from kaczpr import Ensemble

    broken = Ensemble(rows=rows, model=Model.UNIT_SPHERE, row_norms_sq=e.row_norms_sq)
    x = unit_signal(2, RngStream(92, 0))
    with pytest.raises(ValueError, match=r"rows \[1\]"):
        directional_derivative(broken, x, z, np.ones(2, complex))


def test_margin_identity_tiny_instance():
    # D - f equals the mean of the per-row expansion
    e = make_ensemble(5, 2, Model.UNIT_SPHERE, RngStream(93, 0))
    x = unit_signal(2, RngStream(94, 0))
    z = planted_init(x, 0.003, RngStream(95, 0))
    f = loss(e, x, z)
    v = z - x * np.exp(1j * optimal_phase(z, x))
    d = directional_derivative(e, x, z, v)
    gap = float(np.mean(margin_row_terms(e, x, z)))
    assert abs(gap - (d - f)) <= 1e-10 * max(abs(gap), abs(d - f))


def test_margin_row_bounds_hold_rowwise():
    # every row respects its lower bound when alpha * ||h|| <= 1/3
    alpha = 12.0
    for seed in range(10):
        root = RngStream(96000, seed)
        e = make_ensemble(64, 8, Model.UNIT_SPHERE, root.substream(1))
        x = unit_signal(8, root.substream(2))
        radius = (1.0 / 3.0) / alpha * 0.9  # keep alpha * ||h|| below 1/3
        z = planted_init(x, radius, root.substream(3))
        terms, bounds, strong = margin_row_bounds(e, x, z, alpha=alpha)
        slack = 1e-12 * np.max(np.abs(terms))
        assert np.all(terms >= bounds - slack)
        assert strong.any() and (~strong).sum() >= 0


def test_rsc_margin_fields_and_phase_invariance():
    n, m = 16, 256
    root = RngStream(97, 0)
    e = make_ensemble(m, n, Model.UNIT_SPHERE, root.substream(1))
    x = unit_signal(n, root.substream(2))
    z = planted_init(x, 0.008, root.substream(3))
    s = rsc_margin(e, x, z)
    assert s.h_norm == pytest.approx(dist(z, x), rel=1e-12)
    assert s.f_value >= 0.0
    assert s.margin_gamma == pytest.approx((s.directional - s.f_value) / s.h_norm**2, rel=1e-12)
    rotated = rsc_margin(e, x, np.exp(0.37j) * z)
    assert rotated.margin_gamma == pytest.approx(s.margin_gamma, rel=1e-9)
    rotated_x = rsc_margin(e, np.exp(-1.1j) * x, z)
    assert rotated_x.margin_gamma == pytest.approx(s.margin_gamma, rel=1e-9)


def test_rsc_margin_exceeds_certified_rate_in_ball():
    n, m = 64, 16 * 64
    root = RngStream(98, 0)
    e = make_ensemble(m, n, Model.UNIT_SPHERE, root.substream(1))
    x = unit_signal(n, root.substream(2))
    z = planted_init(x, 0.005, root.substream(3))
    assert rsc_margin(e, x, z).margin_gamma >= 0.03 / n
    # error direction parallel to the signal still clears the bar
    z_aligned = x * (1.0 + 0.005)
    assert rsc_margin(e, x, z_aligned).margin_gamma >= 0.03 / n


def test_rsc_margin_degenerate_inputs():
    e = make_ensemble(8, 4, Model.UNIT_SPHERE, RngStream(99, 0))
    x = unit_signal(4, RngStream(100, 0))
    with pytest.raises(ValueError):
        rsc_margin(e, x, x)


def test_expected_step_zero_at_solution(small_ensemble):
    x = unit_signal(4, RngStream(101, 0))
    b = measure(small_ensemble, x)
    assert expected_step(small_ensemble, b, x, x) == 0.0


def test_expected_step_proof_chain_identity():
    # dist^2 + f - D equals the exhaustive one-step average to near roundoff
    for seed in range(20):
        root = RngStream(102000, seed)
        n, m = (2, 5) if seed % 2 else (8, 64)
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
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
        # the stepped average never exceeds the pre-alignment bound
        assert lhs <= rhs + 1e-18


def test_expected_step_contracts_by_margin():
    n, m = 64, 16 * 64
    root = RngStream(103, 0)
    e = make_ensemble(m, n, Model.UNIT_SPHERE, root.substream(1))
    x = unit_signal(n, root.substream(2))
    b = measure(e, x)
    for t in range(10):
        z = planted_init(x, 0.01, RngStream(104, t))
        d2 = dist(z, x) ** 2
        assert expected_step(e, b, x, z) <= (1.0 - 0.03 / n) * d2


def test_expected_step_phase_invariance(small_ensemble):
    x = unit_signal(4, RngStream(105, 0))
    b = measure(small_ensemble, x)
    z = planted_init(x, 0.3, RngStream(106, 0))
    base = expected_step(small_ensemble, b, x, z)
    rotated = expected_step(small_ensemble, b, x, np.exp(2.2j) * z)
    assert rotated == pytest.approx(base, rel=1e-10)


def _synthetic_trace(d2_series, stopping_time=None):
    d = np.sqrt(np.asarray(d2_series))
    k = d.shape[0] - 1
    return SolverTrace(
        rows=np.zeros(k, dtype=np.int64),
        abs_az=np.zeros(k),
        dist=d,
        stopping_time=stopping_time,
        final=np.zeros(2, complex),
        meta={},
    )


def test_contraction_stats_constant_and_geometric():
    const = [_synthetic_trace(np.ones(6)) for _ in range(3)]
    stats = contraction_stats(const)
    np.testing.assert_allclose(stats.ratios, 1.0)
    assert stats.frac_exited == 0.0

    rho = 0.9
    geo = [_synthetic_trace(rho ** np.arange(8)) for _ in range(4)]
    np.testing.assert_allclose(contraction_stats(geo).ratios, rho, rtol=1e-12)


def test_contraction_stats_excludes_exited_trials():
    good = [_synthetic_trace(0.5 ** np.arange(5)) for _ in range(3)]
    bad = [_synthetic_trace(2.0 ** np.arange(5), stopping_time=2)]
    stats = contraction_stats(good + bad)
    assert stats.frac_exited == pytest.approx(0.25)
    assert stats.trials_included == 3
    np.testing.assert_allclose(stats.ratios, 0.5, rtol=1e-12)


def test_contraction_stats_input_validation():
    with pytest.raises(ValueError):
        contraction_stats([])
    with pytest.raises(ValueError):
        contraction_stats([_synthetic_trace(np.ones(3)), _synthetic_trace(np.ones(4))])
    no_dist = _synthetic_trace(np.ones(3))
    no_dist.dist = None
    with pytest.raises(ValueError):
        contraction_stats([no_dist])


# Reference forms of the margin and one-step quantities: every function
# takes its own conjugate copy of the rows per product and recomputes what
# it needs, as the plain composition of loss, directional_derivative and
# margin_row_terms does.  The library shares one product per vector; these
# tests hold it to the same bits and the same errors.

_EPS = np.finfo(np.float64).eps


def _ref_products(ensemble, v):
    return ensemble.rows.conj() @ v


def _ref_check_dims(ensemble, *vectors):
    for v in vectors:
        if v.shape[0] != ensemble.n:
            raise ValueError(f"dimension mismatch: ensemble n={ensemble.n}, vector has {v.shape[0]}")


def _ref_reject_zero_products(absP):
    zero = np.flatnonzero(absP == 0.0)
    if zero.size:
        shown = ", ".join(str(int(j)) for j in zero[:10])
        more = "..." if zero.size > 10 else ""
        raise ValueError(
            f"derivative undefined: a_j^* z = 0 for rows [{shown}{more}] "
            f"({zero.size} of {absP.size})"
        )


def _ref_loss(ensemble, x, z):
    x = as_cvector(x, "x")
    z = as_cvector(z, "z")
    _ref_check_dims(ensemble, x, z)
    p = np.abs(_ref_products(ensemble, z))
    q = np.abs(_ref_products(ensemble, x))
    return float(np.mean((p - q) ** 2))


def _ref_directional_derivative(ensemble, x, z, v):
    x = as_cvector(x, "x")
    z = as_cvector(z, "z")
    v = as_cvector(v, "v")
    _ref_check_dims(ensemble, x, z, v)
    if not np.any(v):
        raise ValueError("direction v must be nonzero")
    P = _ref_products(ensemble, z)
    absP = np.abs(P)
    _ref_reject_zero_products(absP)
    q = np.abs(_ref_products(ensemble, x))
    Pv = _ref_products(ensemble, v)
    cross = (Pv * P.conj()).real
    return float(2.0 * np.mean((1.0 - q / absP) * cross))


def _ref_margin_row_terms(ensemble, x, z):
    x = as_cvector(x, "x")
    z = as_cvector(z, "z")
    _ref_check_dims(ensemble, x, z)
    h = aligned_error(z, x)
    P = _ref_products(ensemble, z)
    absP = np.abs(P)
    _ref_reject_zero_products(absP)
    Q = _ref_products(ensemble, x)
    q = np.abs(Q)
    Ph = _ref_products(ensemble, h)
    abs_h_sq = np.abs(Ph) ** 2
    cross = (Ph.conj() * Q).real
    den1 = absP * (absP + q)
    den2 = absP * (absP + q) ** 2
    return (
        abs_h_sq
        - 2.0 * q**2 * abs_h_sq / den1
        + 2.0 * q * abs_h_sq * cross / den2
        + 4.0 * q * cross**2 / den2
    )


def _ref_margin_row_bounds(ensemble, x, z, alpha=12.0):
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    x = as_cvector(x, "x")
    z = as_cvector(z, "z")
    terms = _ref_margin_row_terms(ensemble, x, z)
    h = aligned_error(z, x)
    Q = _ref_products(ensemble, x)
    q = np.abs(Q)
    Ph = _ref_products(ensemble, h)
    abs_h = np.abs(Ph)
    abs_h_sq = abs_h**2
    cross = (Ph.conj() * Q).real
    strong = q >= alpha * abs_h
    c_gain = 4.0 * alpha**3 / ((alpha + 1.0) * (2.0 * alpha + 1.0) ** 2)
    c_loss = (8.0 * alpha**2 - 5.0 * alpha + 1.0) / ((alpha - 1.0) * (2.0 * alpha - 1.0) ** 2)
    ratio = np.where(q > 0, cross**2 / np.where(q > 0, q, 1.0) ** 2, 0.0)
    bounds = np.where(strong, c_gain * ratio - c_loss * abs_h_sq, -3.0 * abs_h_sq)
    return terms, bounds, strong


def _ref_rsc_margin(ensemble, x, z, terms=_ref_margin_row_terms):
    x = as_cvector(x, "x")
    z = as_cvector(z, "z")
    _ref_check_dims(ensemble, x, z)
    h = aligned_error(z, x)
    h_norm = float(np.linalg.norm(h))
    if h_norm == 0.0:
        raise ValueError("z lies on the solution circle; margin is undefined")
    f = _ref_loss(ensemble, x, z)
    v = z - x * np.exp(1j * optimal_phase(z, x))
    d = _ref_directional_derivative(ensemble, x, z, v)
    gap_direct = d - f
    gap_rows = float(np.mean(terms(ensemble, x, z)))
    scale = max(abs(gap_direct), abs(gap_rows))
    xnorm = float(np.linalg.norm(x))
    tol = 1e-8 * scale + 100.0 * _EPS * xnorm * h_norm
    if abs(gap_direct - gap_rows) > tol:
        raise ArithmeticError(
            f"derivative-loss gap mismatch: direct {gap_direct!r} vs row sum {gap_rows!r}"
        )
    return (h_norm, f, d, gap_direct / h_norm**2)


def _ref_expected_step(ensemble, b, x, z):
    x = as_cvector(x, "x")
    z = as_cvector(z, "z")
    _ref_check_dims(ensemble, x, z)
    if b.m != ensemble.m:
        raise ValueError("measurement count does not match ensemble")
    rows = ensemble.rows
    P = _ref_products(ensemble, z)
    absP = np.abs(P)
    safe = np.where(absP > 0.0, absP, 1.0)
    coeff = np.where(
        absP > 0.0,
        (1.0 - b.values / safe) * P,
        -b.values.astype(np.complex128),
    )
    coeff = coeff / ensemble.row_norms_sq
    stepped = z[None, :] - coeff[:, None] * rows
    overlaps = stepped @ x.conj()
    mags = np.abs(overlaps)
    phases = np.where(mags > 0.0, overlaps / np.where(mags > 0.0, mags, 1.0), 1.0)
    diff = stepped - phases[:, None] * x[None, :]
    d2 = np.einsum("ij,ij->i", diff.real, diff.real) + np.einsum("ij,ij->i", diff.imag, diff.imag)
    return float(np.mean(d2))


def _bits(*values):
    return [np.asarray(v, dtype=np.float64).view(np.uint64).tolist() for v in values]


def _bit_cases():
    """(ensemble, x, z) on both models at several sizes, near and far from x."""
    for k, (n, m) in enumerate([(2, 5), (8, 64), (17, 300), (64, 1024), (128, 1024)]):
        for model in (Model.UNIT_SPHERE, Model.COMPLEX_GAUSSIAN):
            root = RngStream(31000 + k, 0 if model is Model.UNIT_SPHERE else 1)
            e = make_ensemble(m, n, model, root.substream(1))
            x = 3.0 * unit_signal(n, root.substream(2))
            for i, radius in enumerate((1e-7, 0.005, 0.3)):
                yield e, x, planted_init(x, radius, root.substream(3 + i))
            yield e, x, sample_complex_gaussian(n, root.substream(9))


def _block_ensemble():
    """Rows 0..3 orthogonal to z = e_0, rows 4..7 not: a_j^* z = 0 exactly on half."""
    root = RngStream(32000, 0)
    rows = make_ensemble(8, 4, Model.UNIT_SPHERE, root.substream(1)).rows.copy()
    rows[:4, 0] = 0.0
    rows[:4] /= np.linalg.norm(rows[:4], axis=1)[:, None]
    norms_sq = np.einsum("ij,ij->i", rows.real, rows.real) + np.einsum(
        "ij,ij->i", rows.imag, rows.imag
    )
    e = Ensemble(rows=rows, model=Model.UNIT_SPHERE, row_norms_sq=norms_sq)
    z = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    return e, unit_signal(4, root.substream(2)), z


def test_lemma_layer_matches_reference_forms_bit_for_bit():
    for e, x, z in _bit_cases():
        s = rsc_margin(e, x, z)
        assert _bits(s.h_norm, s.f_value, s.directional, s.margin_gamma) == _bits(
            *_ref_rsc_margin(e, x, z)
        )
        assert _bits(loss(e, x, z)) == _bits(_ref_loss(e, x, z))
        v = z - x * np.exp(1j * optimal_phase(z, x))
        assert _bits(directional_derivative(e, x, z, v)) == _bits(
            _ref_directional_derivative(e, x, z, v)
        )
        assert _bits(margin_row_terms(e, x, z)) == _bits(_ref_margin_row_terms(e, x, z))
        terms, bounds, strong = margin_row_bounds(e, x, z)
        ref_terms, ref_bounds, ref_strong = _ref_margin_row_bounds(e, x, z)
        assert _bits(terms, bounds) == _bits(ref_terms, ref_bounds)
        assert np.array_equal(strong, ref_strong)
        b = measure(e, x)
        assert _bits(expected_step(e, b, x, z)) == _bits(_ref_expected_step(e, b, x, z))


def test_expected_step_fallback_rows_match_reference_bit_for_bit():
    e, x, z = _block_ensemble()
    assert np.count_nonzero(e.rows.conj() @ z == 0.0) == 4  # the fallback branch runs
    b = measure(e, x)
    for start in (z, 0.5 * z, z + 1e-3 * x):
        assert _bits(expected_step(e, b, x, start)) == _bits(_ref_expected_step(e, b, x, start))


def test_expected_step_in_four_row_blocks_matches_reference_bit_for_bit(monkeypatch):
    import kaczpr.analysis as analysis

    monkeypatch.setattr(analysis, "_STEP_BLOCK_BYTES", 1)  # the smallest block, 4 rows
    for k, (n, m) in enumerate([(3, 1), (3, 2), (5, 3), (4, 7), (8, 13), (17, 301)]):
        for model in (Model.UNIT_SPHERE, Model.COMPLEX_GAUSSIAN):
            root = RngStream(35000 + k, 0 if model is Model.UNIT_SPHERE else 1)
            e = make_ensemble(m, n, model, root.substream(1))
            x = 3.0 * unit_signal(n, root.substream(2))
            b = measure(e, x)
            for z in (planted_init(x, 0.005, root.substream(3)),
                      sample_complex_gaussian(n, root.substream(4))):
                assert _bits(expected_step(e, b, x, z)) == _bits(_ref_expected_step(e, b, x, z))
    e, x, z = _block_ensemble()  # rows 0..3, the fallback rows, make up the first block
    b = measure(e, x)
    for start in (z, 0.5 * z, z + 1e-3 * x):
        assert _bits(expected_step(e, b, x, start)) == _bits(_ref_expected_step(e, b, x, start))


def test_expected_step_peaks_below_1_mib():
    import tracemalloc

    root = RngStream(36000, 0)
    e = make_ensemble(4096, 64, Model.UNIT_SPHERE, root.substream(1))
    x = unit_signal(64, root.substream(2))
    b = measure(e, x)
    z = planted_init(x, 0.005, root.substream(3))
    expected_step(e, b, x, z)  # one-time allocations stay out of the measured call
    tracemalloc.start()
    try:
        expected_step(e, b, x, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20


def test_rsc_margin_peaks_below_1_mib():
    import tracemalloc

    root = RngStream(36001, 0)
    e = make_ensemble(1024, 64, Model.UNIT_SPHERE, root.substream(1))
    x = unit_signal(64, root.substream(2))
    z = planted_init(x, 0.005, root.substream(3))
    rsc_margin(e, x, z)  # one-time allocations stay out of the measured call
    tracemalloc.start()
    try:
        rsc_margin(e, x, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20  # a conjugate copy of the rows alone is 1 MiB; 0.16 MiB measured


def _error_of(fn, *args):
    try:
        fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    raise AssertionError("no error raised")


def test_lemma_layer_error_paths_match_reference():
    e = make_ensemble(8, 4, Model.UNIT_SPHERE, RngStream(33000, 0))
    x = unit_signal(4, RngStream(33001, 0))
    z = planted_init(x, 0.005, RngStream(33002, 0))
    # v = z - x e^{i phase} rounds to exactly zero while h does not
    x2 = np.array([0.10490011715303971 + 0.36159505490948474j,
                   -0.535669373161111 + 1.3040000451301372j])
    z2 = np.array([0.3447714017183196 - 0.15128680997000302j,
                   1.3628535236159354 + 0.36053858075086304j])
    assert np.linalg.norm(aligned_error(z2, x2)) > 0.0
    assert not np.any(z2 - x2 * np.exp(1j * optimal_phase(z2, x2)))
    e2 = make_ensemble(6, 2, Model.UNIT_SPHERE, RngStream(33003, 0))
    eb, xb, zb = _block_ensemble()
    bad = np.array([1.0, np.nan, 0.0, 0.0])
    rsc_cases = [
        (e, x, x),                  # on the solution circle
        (e, x, z[:3]),              # dimension mismatch
        (e, x, bad),                # non-finite z
        (e, bad, z),                # non-finite x
        (e, np.zeros(4), z),        # zero signal
        (e2, x2, z2),               # zero direction
        (eb, xb, zb),               # a_j^* z = 0 on some rows
    ]
    for case in rsc_cases:
        assert _error_of(rsc_margin, *case) == _error_of(_ref_rsc_margin, *case)
    for case in rsc_cases[1:5] + [(eb, xb, zb)]:
        assert _error_of(margin_row_terms, *case) == _error_of(_ref_margin_row_terms, *case)
        assert _error_of(margin_row_bounds, *case) == _error_of(_ref_margin_row_bounds, *case)
    assert _error_of(margin_row_bounds, e, x, z, 1.0) == _error_of(
        _ref_margin_row_bounds, e, x, z, 1.0
    )
    for v in (np.zeros(4), bad, np.ones(3)):
        assert _error_of(directional_derivative, e, x, z, v) == _error_of(
            _ref_directional_derivative, e, x, z, v
        )
    b = measure(e, x)
    short = Measurements(values=b.values[:5])
    for args in [(e, short, x, z), (e, b, x, z[:3]), (e, b, bad, z), (e, b, x, bad)]:
        assert _error_of(expected_step, *args) == _error_of(_ref_expected_step, *args)


def test_rsc_margin_gap_mismatch_raises_the_reference_error(monkeypatch):
    # shift every row term by one: the cross-check must fire with the
    # same message as the reference given the same shifted terms
    import kaczpr.analysis as analysis

    e = make_ensemble(64, 8, Model.UNIT_SPHERE, RngStream(34000, 0))
    x = unit_signal(8, RngStream(34001, 0))
    z = planted_init(x, 0.005, RngStream(34002, 0))
    real_terms = analysis._row_terms
    monkeypatch.setattr(analysis, "_row_terms", lambda *a: (real_terms(*a)[0] + 1.0, None, None))
    shifted = lambda *a: _ref_margin_row_terms(*a) + 1.0  # noqa: E731
    got = _error_of(rsc_margin, e, x, z)
    assert got[0] is ArithmeticError
    assert got == _error_of(_ref_rsc_margin, e, x, z, shifted)
