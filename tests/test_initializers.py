import dataclasses

import numpy as np
import pytest

from kaczpr import (
    InitConfig,
    Model,
    NormModel,
    RngStream,
    dist,
    make_ensemble,
    measure,
    planted_init,
    spectral_init,
)
from kaczpr.initializers import _scan_directions, default_norm_model
from conftest import unit_signal


def _spectral_problem(model, n, m, seed):
    root = RngStream(seed, 0)
    e = make_ensemble(m, n, model, root.substream(1))
    x = 2.0 * unit_signal(n, root.substream(2))
    return e, measure(e, x)


def _weighted_covariance(e, b):
    # independent of the package: an explicit sum of rank-one terms
    y = np.zeros((e.n, e.n), dtype=complex)
    for a, bj in zip(e.rows, b.values):
        y += bj**2 * np.outer(a, a.conj())
    return y / e.m


@pytest.mark.parametrize(
    "model, norm_model",
    [(Model.UNIT_SPHERE, NormModel.SPHERE), (Model.COMPLEX_GAUSSIAN, NormModel.GAUSSIAN)],
)
@pytest.mark.parametrize("n, m", [(4, 64), (16, 256), (64, 512)])
def test_spectral_init_direction_is_top_eigenvector(model, norm_model, n, m):
    e, b = _spectral_problem(model, n, m, 53 + n)
    z0 = spectral_init(e, b, InitConfig(norm_estimate=norm_model), RngStream(54, 0))
    v = z0 / np.linalg.norm(z0)
    y = _weighted_covariance(e, b)
    lam_max = np.linalg.eigvals(y).real.max()
    assert np.linalg.norm(y @ v - lam_max * v) <= 1e-10


@pytest.mark.parametrize(
    "model, norm_model",
    [(Model.UNIT_SPHERE, NormModel.SPHERE), (Model.COMPLEX_GAUSSIAN, NormModel.GAUSSIAN)],
)
def test_spectral_init_norm_is_measurement_energy(model, norm_model):
    n, m = 16, 256
    e, b = _spectral_problem(model, n, m, 55)
    z0 = spectral_init(e, b, InitConfig(norm_estimate=norm_model), RngStream(56, 0))
    factor = n if norm_model is NormModel.SPHERE else 1
    assert np.linalg.norm(z0) == pytest.approx(np.sqrt(factor * np.mean(b.values**2)), rel=1e-12)


def _whole_covariance(rows, weights):
    return (rows.T * weights) @ rows.conj()


@pytest.mark.parametrize("model", [Model.UNIT_SPHERE, Model.COMPLEX_GAUSSIAN])
@pytest.mark.parametrize("m", [1, 3, 40])
@pytest.mark.parametrize("n", [5, 8, 24, 9])  # below, at, a multiple of and one over a tile
def test_covariance_tiles_give_the_whole_product_bits(monkeypatch, model, m, n):
    import kaczpr.initializers as initializers

    monkeypatch.setattr(initializers, "_TILE_BYTES", 16 * m * 8)  # 8-wide tiles
    e, b = _spectral_problem(model, n, m, 60 + m + n)
    weights = b.values**2
    got = initializers._weighted_covariance(e.rows, weights)
    lower = np.tril_indices(n)  # all that np.linalg.eigh reads
    assert np.array_equal(got[lower].view(np.uint64),
                          _whole_covariance(e.rows, weights)[lower].view(np.uint64))


@pytest.mark.parametrize("model", [Model.UNIT_SPHERE, Model.COMPLEX_GAUSSIAN])
@pytest.mark.parametrize("n", [32, 64, 65, 128])  # at the default budget, 64-wide tiles
def test_spectral_init_keeps_the_whole_product_bits(model, n):
    e, b = _spectral_problem(model, n, 1024, 61 + n)
    weights = b.values**2
    direction = np.linalg.eigh(_whole_covariance(e.rows, weights) / e.m)[1][:, -1]
    scale = np.sqrt((n if model is Model.UNIT_SPHERE else 1) * float(np.mean(weights)))
    z0 = spectral_init(e, b, InitConfig(norm_estimate=default_norm_model(model)), RngStream(62, 0))
    assert np.array_equal(z0.view(np.uint64), (scale * direction).view(np.uint64))


def test_spectral_init_peaks_below_3_mib():
    import tracemalloc

    e, b = _spectral_problem(Model.UNIT_SPHERE, 128, 1024, 63)
    spectral_init(e, b, InitConfig(), RngStream(64, 0))  # one-time allocations stay out
    tracemalloc.start()
    try:
        spectral_init(e, b, InitConfig(), RngStream(64, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20  # 2.5 MiB measured; the whole-ensemble form took 4.3


def test_spectral_init_ignores_rng_stream():
    e, b = _spectral_problem(Model.UNIT_SPHERE, 16, 256, 57)
    z1 = spectral_init(e, b, InitConfig(), RngStream(58, 0))
    z2 = spectral_init(e, b, InitConfig(), RngStream(59, 3).substream(7))
    np.testing.assert_array_equal(z1, z2)


def test_spectral_init_quality_sphere_model():
    # desk-scale quality target: within half the signal norm in >=95/100 runs
    n, m = 64, 32 * 64
    hits = 0
    norms = []
    for t in range(100):
        root = RngStream(60000, t)
        e = make_ensemble(m, n, Model.UNIT_SPHERE, root.substream(1))
        x = unit_signal(n, root.substream(2))
        b = measure(e, x)
        z0 = spectral_init(e, b, InitConfig(), root.substream(3))
        hits += dist(z0, x) <= 0.5
        norms.append(np.linalg.norm(z0))
    assert hits >= 95
    norms = np.asarray(norms)
    assert np.all(np.abs(norms - 1.0) <= 0.05)


def test_spectral_init_gaussian_norm_scaling():
    # gaussian rows satisfy E|a^* x|^2 = ||x||^2, so the scale has no sqrt(n)
    n, m = 32, 64 * 32
    root = RngStream(61, 0)
    e = make_ensemble(m, n, Model.COMPLEX_GAUSSIAN, root.substream(1))
    x = 2.0 * unit_signal(n, root.substream(2))
    b = measure(e, x)
    cfg = InitConfig(norm_estimate=NormModel.GAUSSIAN)
    z0 = spectral_init(e, b, cfg, root.substream(3))
    assert np.linalg.norm(z0) == pytest.approx(2.0, rel=0.1)


def test_spectral_init_rejects_zero_measurements():
    e = make_ensemble(8, 4, Model.UNIT_SPHERE, RngStream(62, 0))
    from kaczpr import Measurements

    with pytest.raises(ValueError):
        spectral_init(e, Measurements(values=np.zeros(8)), InitConfig(), RngStream(1, 0))


def test_planted_init_exact_radius():
    for n, seed in ((4, 1), (64, 2), (128, 3)):
        x = 3.0 * unit_signal(n, RngStream(70, seed))
        for radius in (1e-5, 0.005, 0.01, 0.5):
            z0 = planted_init(x, radius, RngStream(71, seed))
            rel = dist(z0, x) / np.linalg.norm(x)
            assert abs(rel - radius) <= 1e-10 * max(1.0, radius)


def test_planted_init_inside_trust_ball():
    x = unit_signal(128, RngStream(72, 0))
    z0 = planted_init(x, 0.005, RngStream(73, 0))
    assert dist(z0, x) <= 0.01 * np.linalg.norm(x)


def test_planted_init_zero_radius_and_errors():
    x = unit_signal(4, RngStream(74, 0))
    np.testing.assert_array_equal(planted_init(x, 0.0, RngStream(75, 0)), x)
    with pytest.raises(ValueError):
        planted_init(np.zeros(4, complex), 0.1, RngStream(75, 0))
    with pytest.raises(ValueError):
        planted_init(x, -0.1, RngStream(75, 0))


def test_planted_init_rejects_overflowing_signal():
    # ||x||^2 overflows; the direction draw used to loop on NaN forever
    x = 1e300 * unit_signal(4, RngStream(74, 0))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="overflows"):
        planted_init(x, 0.1, RngStream(75, 0))


def test_planted_init_directions_vary_with_stream():
    x = unit_signal(16, RngStream(76, 0))
    z1 = planted_init(x, 0.01, RngStream(77, 0))
    z2 = planted_init(x, 0.01, RngStream(77, 1))
    assert np.linalg.norm(z1 - z2) > 1e-4
    np.testing.assert_array_equal(z1, planted_init(x, 0.01, RngStream(77, 0)))


def test_init_config_validation():
    assert [f.name for f in dataclasses.fields(InitConfig)] == ["norm_estimate"]
    assert InitConfig().norm_estimate is NormModel.SPHERE
    cfg = InitConfig(norm_estimate=NormModel.GAUSSIAN)
    assert cfg.norm_estimate is NormModel.GAUSSIAN
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.norm_estimate = NormModel.SPHERE


@pytest.mark.parametrize("scale", [1.0, 7.5, 1e150])
def test_scan_directions_start_structured_then_keep_real_overlap(scale):
    x = scale * unit_signal(12, RngStream(78, 0))
    xhat = x / np.linalg.norm(x)
    dirs = _scan_directions(x, RngStream(79, 0).generator())
    np.testing.assert_array_equal(next(dirs), xhat)
    np.testing.assert_array_equal(next(dirs), -xhat)
    orth = next(dirs)
    assert abs(np.vdot(xhat, orth)) < 1e-14
    assert np.linalg.norm(orth) == pytest.approx(1.0, abs=1e-14)
    for _ in range(50):
        w = next(dirs)
        assert abs(np.vdot(w, xhat).imag) < 1e-14
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-14)


def test_scan_directions_draw_only_what_is_taken():
    x = unit_signal(6, RngStream(78, 1))
    gen = RngStream(79, 1).generator()
    dirs = _scan_directions(x, gen)
    next(dirs), next(dirs)
    # the two structured directions leave gen where it was
    assert gen.random() == RngStream(79, 1).generator().random()
