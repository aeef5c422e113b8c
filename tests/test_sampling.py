import numpy as np
import pytest
import scipy.stats

from kaczpr import (
    Model,
    RngStream,
    make_ensemble,
    measure,
    sample_complex_gaussian,
    sample_unit_sphere,
)
from kaczpr.rng import complex_standard_normal

# frozen outputs of the documented generator; a change here is a breaking
# change to every recorded experiment
GOLDEN_GAUSSIAN_1_0 = np.array(
    [0.33452958521485493 + 0.49987511182036315j, 1.3480802598329562 + 0.2668859362228526j]
)
GOLDEN_SPHERE_2_5 = np.array(
    [
        0.04792781085296654 + 0.3618197772280485j,
        0.006117829363641153 + 0.11636175788181845j,
        0.8067028338305858 - 0.44993602335189864j,
    ]
)


def test_generator_regression_anchor():
    np.testing.assert_array_equal(sample_complex_gaussian(2, RngStream(1, 0)), GOLDEN_GAUSSIAN_1_0)
    np.testing.assert_array_equal(sample_unit_sphere(3, RngStream(2, 5)), GOLDEN_SPHERE_2_5)


@pytest.mark.parametrize("n", [1, 2, 127, 131072])
def test_complex_standard_normal_is_the_documented_formula_bit_for_bit(n):
    out = complex_standard_normal(n, RngStream(80, n).generator())
    u = RngStream(80, n).generator().random((2, n))
    ref = np.sqrt(-np.log1p(-u[0])) * np.exp(2j * np.pi * u[1])
    np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))


def test_repeated_calls_are_identical():
    rng = RngStream(seed=1, stream_id=0)
    first = sample_complex_gaussian(2, rng)
    second = sample_complex_gaussian(2, rng)
    np.testing.assert_array_equal(first, second)


def test_distinct_streams_differ():
    a = sample_complex_gaussian(8, RngStream(1, 0))
    b = sample_complex_gaussian(8, RngStream(1, 1))
    c = sample_complex_gaussian(8, RngStream(2, 0))
    assert not np.allclose(a, b) and not np.allclose(a, c)
    sub = RngStream(1, 0).substream(3)
    assert sub.stream_id == 0 and sub.seed != 1
    assert not np.allclose(a, sample_complex_gaussian(8, sub))


def test_gaussian_moments():
    # E|xi_i|^2 = 1 and zero mean, n=8, 1e5 draws pooled across entries
    gen = RngStream(42, 0).generator()
    from kaczpr.rng import complex_standard_normal

    draws = complex_standard_normal(8 * 10**5, gen).reshape(-1, 8)
    norm_sq = (np.abs(draws) ** 2).sum(axis=1) / 8
    assert abs(norm_sq.mean() - 1.0) <= 0.01
    assert np.all(np.abs(draws.mean(axis=0)) <= 0.02)


def test_sphere_norm_and_second_moment():
    rows = make_ensemble(10**5, 4, Model.UNIT_SPHERE, RngStream(7, 0)).rows
    assert np.max(np.abs(np.linalg.norm(rows, axis=1) - 1.0)) <= 1e-12
    # E |a^* e1|^2 = 1/n
    first = np.abs(rows[:, 0]) ** 2
    assert abs(first.mean() - 0.25) <= 0.01


def test_sphere_rotation_invariance_ks():
    # |a^* h|^2 has the same law for h = e1 and a random fixed unit h
    n, draws = 4, 10**5
    rows = make_ensemble(draws, n, Model.UNIT_SPHERE, RngStream(11, 0)).rows
    h = sample_unit_sphere(n, RngStream(12, 0))
    sample_e1 = np.abs(rows[:, 0]) ** 2
    sample_h = np.abs(rows.conj() @ h) ** 2
    stat = scipy.stats.ks_2samp(sample_e1, sample_h).statistic
    # critical value at alpha ~ 1e-3 for equal sample sizes
    assert stat < 1.95 * np.sqrt(2.0 / draws)


def test_make_ensemble_caches_norms_and_is_deterministic(small_ensemble):
    e = make_ensemble(3, 2, Model.COMPLEX_GAUSSIAN, RngStream(5, 1))
    recomputed = (np.abs(e.rows) ** 2).sum(axis=1)
    np.testing.assert_allclose(e.row_norms_sq, recomputed, atol=1e-12)
    again = make_ensemble(3, 2, Model.COMPLEX_GAUSSIAN, RngStream(5, 1))
    np.testing.assert_array_equal(e.rows, again.rows)
    assert small_ensemble.model is Model.UNIT_SPHERE


def test_measure_basics(small_ensemble):
    x = np.zeros(4, complex)
    assert np.all(measure(small_ensemble, x).values == 0.0)
    x = sample_unit_sphere(4, RngStream(8, 0))
    b = measure(small_ensemble, x).values
    for theta in (0.7, np.pi):
        rotated = measure(small_ensemble, np.exp(1j * theta) * x).values
        np.testing.assert_allclose(rotated, b, atol=1e-12)


def test_measure_single_entry_modulus():
    from kaczpr import Ensemble

    e = Ensemble(
        rows=np.array([[1.0 + 0j]]),
        model=Model.COMPLEX_GAUSSIAN,
        row_norms_sq=np.array([1.0]),
    )
    b = measure(e, np.array([3.0 + 4.0j]))
    assert b.values[0] == pytest.approx(5.0, rel=1e-15)


def test_measure_conjugation_consistency(small_ensemble):
    x = sample_complex_gaussian(4, RngStream(77, 0))
    b = measure(small_ensemble, x).values
    conj_rows = small_ensemble.rows.conj()
    np.testing.assert_allclose(np.abs(conj_rows.conj() @ x.conj()), b, atol=1e-12)


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        sample_complex_gaussian(0, RngStream(1, 0))
    with pytest.raises(ValueError):
        sample_unit_sphere(0, RngStream(1, 0))
    with pytest.raises(ValueError):
        make_ensemble(0, 3, Model.UNIT_SPHERE, RngStream(1, 0))
    with pytest.raises(ValueError):
        make_ensemble(3, 0, Model.UNIT_SPHERE, RngStream(1, 0))


def test_measure_dimension_mismatch(small_ensemble):
    with pytest.raises(ValueError):
        measure(small_ensemble, np.ones(5, complex))


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    with pytest.raises(ValueError):
        RngStream(1, 0).substream(-1)


def test_measurements_reject_negative_values():
    from kaczpr import Measurements

    with pytest.raises(ValueError):
        Measurements(values=np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        Measurements(values=np.array([np.inf]))
