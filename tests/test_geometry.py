import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaczpr import RngStream, aligned_error, dist, optimal_phase
from kaczpr.rng import complex_standard_normal


def _vec(n, seed):
    return complex_standard_normal(n, RngStream(seed, 0).generator())


def _vec_pair(n, seed):
    gen = RngStream(seed, 0).generator()
    return complex_standard_normal(n, gen), complex_standard_normal(n, gen)


complex_entries = st.complex_numbers(
    min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False
)
vectors = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(
        st.lists(complex_entries, min_size=n, max_size=n),
        st.lists(complex_entries, min_size=n, max_size=n),
    )
)


def test_identity_phase_is_zero():
    x = _vec(5, 1)
    assert optimal_phase(x, x) == 0.0
    assert dist(x, x) == 0.0
    assert np.allclose(aligned_error(x, x), 0.0)


def test_global_phase_case():
    x = _vec(4, 2)
    z = 1j * x
    assert optimal_phase(z, x) == pytest.approx(np.pi / 2, abs=1e-15)
    assert dist(z, x) == pytest.approx(0.0, abs=1e-12)


def test_phase_matches_dense_grid_search():
    # brute-force oracle: scan 1e6 phases and compare against the closed form
    z, x = _vec_pair(3, 3)
    psi = np.linspace(0.0, 2 * np.pi, 10**6, endpoint=False)
    # ||z - x e^{i psi}||^2 = ||z||^2 + ||x||^2 - 2 Re(e^{-i psi} x^* z)
    overlap = np.vdot(x, z)
    norms = np.vdot(z, z).real + np.vdot(x, x).real
    vals = norms - 2.0 * (np.exp(-1j * psi) * overlap).real
    best = psi[np.argmin(vals)]
    assert optimal_phase(z, x) == pytest.approx(best, abs=1e-5)
    assert dist(z, x) ** 2 == pytest.approx(vals.min(), rel=1e-10)


def test_orthogonal_vectors_distance():
    z = np.array([1.0 + 0j, 0.0])
    x = np.array([0.0 + 0j, 1.0])
    assert dist(z, x) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_circle_distance_zero():
    x = _vec(6, 4)
    for theta in (0.3, 1.7, np.pi, 5.1):
        assert dist(np.exp(1j * theta) * x, x) <= 1e-12 * np.linalg.norm(x)


def test_aligned_error_properties():
    for seed in range(5, 15):
        z, x = _vec_pair(4, seed)
        h = aligned_error(z, x)
        assert np.linalg.norm(h) == pytest.approx(dist(z, x), rel=1e-12)
        assert abs(np.vdot(h, x).imag) <= 1e-12 * np.linalg.norm(x) * max(1.0, np.linalg.norm(z))


def test_degenerate_overlap_returns_zero_phase():
    x = np.array([1.0 + 0j, 0.0])
    z = np.array([0.0 + 0j, 1.0])
    assert optimal_phase(z, x) == 0.0


def test_phase_stays_below_two_pi_for_tiny_negative_angles():
    x = np.array([1.0 + 0j])
    z = np.array([1.0 - 1e-20j])  # angle is a tiny negative number
    phase = optimal_phase(z, x)
    assert 0.0 <= phase < 2 * np.pi


def test_rejects_dimension_mismatch_and_bad_values():
    with pytest.raises(ValueError):
        dist(np.ones(3, complex), np.ones(4, complex))
    with pytest.raises(ValueError):
        optimal_phase(np.array([np.nan + 0j]), np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        aligned_error(np.ones(2, complex), np.zeros(2, complex))
    with pytest.raises(ValueError):
        dist(np.ones((2, 2), complex), np.ones((2, 2), complex))


@settings(max_examples=200, deadline=None)
@given(vectors, st.floats(0.0, 2 * np.pi))
def test_distance_is_global_phase_invariant(pair, theta):
    z = np.array(pair[0], dtype=complex)
    x = np.array(pair[1], dtype=complex)
    scale = max(np.linalg.norm(z), np.linalg.norm(x))
    assert abs(dist(np.exp(1j * theta) * z, x) - dist(z, x)) <= 1e-10 * scale


@settings(max_examples=200, deadline=None)
@given(vectors)
def test_distance_closed_form(pair):
    z = np.array(pair[0], dtype=complex)
    x = np.array(pair[1], dtype=complex)
    closed = np.vdot(z, z).real + np.vdot(x, x).real - 2.0 * abs(np.vdot(x, z))
    scale = (np.linalg.norm(z) + np.linalg.norm(x)) ** 2
    assert abs(dist(z, x) ** 2 - closed) <= 1e-10 * max(scale, 1e-300)


@settings(max_examples=200, deadline=None)
@given(vectors)
def test_distance_symmetry_and_triangle(pair):
    z = np.array(pair[0], dtype=complex)
    x = np.array(pair[1], dtype=complex)
    scale = max(np.linalg.norm(z), np.linalg.norm(x), 1e-300)
    if np.linalg.norm(x) > 0 and np.linalg.norm(z) > 0:
        assert abs(dist(z, x) - dist(x, z)) <= 1e-12 * scale
    assert dist(z, x) <= np.linalg.norm(z - x) * (1.0 + 1e-12) + 1e-15 * scale


def test_row_blocks_keep_the_whole_matrix_product_bits():
    from kaczpr.geometry import _row_blocks

    assert _row_blocks(1, 4) == [(0, 1)]
    assert _row_blocks(5, 4) == [(0, 5)]  # a one-row tail joins the block before it
    assert _row_blocks(10, 4) == [(0, 4), (4, 8), (8, 10)]
    for k, (n, m) in enumerate([(2, 5), (5, 13), (8, 13), (3, 17), (16, 33), (7, 30)]):
        rows = _vec(m * n, 37000 + k).reshape(m, n).conj()
        v = _vec(n, 37100 + k)
        whole = (rows @ v).view(np.uint64)
        for size in (4, 8):
            got = np.concatenate([rows[lo:hi] @ v for lo, hi in _row_blocks(m, size)])
            assert np.array_equal(got.view(np.uint64), whole)


@pytest.mark.parametrize("m, n", [(1, 1), (1, 8), (9, 1), (30, 7), (1024, 64), (1025, 128)])
def test_adjoint_products_keep_the_conjugate_copy_bits(m, n):
    from kaczpr.geometry import _adjoint_products

    rows = _vec(m * n, 37200 + m + n).reshape(m, n)
    conj = rows.conj()
    for v in (_vec(n, 37300 + n), _vec(5 * n, 37400 + n).reshape(5, n).T):  # a vector, dirs.T
        want = (conj @ v).view(np.uint64)
        assert np.array_equal(_adjoint_products(rows, v).view(np.uint64), want)
