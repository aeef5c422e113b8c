"""Initial estimates for the phaseless solver.

The spectral initializer takes the top eigenvector of the magnitude-weighted
row covariance Y = (1/m) sum_j b_j^2 a_j a_j^*, found by a dense Hermitian
eigensolver, then rescales it to the estimated signal norm.  The planted
initializer places a start point at an exact relative distance from a known
signal, which is what rate experiments need.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import _row_blocks, _rows_per_block, as_cvector
from .rng import RngStream, complex_standard_normal
from .sampling import Ensemble, Measurements, Model


class NormModel(Enum):
    """Which measurement model calibrates the norm estimate.

    On the unit sphere E|a^* x|^2 = ||x||^2 / n, for complex Gaussian rows it
    is ||x||^2, hence the sqrt(n) factor difference in scaling.
    """

    SPHERE = "sphere"
    GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class InitConfig:
    norm_estimate: NormModel = NormModel.SPHERE


# Budget of each of the covariance's two operand tiles, m rows by one tile
# width: 64 columns at m = 1024.
_TILE_BYTES = 1 << 20


def _weighted_covariance(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_j w_j a_j a_j^* in the tiles on and below the diagonal, with the
    bits of (rows.T * weights) @ rows.conj() there, and zero above them:
    np.linalg.eigh reads only the lower triangle.

    Formed one output tile at a time from operands of _TILE_BYTES each, so
    no copy of the whole ensemble exists.  Every entry formed still takes
    its whole m-long inner product in one matrix product, which is what
    keeps the bits; the tile edges come from _row_blocks, so no tile is one
    wide.
    """
    m, n = rows.shape
    cov = np.zeros((n, n), dtype=np.complex128)
    tiles = _row_blocks(n, _rows_per_block(m, _TILE_BYTES))
    for lo, hi in tiles:
        left = rows[:, lo:hi].T * weights
        for lo2, hi2 in tiles:
            if lo2 <= lo:
                np.matmul(left, rows[:, lo2:hi2].conj(), out=cov[lo:hi, lo2:hi2])
    return cov


def spectral_init(ensemble: Ensemble, b: Measurements, config: InitConfig, rng: RngStream) -> np.ndarray:
    """Spectral estimate of the signal from magnitudes alone.

    Y's lower triangle is formed tile by tile (_weighted_covariance), and
    its top eigenvector comes from a dense Hermitian eigensolver: no
    iteration, tolerance or convergence test.
    Nothing is drawn from rng, so the start point does not depend on the
    stream passed in.
    """
    if b.m != ensemble.m:
        raise ValueError("measurement count does not match ensemble")
    weights = b.values**2
    if not np.any(weights > 0):
        raise ValueError("all measurements are zero; spectral direction is undefined")
    covariance = _weighted_covariance(ensemble.rows, weights)
    covariance /= ensemble.m
    direction = np.linalg.eigh(covariance)[1][:, -1]
    mean_b2 = float(np.mean(weights))
    if config.norm_estimate is NormModel.SPHERE:
        scale = np.sqrt(ensemble.n * mean_b2)
    else:
        scale = np.sqrt(mean_b2)
    return scale * direction


def default_norm_model(model: Model) -> NormModel:
    return NormModel.SPHERE if model is Model.UNIT_SPHERE else NormModel.GAUSSIAN


def real_overlap_direction(x, gen: np.random.Generator) -> np.ndarray:
    """Random unit w with Im(w^* x) = 0, uniform over that real slice."""
    x = as_cvector(x, "x")
    xnorm_sq = float(np.vdot(x, x).real)
    if xnorm_sq == 0.0:
        raise ValueError("x must be nonzero")
    if not np.isfinite(xnorm_sq):
        # the projection below would turn every draw into NaN and never return
        raise ValueError("x is too large: its squared norm overflows")
    while True:
        u = complex_standard_normal(x.shape[0], gen)
        u = u - (1j * np.vdot(x, u).imag / xnorm_sq) * x
        norm = np.linalg.norm(u)
        if norm > 0.0:
            return u / norm


def planted_init(x, rel_radius: float, rng: RngStream) -> np.ndarray:
    """Start point at exact relative distance rel_radius from x.

    The random direction is orthogonalized against the phase mode (the i*x
    direction), so the planted offset is entirely error, none of it a phase
    rotation, and dist(z0, x) = rel_radius * ||x|| to roundoff.
    """
    x = as_cvector(x, "x")
    if rel_radius < 0:
        raise ValueError("rel_radius must be nonnegative")
    xnorm = float(np.linalg.norm(x))
    if xnorm == 0.0:
        raise ValueError("x must be nonzero")
    if rel_radius == 0.0:
        return x.copy()
    w = real_overlap_direction(x, rng.generator())
    if np.vdot(x, w).real < 0.0:
        # keep the overlap nonnegative so the optimal phase stays at zero
        # and the planted distance is exact for any radius
        w = -w
    return x + (rel_radius * xnorm) * w
