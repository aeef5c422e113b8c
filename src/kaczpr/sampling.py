"""Measurement ensembles and phaseless measurements.

Rows are drawn either uniformly from the complex unit sphere or as complex
Gaussian vectors (entries with N(0, 1/2) real and imaginary parts).  The
sphere model is the normalized Gaussian: a = xi / ||xi||.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import _row_blocks, _rows_per_block, as_cvector
from .rng import RngStream, complex_standard_normal


class Model(Enum):
    UNIT_SPHERE = "sphere"
    COMPLEX_GAUSSIAN = "gaussian"

    @classmethod
    def parse(cls, value) -> "Model":
        if isinstance(value, cls):
            return value
        for member in cls:
            if member.value == value:
                return member
        raise ValueError(f"unknown measurement model: {value!r}")


@dataclass(frozen=True)
class Ensemble:
    """m measurement rows of dimension n with cached squared norms."""

    rows: np.ndarray
    model: Model
    row_norms_sq: np.ndarray
    seed: int | None = None
    stream_id: int | None = None

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def n(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class Measurements:
    """Nonnegative magnitudes, one per ensemble row."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("measurements must be finite and nonnegative")
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]


# Budget of a row block in make_ensemble's row norms: 32 rows at n = 128.
# Under glibc's default mmap threshold of 128 KiB, so that the block
# temporaries come from the heap instead of fresh pages: at 256 KiB,
# `verify covariance` took 2820 minor page faults against 439.
_BLOCK_BYTES = 1 << 16


def sample_complex_gaussian(n: int, rng: RngStream) -> np.ndarray:
    """One complex Gaussian vector; E||xi||^2 = n."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return complex_standard_normal(n, rng.generator())


def _unit_draw(n: int, gen: np.random.Generator, project=None, scale: float = 1.0) -> np.ndarray:
    """scale * u / ||u|| for u = project(xi), xi complex Gaussian, drawn again while u = 0.

    Every unit-vector draw of the package goes through here; project=None
    leaves xi as drawn.
    """
    while True:
        u = complex_standard_normal(n, gen)
        if project is not None:
            u = project(u)
        norm = np.linalg.norm(u)
        if norm > 0.0:
            return scale * u / norm


def sample_unit_sphere(n: int, rng: RngStream) -> np.ndarray:
    """One vector uniform on the complex unit sphere (normalized Gaussian)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return _unit_draw(n, rng.generator())


def make_ensemble(m: int, n: int, model, rng: RngStream) -> Ensemble:
    """m independent rows drawn per the model, all from one stream."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    model = Model.parse(model)
    gen = rng.generator()
    rows = complex_standard_normal(m * n, gen).reshape(m, n)
    if model is Model.UNIT_SPHERE:
        blocks = _row_blocks(m, _rows_per_block(n, _BLOCK_BYTES))
        norms = np.empty(m)
        while True:
            for lo, hi in blocks:  # a row's norm does not depend on its block
                norms[lo:hi] = np.linalg.norm(rows[lo:hi], axis=1)
            bad = norms == 0.0
            if not bad.any():
                break
            # measure-zero guard
            rows[bad] = complex_standard_normal(int(bad.sum()) * n, gen).reshape(-1, n)
        rows /= norms[:, None]
    row_norms_sq = np.einsum("ij,ij->i", rows.real, rows.real) + np.einsum(
        "ij,ij->i", rows.imag, rows.imag
    )
    return Ensemble(
        rows=rows,
        model=model,
        row_norms_sq=row_norms_sq,
        seed=rng.seed,
        stream_id=rng.stream_id,
    )


def measure(ensemble: Ensemble, x) -> Measurements:
    """Phaseless forward map: values[j] = |a_j^* x|.

    Taken as |rows @ conj(x)|, the modulus of the conjugate product, with
    the bits of np.abs(rows.conj() @ x) (see geometry._adjoint_products)
    and no conjugate copy of the rows.
    """
    x = as_cvector(x, "x")
    n = ensemble.n
    if x.shape[0] != n:
        raise ValueError(f"dimension mismatch: ensemble n={n}, x has {x.shape[0]}")
    return Measurements(values=np.abs(ensemble.rows @ x.conj()))
