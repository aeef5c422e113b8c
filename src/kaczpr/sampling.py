"""Measurement ensembles and phaseless measurements.

Rows are drawn either uniformly from the complex unit sphere or as complex
Gaussian vectors (entries with N(0, 1/2) real and imaginary parts).  The
sphere model is the normalized Gaussian: a = xi / ||xi||.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import as_cvector
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


def sample_complex_gaussian(n: int, rng: RngStream) -> np.ndarray:
    """One complex Gaussian vector; E||xi||^2 = n."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return complex_standard_normal(n, rng.generator())


def sample_unit_sphere(n: int, rng: RngStream) -> np.ndarray:
    """One vector uniform on the complex unit sphere (normalized Gaussian)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    gen = rng.generator()
    while True:
        xi = complex_standard_normal(n, gen)
        norm = np.linalg.norm(xi)
        if norm > 0.0:
            return xi / norm


def make_ensemble(m: int, n: int, model, rng: RngStream) -> Ensemble:
    """m independent rows drawn per the model, all from one stream."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be at least 1")
    model = Model.parse(model)
    gen = rng.generator()
    rows = complex_standard_normal(m * n, gen).reshape(m, n)
    if model is Model.UNIT_SPHERE:
        norms = np.linalg.norm(rows, axis=1)
        while np.any(norms == 0.0):  # measure-zero guard
            bad = norms == 0.0
            rows[bad] = complex_standard_normal(int(bad.sum()) * n, gen).reshape(-1, n)
            norms = np.linalg.norm(rows, axis=1)
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
    """Phaseless forward map: values[j] = |a_j^* x|."""
    x = as_cvector(x, "x")
    if x.shape[0] != ensemble.n:
        raise ValueError(f"dimension mismatch: ensemble n={ensemble.n}, x has {x.shape[0]}")
    return Measurements(values=np.abs(ensemble.rows.conj() @ x))
