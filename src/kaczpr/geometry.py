"""Phase-invariant geometry on complex vectors.

A phaseless solve can only recover the signal up to a global unimodular
factor, so the solution set is the circle {x e^{i psi}}.  All error metrics
here minimize over that circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def as_cvector(v, name: str = "vector") -> np.ndarray:
    """Validate and return a 1-d complex128 array with finite entries."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d complex vector")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_same_dim(z: np.ndarray, x: np.ndarray):
    if z.shape != x.shape:
        raise ValueError(f"dimension mismatch: {z.shape[0]} vs {x.shape[0]}")


@dataclass(frozen=True)
class Alignment:
    """Optimal phase and the distance it achieves."""

    phase: float
    distance: float


def optimal_phase(z, x) -> float:
    """Phase psi in [0, 2pi) minimizing ||z - x e^{i psi}||.

    The minimizer is the argument of the overlap x^* z; when the overlap is
    zero every phase ties and 0 is returned.
    """
    z = as_cvector(z, "z")
    x = as_cvector(x, "x")
    _check_same_dim(z, x)
    if np.vdot(x, x).real == 0.0:
        raise ValueError("x must be nonzero")
    overlap = np.vdot(x, z)
    if overlap == 0:
        return 0.0
    phase = float(np.angle(overlap) % TWO_PI)
    # a tiny negative angle rounds up to exactly 2*pi under float modulo
    return 0.0 if phase >= TWO_PI else phase


def dist(z, x) -> float:
    """min over psi of ||z - x e^{i psi}||.

    Evaluated through the explicitly aligned difference, which stays accurate
    when z is many digits closer to the circle than ||x||.
    """
    z = as_cvector(z, "z")
    x = as_cvector(x, "x")
    _check_same_dim(z, x)
    overlap = np.vdot(x, z)
    mag = abs(overlap)
    if mag == 0.0:
        return float(np.linalg.norm(z - x))
    return float(np.linalg.norm(z - (overlap / mag) * x))


def _dist_rows(zs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """dist(zs[i], x) for every row of a 2-d complex array, in one pass.

    The same explicitly aligned difference as dist, with phase factor 1 where
    the overlap is zero.  The overlap goes through einsum, not a BLAS
    matrix-vector product, so a row's value does not depend on how many rows
    share the call.
    """
    overlap = np.einsum("ij,j->i", zs, x.conj())
    mag = np.abs(overlap)
    phase = np.divide(overlap, mag, out=np.ones_like(overlap), where=mag != 0.0)
    diff = phase[:, None] * x
    np.subtract(zs, diff, out=diff)
    return _row_norms(diff)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a C-contiguous 2-d complex array."""
    flat = v.view(np.float64)
    return np.sqrt(np.einsum("ij,ij->i", flat, flat))


def align(z, x) -> Alignment:
    """Optimal phase together with the aligned distance."""
    phase = optimal_phase(z, x)
    z = as_cvector(z, "z")
    x = as_cvector(x, "x")
    return Alignment(phase=phase, distance=float(np.linalg.norm(z - x * np.exp(1j * phase))))


def aligned_error(z, x) -> np.ndarray:
    """Residual after optimal phase alignment: e^{-i phase} z - x.

    The output h satisfies ||h|| = dist(z, x) and Im(h^* x) = 0.
    """
    z = as_cvector(z, "z")
    x = as_cvector(x, "x")
    _check_same_dim(z, x)
    if np.vdot(x, x).real == 0.0:
        raise ValueError("x must be nonzero")
    overlap = np.vdot(x, z)
    mag = abs(overlap)
    if mag == 0.0:
        return z - x
    return z * (overlap.conjugate() / mag) - x
