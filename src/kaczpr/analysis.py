"""Executable forms of the solver's convergence ingredients.

For an ensemble {a_j} and signal x, the magnitude residual objective is

    f(z) = (1/m) sum_j (|a_j^* z| - |a_j^* x|)^2,

nonsmooth where a_j^* z = 0 but one-sidedly differentiable elsewhere.  Its
one-sided derivative along v is

    D_v f(z) = (2/m) sum_j (1 - |a_j^* x| / |a_j^* z|) Re(a_j^* v  z^* a_j).

Along the aligned error direction the gap D - f decomposes into per-row
terms T_j (margin_row_terms) whose mean, divided by the squared error,
is the local curvature margin gamma.  expected_step averages the squared
error of a single row update exhaustively over rows, which turns the
one-step contraction statement into an identity checkable to roundoff:

    mean_j dist^2(step_j(z), x) <= dist^2(z, x) + f(z) - D_h f(z),

with equality up to the (fourth-order) phase re-alignment of each stepped
iterate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .geometry import (
    _adjoint_products,
    _row_blocks,
    _rows_per_block,
    aligned_error,
    as_cvector,
    optimal_phase,
)
from .kaczmarz import SolverTrace
from .sampling import Ensemble, Measurements

_EPS = np.finfo(np.float64).eps

# Budget of each of expected_step's two row-block buffers: 128 rows at
# n = 128.  A block holds a multiple of 4 rows, at least 4, so that its
# products keep the whole-matrix bits (see _row_blocks).
_STEP_BLOCK_BYTES = 1 << 18

# Each thread's pair of expected_step block buffers, kept for its next call
# of the same block shape: buffers of this size lie above glibc's mmap
# threshold, so allocating them per call mapped and faulted fresh pages.
_STEP_BUFFERS = threading.local()


def _row_products(ensemble: Ensemble, *vectors: np.ndarray) -> tuple[np.ndarray, ...]:
    """a_j^* v for every row and each v, without a conjugate copy of the rows.

    Each product is its own matrix-vector product: stacking the vectors into
    one matrix product would round differently.
    """
    return tuple(_adjoint_products(ensemble.rows, v) for v in vectors)


def _check_dims(ensemble: Ensemble, *vectors):
    for v in vectors:
        if v.shape[0] != ensemble.n:
            raise ValueError(f"dimension mismatch: ensemble n={ensemble.n}, vector has {v.shape[0]}")


def _loss(absP: np.ndarray, q: np.ndarray) -> float:
    return float(np.mean((absP - q) ** 2))


def _derivative(P: np.ndarray, absP: np.ndarray, q: np.ndarray, Pv: np.ndarray) -> float:
    cross = (Pv * P.conj()).real
    return float(2.0 * np.mean((1.0 - q / absP) * cross))


def _row_terms(absP: np.ndarray, Q: np.ndarray, q: np.ndarray, Ph: np.ndarray):
    """(T_j, |a_j^* h|, Re(h^* a_j a_j^* x)) from the row products; see margin_row_terms."""
    abs_h = np.abs(Ph)
    abs_h_sq = abs_h**2
    cross = (Ph.conj() * Q).real  # Re(h^* a_j a_j^* x)
    den1 = absP * (absP + q)
    den2 = absP * (absP + q) ** 2
    terms = (
        abs_h_sq
        - 2.0 * q**2 * abs_h_sq / den1
        + 2.0 * q * abs_h_sq * cross / den2
        + 4.0 * q * cross**2 / den2
    )
    return terms, abs_h, cross


def loss(ensemble: Ensemble, x, z) -> float:
    """Mean squared magnitude residual between z and x."""
    x = as_cvector(x, "x")
    z = as_cvector(z, "z")
    _check_dims(ensemble, x, z)
    P, Q = _row_products(ensemble, z, x)
    return _loss(np.abs(P), np.abs(Q))


def _reject_zero_products(absP: np.ndarray):
    zero = np.flatnonzero(absP == 0.0)
    if zero.size:
        shown = ", ".join(str(int(j)) for j in zero[:10])
        more = "..." if zero.size > 10 else ""
        raise ValueError(
            f"derivative undefined: a_j^* z = 0 for rows [{shown}{more}] "
            f"({zero.size} of {absP.size})"
        )


def _check_direction(v: np.ndarray):
    if not np.any(v):
        raise ValueError("direction v must be nonzero")


def directional_derivative(ensemble: Ensemble, x, z, v) -> float:
    """One-sided derivative of the magnitude residual objective at z along v."""
    x = as_cvector(x, "x")
    z = as_cvector(z, "z")
    v = as_cvector(v, "v")
    _check_dims(ensemble, x, z, v)
    _check_direction(v)
    P, Q, Pv = _row_products(ensemble, z, x, v)
    absP = np.abs(P)
    _reject_zero_products(absP)
    return _derivative(P, absP, np.abs(Q), Pv)


def _aligned_terms(ensemble: Ensemble, x: np.ndarray, z: np.ndarray):
    """The aligned-error row data shared by margin_row_terms and margin_row_bounds.

    Returns (terms, abs_h, cross, q) for validated x and z: the row terms
    T_j, |a_j^* h|, Re(h^* a_j a_j^* x) and |a_j^* x|.
    """
    _check_dims(ensemble, x, z)
    h = aligned_error(z, x)
    P, Q, Ph = _row_products(ensemble, z, x, h)
    absP = np.abs(P)
    _reject_zero_products(absP)
    q = np.abs(Q)
    return (*_row_terms(absP, Q, q, Ph), q)


def margin_row_terms(ensemble: Ensemble, x, z) -> np.ndarray:
    """Per-row terms T_j whose mean equals D_h f(z) - f(z).

    Uses the expanded form with every difference of magnitudes rewritten
    against |a^* z| + |a^* x|, which stays accurate arbitrarily close to the
    solution circle:

        T_j = |a_j^* h|^2
              - 2 |a_j^* x|^2 |a_j^* h|^2 / (|a_j^* z| (|a_j^* z| + |a_j^* x|))
              + 2 |a_j^* x| |a_j^* h|^2 Re(h^* a_j a_j^* x)
                    / (|a_j^* z| (|a_j^* z| + |a_j^* x|)^2)
              + 4 |a_j^* x| Re^2(h^* a_j a_j^* x)
                    / (|a_j^* z| (|a_j^* z| + |a_j^* x|)^2).
    """
    return _aligned_terms(ensemble, as_cvector(x, "x"), as_cvector(z, "z"))[0]


def margin_row_bounds(ensemble: Ensemble, x, z, alpha: float = 12.0):
    """Per-row lower bounds on T_j split by signal strength.

    Rows with |a_j^* x| >= alpha |a_j^* h| get the curvature-carrying bound

        T_j >= 4 alpha^3 / ((alpha+1)(2 alpha+1)^2) * Re^2(h^* a_j a_j^* x) / |a_j^* x|^2
               - (8 alpha^2 - 5 alpha + 1) / ((alpha-1)(2 alpha-1)^2) * |a_j^* h|^2,

    all other rows the crude bound T_j >= -3 |a_j^* h|^2.  Returns
    (terms, bounds, strong), where `strong` flags the first group.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    terms, abs_h, cross, q = _aligned_terms(ensemble, as_cvector(x, "x"), as_cvector(z, "z"))
    abs_h_sq = abs_h**2
    strong = q >= alpha * abs_h
    c_gain = 4.0 * alpha**3 / ((alpha + 1.0) * (2.0 * alpha + 1.0) ** 2)
    c_loss = (8.0 * alpha**2 - 5.0 * alpha + 1.0) / ((alpha - 1.0) * (2.0 * alpha - 1.0) ** 2)
    ratio = np.where(q > 0, cross**2 / np.where(q > 0, q, 1.0) ** 2, 0.0)
    bounds = np.where(strong, c_gain * ratio - c_loss * abs_h_sq, -3.0 * abs_h_sq)
    return terms, bounds, strong


@dataclass(frozen=True)
class RscSample:
    """Curvature margin at one point z relative to the signal."""

    h_norm: float
    f_value: float
    directional: float
    margin_gamma: float


def rsc_margin(ensemble: Ensemble, x, z) -> RscSample:
    """Margin gamma = (D_h f - f) / ||h||^2 at z, with an internal cross-check.

    The derivative-minus-loss gap is recomputed from the per-row expansion
    and must agree with the direct evaluation; disagreement indicates a
    broken invariant, not bad input, hence ArithmeticError.  f, D_v f and
    the row terms share one product a_j^* w per vector w in (z, x, v, h).
    """
    x = as_cvector(x, "x")
    z = as_cvector(z, "z")
    _check_dims(ensemble, x, z)
    h = aligned_error(z, x)
    h_norm = float(np.linalg.norm(h))
    if h_norm == 0.0:
        raise ValueError("z lies on the solution circle; margin is undefined")
    v = as_cvector(z - x * np.exp(1j * optimal_phase(z, x)), "v")
    _check_direction(v)
    P, Q, Pv, Ph = _row_products(ensemble, z, x, v, h)
    absP = np.abs(P)
    q = np.abs(Q)
    f = _loss(absP, q)
    _reject_zero_products(absP)
    d = _derivative(P, absP, q, Pv)
    gap = d - f
    # compared relative to ||x||^2, with the row terms on the products over
    # ||x|| (exact at ||x|| = 1): the terms are quartic in the products before
    # they divide, so unscaled they overflow from about ||x|| = 1e70
    xnorm = float(np.linalg.norm(x))
    gap_direct = gap / xnorm**2
    gap_rows = float(np.mean(_row_terms(absP / xnorm, Q / xnorm, q / xnorm, Ph / xnorm)[0]))
    scale = max(abs(gap_direct), abs(gap_rows))
    # roundoff allowance: both paths lose ~eps * ||h|| / ||x|| relative; NaN fails
    tol = 1e-8 * scale + 100.0 * _EPS * h_norm / xnorm
    if not abs(gap_direct - gap_rows) <= tol:
        raise ArithmeticError(
            f"derivative-loss gap mismatch: direct {gap_direct!r} vs row sum {gap_rows!r}"
        )
    return RscSample(
        h_norm=h_norm,
        f_value=f,
        directional=d,
        margin_gamma=gap / h_norm**2,
    )


def expected_step(ensemble: Ensemble, b: Measurements, x, z) -> float:
    """Exact row-average of dist^2 after one update: no sampling error.

    Rows with a_j^* z = 0 take the phase-one fallback step, matching the
    solver.  The rows are processed in blocks of about _STEP_BLOCK_BYTES
    each, through two block buffers, so the working set stays in cache
    whatever m is.  The buffers are the calling thread's pair from
    _STEP_BUFFERS, allocated anew only when the block shape changes.
    """
    x = as_cvector(x, "x")
    z = as_cvector(z, "z")
    _check_dims(ensemble, x, z)
    if b.m != ensemble.m:
        raise ValueError("measurement count does not match ensemble")
    m, n = ensemble.m, ensemble.n
    block = _rows_per_block(n, _STEP_BLOCK_BYTES)
    shape = (min(block + 1, m), n)
    pair = getattr(_STEP_BUFFERS, "pair", None)
    if pair is None or pair[0].shape != shape:
        pair = _STEP_BUFFERS.pair = [np.empty(shape, dtype=np.complex128) for _ in range(2)]
    stepped, diff = pair
    x_conj = x.conj()
    d2 = np.empty(m)
    for lo, hi in _row_blocks(m, block):
        rows, values = ensemble.rows[lo:hi], b.values[lo:hi]
        s, t = stepped[: hi - lo], diff[: hi - lo]
        P = np.conjugate(rows, out=s) @ z
        absP = np.abs(P)
        safe = np.where(absP > 0.0, absP, 1.0)
        coeff = np.where(
            absP > 0.0,
            (1.0 - values / safe) * P,
            -values.astype(np.complex128),
        )
        coeff = coeff / ensemble.row_norms_sq[lo:hi]
        np.multiply(coeff[:, None], rows, out=s)
        np.subtract(z[None, :], s, out=s)
        overlaps = s @ x_conj
        mags = np.abs(overlaps)
        phases = np.where(mags > 0.0, overlaps / np.where(mags > 0.0, mags, 1.0), 1.0)
        np.multiply(phases[:, None], x[None, :], out=t)
        np.subtract(s, t, out=t)
        d2[lo:hi] = np.einsum("ij,ij->i", t.real, t.real) + np.einsum(
            "ij,ij->i", t.imag, t.imag
        )
    return float(np.mean(d2))


@dataclass(frozen=True)
class ContractionStats:
    """Per-step ratios of mean squared error across a trace collection."""

    ratios: np.ndarray
    mean_dist_sq: np.ndarray
    frac_exited: float
    trials_included: int


def contraction_stats(traces: list[SolverTrace]) -> ContractionStats:
    """Ratio series r_k = mean dist^2 at k+1 over mean at k.

    Only traces that never left the trust ball enter the means; the excluded
    fraction is reported alongside.
    """
    if not traces:
        raise ValueError("no traces supplied")
    lengths = {t.dist.shape[0] if t.dist is not None else -1 for t in traces}
    if -1 in lengths:
        raise ValueError("all traces must have tracked distances")
    if len(lengths) != 1:
        raise ValueError("traces have mismatched lengths")
    kept = [t for t in traces if not t.exited()]
    frac_exited = 1.0 - len(kept) / len(traces)
    if not kept:
        raise ValueError("every trace exited the ball; no surviving trials")
    mean_d2 = (np.stack([t.dist for t in kept]) ** 2).mean(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero mean: the caller's to mask
        ratios = mean_d2[1:] / mean_d2[:-1]
    return ContractionStats(
        ratios=ratios,
        mean_dist_sq=mean_d2,
        frac_exited=frac_exited,
        trials_included=len(kept),
    )
