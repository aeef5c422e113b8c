"""Row-action iterations.

One step loop serves two row types:

* phaseless rows b = |a^* x| (run_pr): each step keeps the phase of the
  current residual a^* z and projects onto the hyperplane where the chosen
  magnitude equation holds,
      z <- z - (1 - b / |a^* z|) * (a^* z / ||a||^2) * a;
* linear rows y = a^* x (run_linear): the classical orthogonal projection
      z <- z + ((y - a^* z) / ||a||^2) * a.

The iterate lives in a buffer of a few hundred rows: each step writes the
next iterate into the next row, with no allocation per step.  When the
buffer fills, and once at the end, one vectorized pass checks that its
iterates stayed finite and, when a truth is given, computes the distance of
every one of them to the truth (the circle distance for run_pr, the plain
error for run_linear).  Per-step distance calls would cost more than the
step itself at n = 128.

Runs never halt early when the iterate leaves the trust ball; the first exit
step, read off the finished distance array, is recorded as the trace's
stopping time, so a single trace supports both the stopped and unstopped
views of the process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import NoReturn

import numpy as np

from .geometry import _dist_rows, _row_norms, as_cvector
from .rng import GENERATOR_ID, RngStream
from .sampling import Ensemble, Measurements


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int
    ball_radius_rel: float = 0.01
    track_distance: bool = True

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not 0.0 <= self.ball_radius_rel <= 1.0:
            raise ValueError("ball_radius_rel must lie in [0, 1]")


# Lines of a CSV formatted per write.
_CSV_ROWS = 1024


def _write_csv(path, header: str, columns, tail: str = "") -> None:
    """Write `header`, one line `i,c[i],...` per row i, then `tail`.

    The first column sets the row count; a longer column is cut.  An array
    column is written as the repr of its values (str.format of a Python
    float or int with no spec is its repr) and a None column as empty
    fields.  The text is built _CSV_ROWS lines at a time, so that no string
    object per line of the whole table is alive at once.
    """
    rows = len(columns[0])
    line = ",".join(["{}"] * (len(columns) + 1)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, rows, _CSV_ROWS):
            hi = min(lo + _CSV_ROWS, rows)
            fields = (repeat("", hi - lo) if c is None else c[lo:hi].tolist() for c in columns)
            fh.write("".join(map(line.format, range(lo, hi), *fields)))
        fh.write(tail)


@dataclass
class SolverTrace:
    """Per-iteration record of one run.

    ``rows[k]`` and ``abs_az[k]`` describe the step taken from iterate k;
    ``dist[k]`` is the error of iterate k itself (length max_iters + 1, None
    when no ground truth was supplied).  ``stopping_time`` is the first k
    whose iterate left the trust ball, or None when that never happened.
    """

    rows: np.ndarray
    abs_az: np.ndarray
    dist: np.ndarray | None
    stopping_time: int | None
    final: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return self.rows.shape[0]

    def exited(self) -> bool:
        return self.stopping_time is not None

    def to_csv(self, path) -> None:
        """Write `k,i_k,dist,abs_az`, one row per iteration plus the final state."""
        k_max = self.iterations
        last = "" if self.dist is None else repr(self.dist[k_max].item())
        _write_csv(path, "k,i_k,dist,abs_az", (self.rows, self.dist, self.abs_az),
                   f"{k_max},-1,{last},\n")

    def sidecar(self) -> dict:
        doc = {
            "generator": GENERATOR_ID,
            "stopping_time": self.stopping_time,
            "zero_residual_steps": int(np.count_nonzero(self.abs_az == 0.0)),
            "min_abs_az": float(self.abs_az.min()) if self.abs_az.size else None,
        }
        doc.update(self.meta)
        return doc

    def to_sidecar_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.sidecar(), sort_keys=True) + "\n")


def select_rows(ensemble: Ensemble, rng: RngStream, count: int) -> np.ndarray:
    """The length-`count` index sequence the run loop consumes.

    Each step picks j with P ~ ||a_j||^2, by inverting the cumulative
    probabilities at one uniform draw per step.
    """
    if ensemble.m < 1:
        raise ValueError("ensemble is empty")
    weights = ensemble.row_norms_sq
    total = weights.sum()
    if total <= 0:
        raise ValueError("ensemble has no rows with positive norm")
    cum = np.cumsum(weights / total)
    idx = np.searchsorted(cum, rng.generator().random(count), side="right")
    return np.minimum(idx, ensemble.m - 1)


def pr_step(z, a, b: float, row_norm_sq: float | None = None) -> np.ndarray:
    """One phaseless row update; afterwards |a^* z| = b up to roundoff.

    The step commutes with a global phase: pr_step(f z) == f pr_step(z)
    holds bit for bit for f in {1, -1, 1j, -1j} whenever a^* z != 0, and
    to roundoff for any other unimodular f.  When a^* z == 0 the residual
    phase is undefined and the step adopts phase factor 1: it still lands
    on the level set |a^* z| = b, but is not phase-equivariant.
    """
    z = as_cvector(z, "z")
    a = as_cvector(a, "a")
    if z.shape != a.shape:
        raise ValueError("dimension mismatch between z and a")
    if not np.isfinite(b) or b < 0:
        raise ValueError("b must be finite and nonnegative")
    if row_norm_sq is None:
        row_norm_sq = float(np.vdot(a, a).real)
    if row_norm_sq <= 0.0:
        raise ValueError("row a must be nonzero")
    s = np.vdot(a, z)
    mag = abs(s)
    if mag == 0.0:
        return z + (b / row_norm_sq) * a
    c = (1.0 - b / mag) * s / row_norm_sq
    # Real-times-complex products only: numpy's complex*complex kernel may
    # round (f c) * a and f (c * a) differently, which breaks exact equivariance.
    return z - (c.real * a + c.imag * (1j * a))


def linear_step(z, a, y: complex, row_norm_sq: float | None = None) -> np.ndarray:
    """Orthogonal projection onto {z : a^* z = y}."""
    z = as_cvector(z, "z")
    a = as_cvector(a, "a")
    if z.shape != a.shape:
        raise ValueError("dimension mismatch between z and a")
    if row_norm_sq is None:
        row_norm_sq = float(np.vdot(a, a).real)
    if row_norm_sq <= 0.0:
        raise ValueError("row a must be nonzero")
    return z + ((y - np.vdot(a, z)) / row_norm_sq) * a


def _trace_meta(ensemble: Ensemble, rng: RngStream, config: SolverConfig) -> dict:
    return {
        "seed": rng.seed,
        "stream_id": rng.stream_id,
        "m": ensemble.m,
        "n": ensemble.n,
        "model": ensemble.model.value,
        "max_iters": config.max_iters,
        # the step rule is fixed; the sidecar still names the one that ran
        "config": {
            "ball_radius_rel": config.ball_radius_rel,
            "track_distance": config.track_distance,
            "selection": "norm_weighted",
            "zero_residual_policy": "phase_one",
        },
    }


# Budget of the iterate buffer between distance passes: 256 rows at n = 128.
_TRACK_BUFFER_BYTES = 1 << 19


def _plain_error_rows(zs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||zs[i] - x|| for every row: run_linear's error, with no phase to fit."""
    return _row_norms(zs - x)


def _run(
    ensemble: Ensemble,
    rhs: np.ndarray,
    z0,
    config: SolverConfig,
    rng: RngStream,
    truth,
    linear: bool,
) -> SolverTrace:
    """The step loop of run_pr (rhs = b) and run_linear (rhs = y).

    Iterate k lives in row k mod B of a B-row buffer, and each step writes
    the next iterate straight into the next row.  When the buffer is full,
    and once at the end, one pass checks that its iterates are finite and,
    for tracked runs, computes all of their distances.
    """
    z = as_cvector(z0, "z0")
    if z.shape[0] != ensemble.n:
        raise ValueError("z0 dimension does not match ensemble")
    x = None
    if truth is not None:
        x = as_cvector(truth, "truth")
        if x.shape[0] != ensemble.n:
            raise ValueError("truth dimension does not match ensemble")
    elif config.track_distance:
        raise ValueError("track_distance requires a ground-truth vector")
    k_max = config.max_iters
    idx = select_rows(ensemble, rng, k_max)
    n = ensemble.n
    B = min(max(1, _TRACK_BUFFER_BYTES // (16 * n)), k_max + 1)
    buf = np.empty((B, n), dtype=np.complex128)
    buf[0] = z
    slots = list(buf)
    z = slots[0]
    rows = list(ensemble.rows)
    rhs = rhs.tolist()
    norms_sq = ensemble.row_norms_sq.tolist()
    dist_rows = _plain_error_rows if linear else _dist_rows
    abs_az = np.empty(k_max)
    dist = np.empty(k_max + 1) if config.track_distance else None

    def fail(k: int) -> NoReturn:
        source = f", produced by row {idx[k - 1]}" if k else ""
        raise ValueError(f"non-finite iterate at step {k}{source}")

    def flush(done: int, filled: int) -> None:
        """Check and record iterates done .. done + filled - 1, held in buf[:filled]."""
        newest = done + filled - 1
        bad = np.flatnonzero(~np.isfinite(abs_az[done : newest + 1]))
        if bad.size:
            fail(done + int(bad[0]))
        if newest == k_max and not np.all(np.isfinite(buf[filled - 1])):
            fail(k_max)
        if dist is not None:
            dist[done : newest + 1] = dist_rows(buf[:filled], x)

    # np.vdot's C function without its __array_function__ dispatch, which
    # costs about 0.5 us a step at n = 128
    vdot = getattr(np.vdot, "_implementation", np.vdot)
    multiply, add, subtract = np.multiply, np.add, np.subtract
    tmp = np.empty(n, dtype=np.complex128)
    # the step coefficient goes through a 0-d array, which numpy takes without
    # the per-call conversion of a scalar operand; its own arithmetic stays in
    # numpy scalars, whose complex division rounds unlike Python's
    coef = np.empty((), dtype=np.complex128)
    done = slot = 0
    # A blow-up overflows the step arithmetic before flush sees the iterate;
    # flush names the step, so numpy's warnings are silenced, once per run.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k, j in enumerate(idx.tolist()):
            a = rows[j]
            s = vdot(a, z)
            mag = abs(s)
            abs_az[k] = mag
            slot += 1
            if slot == B:
                flush(done, B)
                done += B
                slot = 0
            nxt = slots[slot]
            if linear:
                coef[()] = (rhs[j] - s) / norms_sq[j]
                multiply(coef, a, tmp)
                add(z, tmp, nxt)
            elif mag != 0.0:
                coef[()] = (1.0 - rhs[j] / mag) * s / norms_sq[j]
                multiply(coef, a, tmp)
                subtract(z, tmp, nxt)
            else:
                multiply(rhs[j] / norms_sq[j], a, tmp)
                add(z, tmp, nxt)
            z = nxt
        flush(done, slot + 1)

    stopping_time = None
    if dist is not None:
        exits = np.flatnonzero(dist > config.ball_radius_rel * float(np.linalg.norm(x)))
        stopping_time = int(exits[0]) if exits.size else None
    return SolverTrace(
        rows=idx.astype(np.int64, copy=False),
        abs_az=abs_az,
        dist=dist,
        stopping_time=stopping_time,
        final=z.copy(),
        meta=_trace_meta(ensemble, rng, config),
    )


def run_pr(
    ensemble: Ensemble,
    b: Measurements,
    z0,
    config: SolverConfig,
    rng: RngStream,
    truth=None,
) -> SolverTrace:
    """Run the phaseless iteration for max_iters steps.

    With `truth` supplied the trace records dist(z_k, truth) for every
    iterate and the stopping time for the ball of relative radius
    config.ball_radius_rel around the solution circle.  Raises ValueError
    naming the step and row when an iterate becomes non-finite.

    The loop commutes with a global phase only to roundoff, also for f in
    {-1, 1j, -1j}: a run from f z0 ends near, not exactly at, f times the
    run from z0 (a few 1e-16 relative after 200 steps at n = 32).  pr_step
    is the exactly equivariant form; the loop keeps the cheaper update.
    """
    if b.m != ensemble.m:
        raise ValueError("measurement count does not match ensemble")
    return _run(ensemble, b.values, z0, config, rng, truth, linear=False)


def run_linear(
    ensemble: Ensemble,
    y,
    z0,
    config: SolverConfig,
    rng: RngStream,
    truth=None,
) -> SolverTrace:
    """Classical row-projection baseline on a linear system a_j^* z = y_j.

    The trace's dist column holds the plain error ||z_k - truth||.  Raises
    ValueError naming the step and row when an iterate becomes non-finite.
    """
    y = np.asarray(y, dtype=np.complex128)
    if y.ndim != 1 or y.shape[0] != ensemble.m:
        raise ValueError("right-hand side must have one entry per row")
    return _run(ensemble, y, z0, config, rng, truth, linear=True)
