"""Row-action iterations.

Two run loops, one per row type:

* phaseless rows b = |a^* x| (run_pr): each step keeps the phase of the
  current residual a^* z and projects onto the hyperplane where the chosen
  magnitude equation holds,
      z <- z - (1 - b / |a^* z|) * (a^* z / ||a||^2) * a;
* linear rows y = a^* x (run_linear): the classical orthogonal projection
      z <- z + ((y - a^* z) / ||a||^2) * a.

Both loops hand every iterate to one recorder.  It copies the iterate into
a buffer of a few hundred rows; when the buffer fills, and once at the end,
one vectorized pass computes the distance of every buffered iterate to the
truth (the circle distance for run_pr, the plain error for run_linear) and
checks that the steps taken so far stayed finite.  Per-step distance calls
would cost more than the step itself at n = 128.

Runs never halt early when the iterate leaves the trust ball; the first exit
step, read off the finished distance array, is recorded as the trace's
stopping time, so a single trace supports both the stopped and unstopped
views of the process.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NoReturn

import numpy as np

from .geometry import _dist_rows, _row_norms, as_cvector
from .rng import GENERATOR_ID, RngStream
from .sampling import Ensemble, Measurements


class Selection(Enum):
    NORM_WEIGHTED = "norm_weighted"
    UNIFORM = "uniform"


class ZeroResidualPolicy(Enum):
    """What to do when a^* z = 0 and the residual phase is undefined.

    PHASE_ONE adopts phase factor 1 and still lands on the solution
    hyperplane; SKIP leaves the iterate untouched.
    """

    PHASE_ONE = "phase_one"
    SKIP = "skip"


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int
    ball_radius_rel: float = 0.01
    track_distance: bool = True
    selection: Selection = Selection.NORM_WEIGHTED
    zero_residual_policy: ZeroResidualPolicy = ZeroResidualPolicy.PHASE_ONE

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not 0.0 <= self.ball_radius_rel <= 1.0:
            raise ValueError("ball_radius_rel must lie in [0, 1]")


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
        lines = ["k,i_k,dist,abs_az"]
        for k in range(k_max):
            d = repr(float(self.dist[k])) if self.dist is not None else ""
            lines.append(f"{k},{self.rows[k]},{d},{repr(float(self.abs_az[k]))}")
        d = repr(float(self.dist[k_max])) if self.dist is not None else ""
        lines.append(f"{k_max},-1,{d},")
        Path(path).write_text("\n".join(lines) + "\n")

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


def _cumulative_probs(ensemble: Ensemble, selection: Selection) -> np.ndarray:
    if selection is Selection.UNIFORM:
        weights = np.ones(ensemble.m)
    else:
        weights = ensemble.row_norms_sq
    total = weights.sum()
    if total <= 0:
        raise ValueError("ensemble has no rows with positive norm")
    return np.cumsum(weights / total)


def _indices_from_uniforms(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    idx = np.searchsorted(cum, u, side="right")
    return np.minimum(idx, cum.shape[0] - 1)


def select_row(ensemble: Ensemble, rng: RngStream, selection: Selection = Selection.NORM_WEIGHTED) -> int:
    """One random row index; norm-weighted picks j with P ~ ||a_j||^2."""
    if ensemble.m < 1:
        raise ValueError("ensemble is empty")
    cum = _cumulative_probs(ensemble, selection)
    u = rng.generator().random(1)
    return int(_indices_from_uniforms(cum, u)[0])


def select_rows(
    ensemble: Ensemble,
    rng: RngStream,
    count: int,
    selection: Selection = Selection.NORM_WEIGHTED,
) -> np.ndarray:
    """The length-`count` index sequence the run loop consumes.

    Entry 0 equals select_row(ensemble, rng, selection): both map the same
    uniform stream through the same cumulative-probability inversion.
    """
    if ensemble.m < 1:
        raise ValueError("ensemble is empty")
    cum = _cumulative_probs(ensemble, selection)
    u = rng.generator().random(count)
    return _indices_from_uniforms(cum, u)


def pr_step(
    z,
    a,
    b: float,
    policy: ZeroResidualPolicy = ZeroResidualPolicy.PHASE_ONE,
    row_norm_sq: float | None = None,
) -> np.ndarray:
    """One phaseless row update; afterwards |a^* z| = b up to roundoff.

    The step commutes with a global phase: pr_step(f z) == f pr_step(z)
    holds bit for bit for f in {1, -1, 1j, -1j} whenever a^* z != 0, and
    to roundoff for any other unimodular f.  The PHASE_ONE branch taken
    when a^* z == 0 is not phase-equivariant, since the residual phase is
    undefined there.
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
        if policy is ZeroResidualPolicy.SKIP:
            return z.copy()
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
        "config": {
            "ball_radius_rel": config.ball_radius_rel,
            "track_distance": config.track_distance,
            "selection": config.selection.value,
            "zero_residual_policy": config.zero_residual_policy.value,
        },
    }


# Budget of the iterate buffer between distance passes: 256 rows at n = 128.
_TRACK_BUFFER_BYTES = 1 << 19


def _plain_error_rows(zs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """||zs[i] - x|| for every row: run_linear's error, with no phase to fit."""
    return _row_norms(zs - x)


class _RunRecorder:
    """abs_az, the distance track and the non-finite guard of one run.

    The loop writes abs_az[k] during step k and pushes each new iterate; the
    start z0 is pushed here.  A full buffer of iterates, and finish(),
    trigger one vectorized distance pass over the buffered rows and a check
    of the abs_az written since the last check.  Untracked runs buffer
    nothing and are checked once, at the end.
    """

    def __init__(self, z0: np.ndarray, idx: np.ndarray, x, config: SolverConfig, dist_rows):
        k_max = idx.shape[0]
        self.idx = idx
        self.abs_az = np.empty(k_max)
        self.dist = None
        self._x = x
        self._dist_rows = dist_rows
        self._filled = 0  # iterates waiting in the buffer
        self._done = 0  # iterates whose distance is recorded
        self._checked = 0  # abs_az entries checked to be finite
        if config.track_distance:
            n = z0.shape[0]
            self._radius = config.ball_radius_rel * float(np.linalg.norm(x))
            self.dist = np.empty(k_max + 1)
            rows = max(1, _TRACK_BUFFER_BYTES // (16 * n))
            self._buf = np.empty((min(rows, k_max + 1), n), dtype=np.complex128)
            self.push(z0)

    def push(self, z: np.ndarray) -> None:
        self._buf[self._filled] = z
        self._filled += 1
        if self._filled == self._buf.shape[0]:
            self._flush()

    def _flush(self) -> None:
        newest = self._done + self._filled - 1
        self._check(newest)
        self.dist[self._done : newest + 1] = self._dist_rows(self._buf[: self._filled], self._x)
        self._done = newest + 1
        self._filled = 0

    def _check(self, stop: int) -> None:
        """Raise on the first non-finite abs_az[k], k < stop: iterate k blew up."""
        bad = np.flatnonzero(~np.isfinite(self.abs_az[self._checked : stop]))
        if bad.size:
            self._fail(self._checked + int(bad[0]))
        self._checked = stop

    def _fail(self, k: int) -> NoReturn:
        source = f", produced by row {self.idx[k - 1]}" if k else ""
        raise ValueError(f"non-finite iterate at step {k}{source}")

    def finish(self, z: np.ndarray, meta: dict) -> SolverTrace:
        """Check and record what is left, then build the trace with final iterate z."""
        k_max = self.abs_az.shape[0]
        self._check(k_max)
        if not np.all(np.isfinite(z)):
            self._fail(k_max)
        stopping_time = None
        if self.dist is not None:
            if self._filled:
                self._flush()
            exits = np.flatnonzero(self.dist > self._radius)
            stopping_time = int(exits[0]) if exits.size else None
        return SolverTrace(
            rows=self.idx.astype(np.int64),
            abs_az=self.abs_az,
            dist=self.dist,
            stopping_time=stopping_time,
            final=z,
            meta=meta,
        )


def _start(ensemble: Ensemble, z0, config: SolverConfig, truth):
    """Validated copy of z0 and validated truth (None when absent)."""
    z = as_cvector(z0, "z0").copy()
    if z.shape[0] != ensemble.n:
        raise ValueError("z0 dimension does not match ensemble")
    if truth is None:
        if config.track_distance:
            raise ValueError("track_distance requires a ground-truth vector")
        return z, None
    x = as_cvector(truth, "truth")
    if x.shape[0] != ensemble.n:
        raise ValueError("truth dimension does not match ensemble")
    return z, x


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
    """
    if b.m != ensemble.m:
        raise ValueError("measurement count does not match ensemble")
    z, x = _start(ensemble, z0, config, truth)

    idx = select_rows(ensemble, rng, config.max_iters, config.selection)
    rows = ensemble.rows
    norms_sq = ensemble.row_norms_sq
    rows_conj = rows.conj()
    bvals = b.values
    skip = config.zero_residual_policy is ZeroResidualPolicy.SKIP

    record = _RunRecorder(z, idx, x, config, _dist_rows)
    abs_az = record.abs_az
    track = config.track_distance
    for k in range(config.max_iters):
        j = idx[k]
        s = rows_conj[j] @ z
        mag = abs(s)
        abs_az[k] = mag
        if mag == 0.0:
            if not skip:
                z = z + (bvals[j] / norms_sq[j]) * rows[j]
        else:
            z = z - ((1.0 - bvals[j] / mag) * s / norms_sq[j]) * rows[j]
        if track:
            record.push(z)
    return record.finish(z, _trace_meta(ensemble, rng, config))


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
    z, x = _start(ensemble, z0, config, truth)

    idx = select_rows(ensemble, rng, config.max_iters, config.selection)
    rows = ensemble.rows
    rows_conj = rows.conj()
    norms_sq = ensemble.row_norms_sq

    record = _RunRecorder(z, idx, x, config, _plain_error_rows)
    abs_az = record.abs_az
    track = config.track_distance
    for k in range(config.max_iters):
        j = idx[k]
        s = rows_conj[j] @ z
        abs_az[k] = abs(s)
        z = z + ((y[j] - s) / norms_sq[j]) * rows[j]
        if track:
            record.push(z)
    return record.finish(z, _trace_meta(ensemble, rng, config))
