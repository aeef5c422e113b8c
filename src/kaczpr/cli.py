"""Reproducible experiment harness.

Subcommands: solve | rsc-scan | verify | baseline.  Every run is a pure
function of its resolved configuration; all randomness flows from --seed
through per-trial streams (stream_id = trial index) and purpose substreams.
Value precedence is CLI flag > --config JSON > _OPTIONS.  A run (a
command, verify and a lemma, or a solver and its --init) rejects a flag or
config key that its rows of _OPTIONS do not name.  Serial and threaded runs
give identical bytes: workers are deterministic per trial and aggregation is
in trial order.

Artifacts are plot-ready CSVs plus JSON sidecars; each sidecar embeds the
seed, the generator identifier, and a hash of the resolved configuration,
so any output can be regenerated from its sidecar alone.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import ctypes
import functools
import hashlib
import json
import math
import re
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .geometry import _adjoint_products, _row_blocks, _usable_cores
from .initializers import (
    InitConfig,
    _scan_directions,
    default_norm_model,
    planted_init,
    spectral_init,
)
from .kaczmarz import SolverConfig, SolverTrace, _write_json, run_linear, run_pr
from .rng import GENERATOR_ID, RngStream
from .sampling import Model, _unit_draw, make_ensemble, measure

SCHEMA_VERSION = 1

# purpose tags for per-trial substreams
TAG_ENSEMBLE = 1
TAG_SIGNAL = 2
TAG_INIT = 3
TAG_ROWS = 4
TAG_SCAN = 5

FLOOR_DIST_SQ = 1e-24  # the numerical floor of mean_dist2, relative to scale**2
MEDIAN_ERROR_REL = 1e-10  # baseline's median error bound, relative to scale
RATE_MARGIN = 0.03  # certified per-step decrement is RATE_MARGIN / n
MIN_SCALE, MAX_SCALE = 1e-150, 1e150

_LEMMAS = ("F", "G", "covariance", "restricted-ratio", "truncated-moment")
_SOLVERS = ("solve", "baseline")
_DRAWN = (*_SOLVERS, "rsc-scan")  # the runs that draw a signal from an ensemble
_SCALARS = ("verify F", "verify G")
_SCANS = ("verify restricted-ratio", "verify truncated-moment")
_SIZED = (*_DRAWN, "verify covariance", *_SCANS)  # the runs that take n and m
_ALL = (*_DRAWN, *(f"verify {lemma}" for lemma in _LEMMAS))


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved settings for one harness run, checked against _OPTIONS and
    _RUN_RULES.  No field has a default: resolve_config gives each one."""

    command: str
    n: int
    m: int
    model: str
    trials: int
    max_iters: int
    init: str
    planted_radius: float
    delta: float
    seed: int
    out_dir: str
    threads: int
    serial: bool
    scale: float
    ball_radius: float
    samples: int
    h_samples: int
    lam: float
    sigma: float
    lemma: str
    check: bool
    allow_radius_override: bool

    def __post_init__(self):
        for opt in _OPTIONS:
            if opt.key != "m_over_n":  # no field: resolve_config turns it into m
                opt.check(getattr(self, opt.key), self.command)
        run = f"{self.command} {self.lemma}".rstrip()
        for rule_run, test, message in _RUN_RULES:
            if rule_run in (run, f"{run} --init {self.init}") and not test(self):
                raise ValueError(message.format(run=rule_run, cfg=self, **_FLAGS))


def _for_run(value, run: str):
    """`value`, or where it is a dict keyed by run or by command, its entry
    for `run`, else for run's command, else for None."""
    if not isinstance(value, dict):
        return value
    return value.get(run, value.get(run.split()[0], value.get(None)))


def _within(lo, hi=math.inf) -> tuple:
    """The test `lo <= v <= hi`, which NaN fails, and its text."""
    text = f"be at least {lo}" if hi == math.inf else f"lie in [{lo:g}, {hi:g}]"
    return (lambda v: lo <= v <= hi), text


def _as_int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError
    return int(value)


def _as_float(value) -> float:
    if isinstance(value, bool):
        raise ValueError
    return float(value)


def _as_bool(value) -> bool:
    text = str(value).lower()  # a JSON true or false reads as its own name
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("", "0", "false", "no", "off"):
        return False
    raise ValueError


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError
    return value


_CONVERTERS = {
    int: (_as_int, "an integer"),
    float: (_as_float, "a number"),
    bool: (_as_bool, "a boolean"),
    str: (_as_str, "a string"),
}


class _Option(NamedTuple):
    """One setting: the runs that read it from its flag or its config key, its
    default, which every other run keeps, and its range."""

    key: str  # the ExperimentConfig field and the config key
    kind: type  # int, float, bool or str
    flag: str
    runs: tuple  # the runs that read the key; "solve --init planted" names a run and its start
    default: object  # or {run or command: value, None: every other run's}; None derives it
    valid: tuple | None = None  # a (test, text) pair; every test fails on NaN
    choices: tuple | dict = ()  # the allowed strings, or {command: strings}

    def check(self, value, command: str) -> None:
        """Reject an out-of-range value, naming the flag."""
        names = _for_run(self.choices, command)
        if names and value not in names:
            per = f" for {command}" if isinstance(self.choices, dict) else ""
            raise ValueError(f"{self.flag} must be one of {', '.join(names)}{per}, got {value!r}")
        if self.valid is not None and not self.valid[0](value):
            raise ValueError(f"{self.flag} must {self.valid[1]}, got {value!r}")

    def coerce(self, value, source: str):
        """Convert a raw value from `source`, which errors name."""
        convert, kind = _CONVERTERS[self.kind]
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{source} must be {kind}, got {value!r}") from None


_OPTIONS = (
    _Option("seed", int, "--seed", _ALL, 7,
            (lambda v: 0 <= v < 2**64, "be an unsigned 64-bit integer")),
    _Option("out_dir", str, "--out", _ALL,
            {"solve": "results/solve", "baseline": "results/baseline",
             "rsc-scan": "results/rsc_scan", "verify": ""}),
    _Option("threads", int, "--threads", _SOLVERS, 1, _within(1)),
    _Option("serial", bool, "--serial", _SOLVERS, False),
    _Option("n", int, "--n", _SIZED, {"solve": 128, "baseline": 32, "rsc-scan": 64, "verify": 16},
            _within(1)),
    _Option("m", int, "--m", _SIZED, {"baseline": 512, "verify": 1024}, _within(1)),
    # no field: resolve_config sets m to it times n, unless m is explicit
    _Option("m_over_n", int, "--m-over-n", _SIZED, {"solve": 8, "rsc-scan": 16}, _within(1)),
    _Option("trials", int, "--trials", (*_SOLVERS, "verify covariance"),
            {"solve": 200, "baseline": 50, "rsc-scan": 1, "verify": 50}, _within(1)),
    _Option("max_iters", int, "--max-iters", _SOLVERS, None, _within(0)),
    _Option("delta", float, "--delta", ("solve", "verify covariance", *_SCANS),
            {None: 0.5, "baseline": 1.0}, (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")),
    _Option("model", str, "--model", _DRAWN, "sphere", choices=tuple(m.value for m in Model)),
    # squared distances up to (2 * scale)^2 must stay representable
    _Option("scale", float, "--scale", _DRAWN, 1.0, _within(MIN_SCALE, MAX_SCALE)),
    _Option("init", str, "--init", _SOLVERS, {None: "planted", "baseline": "zero"},
            choices={"solve": ("planted", "spectral"), "baseline": ("zero", "planted")}),
    _Option("planted_radius", float, "--radius",
            ("solve --init planted", "baseline --init planted"), {None: 0.0, "solve": 0.005},
            (lambda v: 0.0 <= v < math.inf, "be finite and at least 0")),
    _Option("lam", float, "--lambda", (*_SCALARS, *_SCANS),
            {None: 3.0, "verify G": 0.4, "verify truncated-moment": 0.4},
            (math.isfinite, "be finite")),
    _Option("sigma", float, "--sigma", _SCALARS, 0.0, _within(-1.0, 1.0)),
    _Option("samples", int, "--samples", ("rsc-scan", *_SCALARS), {None: 1000, "verify": 10**6},
            _within(0)),
    _Option("ball_radius", float, "--ball", ("solve", "rsc-scan"), 0.01, _within(0.0, 1.0)),
    _Option("h_samples", int, "--h-samples", _SCANS, 500, _within(1)),
    _Option("check", bool, "--check", _SOLVERS, False),
    _Option("allow_radius_override", bool, "--allow-radius-override", ("solve --init planted",),
            False),
)
_BY_KEY = {opt.key: opt for opt in _OPTIONS}
_FLAGS = {opt.key: opt.flag for opt in _OPTIONS}

# What a run needs beyond the ranges of _OPTIONS: rows of (run, test, message),
# checked in order.  test takes the config and fails on NaN; message is
# formatted with the run, the flags by key and the config as cfg.  The regimes
# of lam and sigma restate the library's domain checks, to name the flag.
_RUN_RULES = (
    ("verify F", lambda c: c.samples >= 1, "{samples} must be at least 1 for {run}"),
    ("verify G", lambda c: c.samples >= 1, "{samples} must be at least 1 for {run}"),
    ("verify F", lambda c: c.lam >= 2.95, "{lam} must be at least 2.95 for {run}"),
    ("verify G", lambda c: 0.0 <= c.lam <= 0.4, "{lam} must be in [0, 0.4] for {run}"),
    ("verify restricted-ratio", lambda c: c.lam >= 3.0, "{lam} must be at least 3 for {run}"),
    ("verify truncated-moment", lambda c: 0.0 < c.lam <= 0.4,
     "{lam} must be in (0, 0.4] for {run}"),
    ("verify F", lambda c: -1.0 < c.sigma < 1.0, "{sigma} must lie in (-1, 1) for {run}"),
    ("rsc-scan", lambda c: c.ball_radius > 0.0, "{ball_radius} must be in (0, 1] for {run}"),
    ("verify covariance", lambda c: c.m >= c.n,
     "{m} must be at least {n} for {run}, got {m} {cfg.m} and {n} {cfg.n}"),
    # the exit bound holds for starts within 0.01 * delta, to a few ulps (0.7, 0.007)
    ("solve --init planted", lambda c: c.allow_radius_override
     or c.planted_radius <= 0.01 * c.delta * (1.0 + 4.0 * sys.float_info.epsilon),
     "{planted_radius} exceeds 0.01 * {delta}; pass {allow_radius_override} "
     "to run outside the certified regime"),
)


# execution details do not affect results and stay out of hashes and sidecars
_EXECUTION_KEYS = ("out_dir", "threads", "serial", "check")


def experiment_dict(cfg: ExperimentConfig) -> dict:
    doc = asdict(cfg)
    for key in _EXECUTION_KEYS:
        doc.pop(key, None)
    return doc


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(experiment_dict(cfg), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _finite_or_none(value: float) -> float | None:
    value = float(value)
    return value if np.isfinite(value) else None


def _sidecar_base(cfg: ExperimentConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "config": experiment_dict(cfg),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "generator": GENERATOR_ID,
    }


def _draw(cfg: ExperimentConfig, stream: RngStream) -> tuple:
    """The ensemble and the signal x, of norm cfg.scale, that a trial's stream gives."""
    ensemble = make_ensemble(cfg.m, cfg.n, cfg.model, stream.substream(TAG_ENSEMBLE))
    return ensemble, _unit_draw(cfg.n, stream.substream(TAG_SIGNAL).generator(), scale=cfg.scale)


def _trial(cfg: ExperimentConfig, trial: int) -> SolverTrace:
    """One trial of `solve` (phaseless rows) or `baseline` (linear rows)."""
    stream = RngStream(cfg.seed, trial)
    ensemble, x = _draw(cfg, stream)
    if cfg.command == "solve":
        rhs, solver = measure(ensemble, x), run_pr
    else:
        rhs, solver = _adjoint_products(ensemble.rows, x), run_linear  # consistent by construction
    if cfg.init == "planted":
        z0 = planted_init(x, cfg.planted_radius, stream.substream(TAG_INIT))
    elif cfg.init == "spectral":
        init_cfg = InitConfig(norm_estimate=default_norm_model(ensemble.model))
        z0 = spectral_init(ensemble, rhs, init_cfg, stream.substream(TAG_INIT))
    else:
        z0 = np.zeros(cfg.n, dtype=np.complex128)
    solver_cfg = SolverConfig(max_iters=cfg.max_iters, ball_radius_rel=cfg.ball_radius)
    return solver(ensemble, rhs, z0, solver_cfg, stream.substream(TAG_ROWS), truth=x)


class TrialResult(NamedTuple):
    """What a trial's job returns: its distance row, which _run_trials spills,
    and its stopping time."""

    dist: np.ndarray
    stopping_time: int | None


def _write_trace(cfg: ExperimentConfig, t: int, trace: SolverTrace, config_hash: str) -> None:
    """Write trial t's trace_NNNN.csv and its .json sidecar."""
    stem = Path(cfg.out_dir) / f"trace_{t:04d}"
    trace.to_csv(stem.with_suffix(".csv"))
    trace.to_sidecar_json(stem.with_suffix(".json"), schema_version=SCHEMA_VERSION,
                          config_hash=config_hash, root_seed=cfg.seed, trial=t)


@functools.cache
def _blas_threads() -> tuple | None:
    """The (set, get) thread-count functions of numpy's OpenBLAS, or None.

    Found by ctypes through numpy's LAPACK extension, which links the library.
    """
    lapack = ctypes.CDLL(_umath_linalg.__file__)
    for setter in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
        getter = setter.replace("_set_", "_get_")
        if hasattr(lapack, setter) and hasattr(lapack, getter):
            set_threads, get_threads = getattr(lapack, setter), getattr(lapack, getter)
            set_threads.argtypes, get_threads.restype = [ctypes.c_int], ctypes.c_int
            return set_threads, get_threads
    print("kaczpr: no OpenBLAS thread setter found; spectral runs repeat their "
          "bytes only at the same BLAS thread count", file=sys.stderr)  # once: cached
    return None


def _pin_blas():
    """Pin numpy's OpenBLAS to one thread, and return what restores its count.

    np.linalg.eigh's eigenvector, and so every artifact of a spectral run,
    moves in the last bits with the BLAS thread count.
    """
    control = _blas_threads()
    if control is None:
        return lambda: None
    set_threads, get_threads = control
    before = get_threads()
    set_threads(1)
    return lambda: set_threads(before)


def _pool(workers: int):
    """A process pool of `workers` workers.

    Imported here, since the pool modules would cost every run about 1 MB
    and 15 ms of start-up on a 2-core Linux host.
    """
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _trial_job(args) -> TrialResult:
    """One trial's job: run the trial, write its trace files, return its TrialResult."""
    # a worker started by fork inherits main's pin, one by forkserver does not;
    # in main's own process this pins the same count again
    _pin_blas()
    cfg, trial, digest = args
    trace = _trial(cfg, trial)
    _write_trace(cfg, trial, trace, digest)
    return TrialResult(trace.dist, trace.stopping_time)


def _run_trials(cfg: ExperimentConfig, spill) -> np.ndarray:
    """Run every trial's job, which writes its trace files, and spill its distance row.

    Results are taken in trial order as they arrive, and each distance row
    is appended to the binary file `spill` as raw float64, for _aggregate to
    read back; so no trials x (max_iters + 1) matrix is held, in this
    process or in the pool parent.  Returns each trial's stopping time,
    max_iters + 1 for a trial that never left the ball.  The jobs run in
    this process where min(threads, trials, usable cores) is 1, and in a
    pool of that many workers otherwise.  A failing trial raises, possibly
    after other trials' traces are on disk; aggregate.csv and summary.json
    are written only after every trial has run.
    """
    digest = config_hash(cfg)
    stops = np.full(cfg.trials, cfg.max_iters + 1)
    jobs = ((cfg, t, digest) for t in range(cfg.trials))
    workers = 1 if cfg.serial else min(cfg.threads, cfg.trials, _usable_cores())
    with _pool(workers) if workers > 1 else contextlib.nullcontext() as pool:
        results = _in_order(pool, jobs, 2 * workers) if workers > 1 else map(_trial_job, jobs)
        for t, result in enumerate(results):
            spill.write(result.dist)
            if result.stopping_time is not None:
                stops[t] = result.stopping_time
    return stops


def _in_order(pool, jobs, depth: int):
    """_trial_job's results over `jobs`, run in `pool`, in job order.

    Executor.map submits every job at once, and each pending future costs
    the parent about 2 KB; here at most `depth` jobs are submitted and not
    yet taken.  A job's exception is raised here, and the jobs that have
    not started are cancelled.
    """
    pending = collections.deque()
    try:
        for job in jobs:
            pending.append(pool.submit(_trial_job, job))
            if len(pending) == depth:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _column_medians(a: np.ndarray) -> np.ndarray:
    """np.median(a, axis=0, overwrite_input=True), bit for bit.

    np.median's NaN check imports numpy.ma, which costs a run about 1.2 MB
    at its end; here a column's NaN, which the partition sorts last, is
    copied over its median directly.
    """
    half = a.shape[0] // 2
    middle = [half - 1, half] if a.shape[0] % 2 == 0 else [half]
    a.partition([*middle, -1], axis=0)
    median = np.mean(a[middle[0] : half + 1], axis=0)
    np.copyto(median, a[-1], where=np.isnan(a[-1]))
    return median


# The buffer that the spilled distance rows are read back into, one block of
# columns at a time; its size does not depend on the trial count.
_MEDIAN_BLOCK_BYTES = 1 << 17


def _spilled_columns(spill, stops: np.ndarray, k_len: int) -> tuple[np.ndarray, np.ndarray]:
    """mean_dist2 and median_dist of the trials x k_len float64 rows in `spill`.

    Each block of columns is read from every row into one reused buffer of
    _MEDIAN_BLOCK_BYTES (three columns at least).  Its mean of squares over
    the trials that never left the ball (stops == k_len) is taken first,
    NaN where there are none; then _column_medians partitions the block in
    place.  numpy sums a block of two or more columns along axis 0 in row
    order, as it does the whole matrix, but one column pairwise; so the
    blocks come from _row_blocks, which leaves no one-column block unless
    k_len is 1, where the whole matrix is one column too.  A column's
    values thus do not depend on its block: they are the bits of
    (np.stack(rows) ** 2).mean(axis=0) and np.median over the whole matrix.
    """
    trials = len(stops)
    stayed = stops == k_len
    width = max(3, _MEDIAN_BLOCK_BYTES // (8 * trials))
    buf = np.empty(trials * min(k_len, width))
    mean_d2, median_d = np.full(k_len, np.nan), np.empty(k_len)
    for lo, hi in _row_blocks(k_len, width - 1):  # a one-column tail makes a block `width` wide
        block = buf[: trials * (hi - lo)].reshape(trials, hi - lo)
        for t, row in enumerate(block):
            spill.seek(8 * (t * k_len + lo))
            spill.readinto(row)
        if stayed.any():
            mean_d2[lo:hi] = np.mean(np.square(block[stayed]), axis=0)
        median_d[lo:hi] = _column_medians(block)
    return mean_d2, median_d


def _aggregate(cfg: ExperimentConfig, stops: np.ndarray, spill, out: Path) -> dict:
    """Write aggregate.csv; return the summary document, unwritten.

    `stops` is what _run_trials returns, and `spill` the file it wrote the
    distance rows to; both columns are read back from it in one pass
    (_spilled_columns).  mean_dist2 is restricted to trials that never
    left the trust ball (the view the convergence statement is about), and
    its step ratios give the contraction figures; median_dist and
    frac_exited cover all trials, frac_exited from the stopping times alone.
    """
    k_len = cfg.max_iters + 1
    mean_d2, median_d = _spilled_columns(spill, stops, k_len)
    # stops[t] <= k holds for a count of trials that grows with k
    frac_exited_by_k = np.cumsum(np.bincount(stops, minlength=k_len + 1)[:k_len]) / cfg.trials

    from ._csv import write_csv  # imported here, so that set-up does not compile the writer

    write_csv(out / "aggregate.csv", "k,mean_dist2,median_dist,frac_exited",
              (mean_d2, median_d, frac_exited_by_k))

    summary = _sidecar_base(cfg)
    summary.update(
        {
            "trials": cfg.trials,
            "frac_exited": float((stops < k_len).mean()),
            "final_mean_dist2": _finite_or_none(mean_d2[-1]),
            "final_median_dist": _finite_or_none(median_d[-1]),
        }
    )
    if (stops == k_len).any() and cfg.max_iters > 0:
        # mean_dist2 is divided, since the floor scaled down would underflow;
        # the steps it keeps have a positive mean to divide by
        mask = mean_d2[:-1] / cfg.scale**2 > FLOOR_DIST_SQ
        max_ratio = fitted = None
        if mask.any():
            k_eff = int(mask.sum())
            max_ratio = _finite_or_none((mean_d2[1:][mask] / mean_d2[:-1][mask]).max())
            fitted = _finite_or_none((mean_d2[k_eff] / mean_d2[0]) ** (1.0 / k_eff))
        summary.update(
            {
                "max_contraction_ratio": max_ratio,
                "fitted_contraction": fitted,
                "floor_dist2": FLOOR_DIST_SQ * cfg.scale**2,
            }
        )
    return summary


def cmd_trials(cfg: ExperimentConfig) -> int:
    """`solve` or `baseline`: run the trials, then write aggregate.csv and summary.json."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a rerun into a used directory keeps none of the names an earlier run
    # wrote: its summary and aggregate go first, then its traces
    trace = re.compile(r"trace_\d{4,}\.(csv|json)")
    for path in (out / "summary.json", out / "aggregate.csv",
                 *(p for p in out.glob("trace_*") if trace.fullmatch(p.name))):
        path.unlink(missing_ok=True)
    with tempfile.TemporaryFile() as spill:  # unnamed, under TMPDIR
        summary = _aggregate(cfg, _run_trials(cfg, spill), spill, out)
    failure = None
    if cfg.check and cfg.command == "solve":
        rate_bound, exit_bound = 1.0 - RATE_MARGIN / cfg.n, cfg.delta**2
        max_ratio = summary.get("max_contraction_ratio")
        rate_ok = max_ratio is not None and max_ratio <= rate_bound
        exit_ok = summary["frac_exited"] <= exit_bound
        summary["checks"] = {"rate_bound": rate_bound, "rate_ok": rate_ok,
                             "exit_bound": exit_bound, "exit_ok": exit_ok}
        failure = None if rate_ok and exit_ok else "certified bounds violated"
    elif cfg.check:
        bound = MEDIAN_ERROR_REL * cfg.scale
        median = summary["final_median_dist"]
        median_ok = median is not None and median <= bound
        summary["checks"] = {"median_error_bound": bound, "median_ok": median_ok}
        failure = None if median_ok else "median error above bound"
    _write_json(out / "summary.json", summary)
    if failure:
        print(f"{cfg.command}: {failure}", file=sys.stderr)
        return 1
    return 0


def cmd_rsc_scan(cfg: ExperimentConfig) -> int:
    from . import analysis  # imported here: only rsc-scan runs load the margin analysis
    from ._csv import write_csv

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a rerun that fails leaves no verdict of the run before
    for path in (out / "rsc_scan.csv", out / "rsc_scan.json"):
        path.unlink(missing_ok=True)
    stream = RngStream(cfg.seed, 0)
    ensemble, x = _draw(cfg, stream)
    gen = stream.substream(TAG_SCAN).generator()
    xnorm = float(np.linalg.norm(x))

    values = np.empty((4, cfg.samples))  # the columns h_norm, f, D and gamma_hat
    for s, direction in zip(range(cfg.samples), _scan_directions(x, gen)):
        # the structured three sit on the ball, the random ones inside it
        radius = cfg.ball_radius if s < 3 else cfg.ball_radius * (0.1 + 0.9 * gen.random())
        z = x + radius * xnorm * direction
        try:
            sample = analysis.rsc_margin(ensemble, x, z)
        except ValueError as exc:
            raise ValueError(f"rsc-scan sample {s} at radius {radius!r}: {exc}") from exc
        values[:, s] = sample.h_norm, sample.f_value, sample.directional, sample.margin_gamma
    write_csv(out / "rsc_scan.csv", "sample_id,h_norm,f,D,gamma_hat", values)
    min_gamma = min(values[3].tolist(), default=None)  # a NaN wins only as the first sample

    threshold = RATE_MARGIN / cfg.n
    asserted = abs(cfg.ball_radius - 0.01) < 1e-12 and cfg.samples > 0
    doc = _sidecar_base(cfg)
    doc.update(
        {
            "min_gamma": min_gamma,
            "n": cfg.n,
            "m": cfg.m,
            "samples": cfg.samples,
            "threshold": threshold,
            "asserted": asserted,
        }
    )
    status = 0
    if asserted:
        ok = min_gamma is not None and min_gamma >= threshold
        doc["passed"] = bool(ok)
        if not ok:
            print("rsc-scan: margin below threshold", file=sys.stderr)
            status = 1
    _write_json(out / "rsc_scan.json", doc)
    return status


def _verify_reports(cfg: ExperimentConfig) -> list:
    from . import verify  # imported here: only verify runs load the Monte Carlo checks

    stream = RngStream(cfg.seed, 0)
    params = verify.LemmaParams(lam=cfg.lam, sigma=cfg.sigma, delta=cfg.delta)
    scans = {"restricted-ratio": verify.check_restricted_ratio,
             "truncated-moment": verify.check_truncated_moment}
    if cfg.lemma == "F":
        report = verify.mc_F(params, cfg.samples, stream)
        agreement = abs(report.estimate - verify.series_F(params))
        return [report, verify._report("F_vs_series", agreement, 0.0, 3.0 * report.std_error,
                                       verify.Direction.AT_MOST, report.samples)]
    if cfg.lemma == "G":
        return verify.mc_G_reports(params, cfg.samples, stream)
    if cfg.lemma == "covariance":
        return [verify.check_covariance(cfg.n, cfg.m, cfg.delta, cfg.trials, stream)]
    if cfg.lemma in scans:
        return [scans[cfg.lemma](cfg.n, cfg.m, params, cfg.h_samples, stream)]
    raise ValueError(f"unknown lemma selector: {cfg.lemma!r}")


def cmd_verify(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir) if cfg.out_dir else None
    if out is not None:  # made first, so that an unusable --out fails before the estimate
        out.mkdir(parents=True, exist_ok=True)
    reports = _verify_reports(cfg)
    stamp = {"seed": cfg.seed, "generator": GENERATOR_ID, "config_hash": config_hash(cfg)}
    # verify G scores one estimate against two ceilings, closed then loose,
    # and both reports are named G
    stems = ["G", "G_loose"] if cfg.lemma == "G" else [r.name for r in reports]
    for stem, report in zip(stems, reports):
        doc = {**report.to_dict(), **stamp}
        print(json.dumps(doc, sort_keys=True))
        if out is not None:
            _write_json(out / f"report_{stem}.json", doc)
    return 0 if all(report.passed for report in reports) else 1


_COMMANDS = {
    "solve": (cmd_trials, "convergence-rate trials"),
    "baseline": (cmd_trials, "linear row-projection baseline"),
    "rsc-scan": (cmd_rsc_scan, "curvature margin scan in the trust ball"),
    "verify": (cmd_verify, "Monte Carlo bound reports"),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser, which rejects an unknown flag under its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaczpr",
        description="Phaseless row-action solver experiments and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if command == "verify":
            p.add_argument("lemma", choices=_LEMMAS)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for opt in _OPTIONS:
            takes = command in (run.split()[0] for run in opt.runs)  # verify: any lemma's
            if opt.kind is bool:
                kind = dict(action="store_true")
            elif takes:
                kind = dict(type=opt.kind, choices=_for_run(opt.choices, command) or None)
            else:  # read as text: resolve_config rejects it, naming the run
                kind = {}
            if not takes:
                kind["help"] = argparse.SUPPRESS
            p.add_argument(opt.flag, dest=opt.key, default=None, **kind)
    return parser


def resolve_config(command: str, cli_values: dict, config_path: str | None) -> ExperimentConfig:
    """The config of one run: each key it takes from its flag, else its
    config key, else _OPTIONS; other keys at their default.  init comes
    first: solve and baseline also take the rows of their start.  A flag or
    config key the run does not take raises.  m and max_iters are derived
    from n."""
    lemma = cli_values.get("lemma") or ""
    run = f"{command} {lemma}".rstrip()
    loaded = json.loads(Path(config_path).read_text()) if config_path else {}
    if not isinstance(loaded, dict):
        raise ValueError("--config must hold a JSON object")
    for key, val in loaded.items():
        if key not in _BY_KEY:
            raise ValueError(f"config key {key!r} is not allowed: it is a positional argument"
                             if key in ("command", "lemma") else f"unknown config key: {key!r}")
        if val is None:
            raise ValueError(f"config key {key!r} is null; give a value or leave it out")
    values, provided = {}, set()
    for opt in sorted(_OPTIONS, key=lambda opt: opt.key != "init"):
        key = opt.key
        at = f"{run} --init {values.get('init')}" if run in _BY_KEY["init"].runs else run
        takes = run in opt.runs or at in opt.runs
        values[key] = _for_run(opt.default, run)
        for raw, source in ((loaded.get(key), f"config key {key!r}"),
                            (cli_values.get(key), opt.flag)):
            if raw is not None and takes:
                values[key] = opt.coerce(raw, source)
                provided.add(key)
            elif raw is not None:
                raise ValueError(f"{source} is not an option of {at}")

    # an explicit m wins; an explicit m_over_n beats a command's default m
    ratio = values.pop("m_over_n")
    if ratio is not None:
        _BY_KEY["m_over_n"].check(ratio, command)
        if values["m"] is None or ("m_over_n" in provided and "m" not in provided):
            values["m"] = ratio * values["n"]
    if values["max_iters"] is None:
        values["max_iters"] = (50 if command == "baseline" else 40) * values["n"]
    return ExperimentConfig(command=command, lemma=lemma, **values)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    cli_values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    restore_blas = _pin_blas()  # restored on return, for in-process callers
    try:
        cfg = resolve_config(args.command, cli_values, args.config)
        return _COMMANDS[args.command][0](cfg)
    except (ValueError, OSError) as exc:
        print(f"kaczpr: {exc}", file=sys.stderr)
        return 2
    finally:
        restore_blas()


if __name__ == "__main__":
    sys.exit(main())
