"""Reproducible experiment harness.

Subcommands: solve | rsc-scan | verify | baseline.  Every run is a pure
function of its resolved configuration; all randomness flows from --seed
through per-trial streams (stream_id = trial index) and purpose substreams.
Value precedence is CLI flag > KACZPR_* environment variable > --config
JSON > built-in default.  A run (a command, or verify and one lemma) rejects
a flag or config key that its rows of _OPTIONS do not name, and ignores such
a KACZPR_* variable.  Serial and threaded runs produce identical bytes:
workers are deterministic per trial and aggregation happens in trial order.

Artifacts are plot-ready CSVs plus JSON sidecars; each sidecar embeds the
seed, the generator identifier, and a hash of the resolved configuration,
so any output can be regenerated from its sidecar alone.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import analysis
from .initializers import (
    InitConfig,
    default_norm_model,
    planted_init,
    real_overlap_direction,
    spectral_init,
)
from .kaczmarz import SolverConfig, SolverTrace, run_linear, run_pr
from .rng import GENERATOR_ID, RngStream, complex_standard_normal
from .sampling import Model, make_ensemble, measure
from .verify import (
    Direction,
    LemmaParams,
    _report,
    check_covariance,
    check_restricted_ratio,
    check_truncated_moment,
    mc_F,
    mc_G_reports,
    series_F,
)

SCHEMA_VERSION = 1
ENV_PREFIX = "KACZPR_"

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
    """Resolved settings for one harness run."""

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
    threads: int = 1
    serial: bool = False
    scale: float = 1.0
    ball_radius: float = 0.01
    samples: int = 1000
    h_samples: int = 500
    lam: float = 3.0
    sigma: float = 0.0
    lemma: str = ""
    check: bool = False
    allow_radius_override: bool = False

    def __post_init__(self):
        for opt in _OPTIONS:
            if opt.key != "m_over_n":  # no field: resolve_config turns it into m
                opt.check(getattr(self, opt.key), self.command)
        run = f"{self.command} {self.lemma}".rstrip()
        for rule_run, key, test, text in _RUN_RULES:
            if rule_run == run and not test(getattr(self, key)):
                raise ValueError(f"{_FLAGS[key]} must {text} for {run}")
        # the exit-probability bound holds only for starts within 0.01 * delta
        if run == "solve" and self.init == "planted" and not self.allow_radius_override:
            if self.planted_radius > 0.01 * self.delta + 1e-15:
                raise ValueError(
                    f"{_FLAGS['planted_radius']} exceeds 0.01 * {_FLAGS['delta']}; pass "
                    f"{_FLAGS['allow_radius_override']} to run outside the certified regime"
                )


def _for_command(value, command: str):
    """`value`, or its entry for `command` where it is a {command: value} dict."""
    return value.get(command) if isinstance(value, dict) else value


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
    """One setting, read from its flag, its KACZPR_* variable or its config key."""

    key: str  # the ExperimentConfig field, the config key and the variable's suffix
    kind: type  # int, float, bool or str
    flag: str
    runs: tuple  # the runs that read the key; the rest keep its default
    default: object = None  # or {command: value}; None keeps the field's default or derives it
    valid: tuple | None = None  # a (test, text) pair; every test fails on NaN
    choices: tuple | dict = ()  # the allowed strings, or {command: strings}

    def check(self, value, command: str) -> None:
        """Reject an out-of-range value, naming the flag."""
        names = _for_command(self.choices, command)
        if names and value not in names:
            per = f" for {command}" if isinstance(self.choices, dict) else ""
            raise ValueError(f"{self.flag} must be one of {', '.join(names)}{per}, got {value!r}")
        if self.valid is not None and not self.valid[0](value):
            raise ValueError(f"{self.flag} must {self.valid[1]}, got {value!r}")

    def coerce(self, value, source: str):
        """Convert a raw config-file or environment value; `source` names it in errors."""
        if value is None:
            raise ValueError(f"{source} is null; give a value or leave it out")
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
    _Option("threads", int, "--threads", _SOLVERS, None, _within(1)),
    _Option("serial", bool, "--serial", _SOLVERS),
    _Option("n", int, "--n", _SIZED, {"solve": 128, "baseline": 32, "rsc-scan": 64, "verify": 16},
            _within(1)),
    _Option("m", int, "--m", _SIZED, {"baseline": 512, "verify": 1024}, _within(1)),
    # no field: resolve_config sets m to it times n, unless m is explicit
    _Option("m_over_n", int, "--m-over-n", _SIZED, {"solve": 8, "rsc-scan": 16}, _within(1)),
    _Option("trials", int, "--trials", (*_SOLVERS, "verify covariance"),
            {"solve": 200, "baseline": 50, "rsc-scan": 1, "verify": 50}, _within(1)),
    _Option("max_iters", int, "--max-iters", _SOLVERS, None, _within(0)),
    _Option("delta", float, "--delta", ("solve", "verify covariance", *_SCANS),
            {"solve": 0.5, "baseline": 1.0, "rsc-scan": 0.5, "verify": 0.5},
            (lambda v: 0.0 < v <= 1.0, "lie in (0, 1]")),
    _Option("model", str, "--model", _DRAWN, "sphere", choices=tuple(m.value for m in Model)),
    # squared distances up to (2 * scale)^2 must stay representable
    _Option("scale", float, "--scale", _DRAWN, None, _within(MIN_SCALE, MAX_SCALE)),
    _Option("init", str, "--init", _SOLVERS,
            {"solve": "planted", "baseline": "zero", "rsc-scan": "planted", "verify": "planted"},
            choices={"solve": ("planted", "spectral"), "baseline": ("zero", "planted")}),
    _Option("planted_radius", float, "--radius", _SOLVERS,
            {"solve": 0.005, "baseline": 0.0, "rsc-scan": 0.0, "verify": 0.0},
            (lambda v: 0.0 <= v < math.inf, "be finite and at least 0")),
    _Option("lam", float, "--lambda", (*_SCALARS, *_SCANS), None, (math.isfinite, "be finite")),
    _Option("sigma", float, "--sigma", _SCALARS, None, _within(-1.0, 1.0)),
    _Option("samples", int, "--samples", ("rsc-scan", *_SCALARS), {"verify": 10**6}, _within(0)),
    _Option("ball_radius", float, "--ball", ("solve", "rsc-scan"), None, _within(0.0, 1.0)),
    _Option("h_samples", int, "--h-samples", _SCANS, None, _within(1)),
    _Option("check", bool, "--check", _SOLVERS),
    _Option("allow_radius_override", bool, "--allow-radius-override", ("solve",)),
)
_BY_KEY = {opt.key: opt for opt in _OPTIONS}
_FLAGS = {opt.key: opt.flag for opt in _OPTIONS}

# Ranges that differ between the runs that take an option, which the option
# table cannot state: rows of (run, key, test, text), checked in order.  The
# regimes of lam and sigma restate the library's own domain checks, so that a
# rejection names the flag.
_RUN_RULES = (
    ("verify F", "samples", *_within(1)),
    ("verify G", "samples", *_within(1)),
    ("verify F", "lam", lambda lam: lam >= 2.95, "be at least 2.95"),
    ("verify G", "lam", lambda lam: 0.0 <= lam <= 0.4, "be in [0, 0.4]"),
    ("verify restricted-ratio", "lam", lambda lam: lam >= 3.0, "be at least 3"),
    ("verify truncated-moment", "lam", lambda lam: 0.0 < lam <= 0.4, "be in (0, 0.4]"),
    ("verify F", "sigma", lambda sigma: -1.0 < sigma < 1.0, "lie in (-1, 1)"),
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


def _fmt(value: float) -> str:
    return repr(float(value))


def _finite_or_none(value: float) -> float | None:
    value = float(value)
    return value if np.isfinite(value) else None


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


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
    gen = stream.substream(TAG_SIGNAL).generator()
    while True:
        xi = complex_standard_normal(cfg.n, gen)
        norm = np.linalg.norm(xi)
        if norm > 0.0:
            return ensemble, cfg.scale * xi / norm


def _trial(cfg: ExperimentConfig, trial: int) -> SolverTrace:
    """One trial of `solve` (phaseless rows) or `baseline` (linear rows)."""
    stream = RngStream(cfg.seed, trial)
    ensemble, x = _draw(cfg, stream)
    if cfg.command == "solve":
        rhs, solver = measure(ensemble, x), run_pr
    else:
        rhs, solver = ensemble.rows.conj() @ x, run_linear  # consistent by construction
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
    """What _run_trials keeps of one trial; all a pool worker sends back."""

    dist: np.ndarray
    stopping_time: int | None


def _write_trace(cfg: ExperimentConfig, t: int, trace: SolverTrace, config_hash: str) -> None:
    """Write trial t's trace_NNNN.csv and its .json sidecar."""
    stem = Path(cfg.out_dir) / f"trace_{t:04d}"
    trace.to_csv(stem.with_suffix(".csv"))
    doc = trace.sidecar()
    doc.update(
        {
            "schema_version": SCHEMA_VERSION,
            "config_hash": config_hash,
            "root_seed": cfg.seed,
            "trial": t,
        }
    )
    _write_json(stem.with_suffix(".json"), doc)


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


def _pool_entry(args) -> TrialResult:
    _pin_blas()  # a worker started by fork inherits the pin, one by forkserver does not
    cfg, trial, digest = args
    trace = _trial(cfg, trial)
    _write_trace(cfg, trial, trace, digest)
    return TrialResult(trace.dist, trace.stopping_time)


# Budget of finished traces a serial run holds between write bursts: 8 traces
# at n = 128 and 40n steps.
_WRITE_BURST_BYTES = 1 << 20


def _run_trials(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Run every trial and write its trace files.

    Returns the trials x (max_iters + 1) distance matrix and each trial's
    stopping time, max_iters + 1 for a trial that never left the ball;
    nothing else of a trial is kept.  Pool workers write their own traces
    and return a TrialResult.  The serial path holds finished traces up to
    _WRITE_BURST_BYTES and then writes them in one burst: on a 2-core Linux
    host, creating a file right after a stretch of compute cost 2-3x more
    than creating it in a burst, and writing each trace after its trial
    made `baseline` about 9% slower.  A failing trial raises, possibly
    after other trials' traces are on disk; aggregate.csv and summary.json
    are written only after every trial has run.
    """
    digest = config_hash(cfg)
    k_len = cfg.max_iters + 1
    dists = np.empty((cfg.trials, k_len))
    stops = np.full(cfg.trials, k_len)

    def keep(t: int, result) -> None:
        dists[t] = result.dist
        if result.stopping_time is not None:
            stops[t] = result.stopping_time

    if cfg.serial or cfg.threads == 1 or cfg.trials <= 1:
        # rows (int64), abs_az and dist: 8 bytes per step each
        burst = max(1, _WRITE_BURST_BYTES // (8 * (3 * cfg.max_iters + 1)))
        held = {}
        for t in range(cfg.trials):
            held[t] = trace = _trial(cfg, t)
            keep(t, trace)
            if len(held) == burst or t == cfg.trials - 1:
                for s, done in held.items():
                    _write_trace(cfg, s, done, digest)
                held.clear()
        return dists, stops
    jobs = [(cfg, t, digest) for t in range(cfg.trials)]
    with ProcessPoolExecutor(max_workers=min(cfg.threads, cfg.trials)) as pool:
        for t, result in enumerate(pool.map(_pool_entry, jobs)):
            keep(t, result)
    return dists, stops


def _aggregate(cfg: ExperimentConfig, dists: np.ndarray, stops: np.ndarray, out: Path) -> dict:
    """Write aggregate.csv; return the summary document, unwritten.

    `dists` and `stops` are what _run_trials returns; the median is taken
    in place, so `dists` is overwritten.  mean_dist2 is restricted to
    trials that never left the trust ball (the view the convergence
    statement is about); median_dist and frac_exited cover all trials.
    """
    k_len = cfg.max_iters + 1
    exited = stops < k_len
    surviving = np.flatnonzero(~exited)
    if surviving.size:
        mean_d2, ratios = analysis._mean_dist_sq([dists[t] for t in surviving])
    else:
        mean_d2 = np.full(k_len, np.nan)
    median_d = np.median(dists, axis=0, overwrite_input=True)
    # stops[t] <= k holds for a count of trials that grows with k
    frac_exited_by_k = np.cumsum(np.bincount(stops, minlength=k_len + 1)[:k_len]) / cfg.trials

    columns = (map(repr, col.tolist()) for col in (mean_d2, median_d, frac_exited_by_k))
    body = map("{},{},{},{}\n".format, range(k_len), *columns)
    (out / "aggregate.csv").write_text("k,mean_dist2,median_dist,frac_exited\n" + "".join(body))

    summary = _sidecar_base(cfg)
    summary.update(
        {
            "trials": cfg.trials,
            "frac_exited": float(exited.mean()),
            "final_mean_dist2": _finite_or_none(mean_d2[-1]),
            "final_median_dist": _finite_or_none(median_d[-1]),
        }
    )
    if surviving.size and cfg.max_iters > 0:
        # mean_dist2 is divided, since the floor scaled down would underflow
        mask = mean_d2[:-1] / cfg.scale**2 > FLOOR_DIST_SQ
        max_ratio = fitted = None
        if mask.any():
            k_eff = int(mask.sum())
            max_ratio = _finite_or_none(ratios[mask].max())
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
    summary = _aggregate(cfg, *_run_trials(cfg), out)
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
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stream = RngStream(cfg.seed, 0)
    ensemble, x = _draw(cfg, stream)
    gen = stream.substream(TAG_SCAN).generator()
    xnorm = float(np.linalg.norm(x))
    xhat = x / xnorm

    lines = ["sample_id,h_norm,f,D,gamma_hat"]
    min_gamma = None
    for s in range(cfg.samples):
        if s == 0:
            direction, radius = xhat, cfg.ball_radius
        elif s == 1:
            direction, radius = -xhat, cfg.ball_radius
        elif s == 2:
            while True:
                u = complex_standard_normal(cfg.n, gen)
                u = u - np.vdot(xhat, u) * xhat
                norm = np.linalg.norm(u)
                if norm > 0.0:
                    break
            direction, radius = u / norm, cfg.ball_radius
        else:
            direction = real_overlap_direction(x, gen)
            radius = cfg.ball_radius * (0.1 + 0.9 * gen.random())
        z = x + radius * xnorm * direction
        sample = analysis.rsc_margin(ensemble, x, z)
        gamma = sample.margin_gamma
        min_gamma = gamma if min_gamma is None else min(min_gamma, gamma)
        lines.append(
            f"{s},{_fmt(sample.h_norm)},{_fmt(sample.f_value)},"
            f"{_fmt(sample.directional)},{_fmt(gamma)}"
        )
    (out / "rsc_scan.csv").write_text("\n".join(lines) + "\n")

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
    stream = RngStream(cfg.seed, 0)
    name = cfg.lemma
    if name == "F":
        params = LemmaParams(lam=cfg.lam, sigma=cfg.sigma)
        report = mc_F(params, cfg.samples, stream)
        agreement = abs(report.estimate - series_F(params))
        agree_report = _report("F_vs_series", agreement, 0.0, 3.0 * report.std_error,
                               Direction.AT_MOST, report.samples)
        return [report, agree_report]
    if name == "G":
        params = LemmaParams(lam=cfg.lam, sigma=cfg.sigma)
        return mc_G_reports(params, cfg.samples, stream)
    if name == "covariance":
        return [check_covariance(cfg.n, cfg.m, cfg.delta, cfg.trials, stream)]
    if name == "restricted-ratio":
        params = LemmaParams(lam=cfg.lam, delta=cfg.delta)
        return [check_restricted_ratio(cfg.n, cfg.m, params, cfg.h_samples, stream)]
    if name == "truncated-moment":
        params = LemmaParams(lam=cfg.lam, delta=cfg.delta)
        return [check_truncated_moment(cfg.n, cfg.m, params, cfg.h_samples, stream)]
    raise ValueError(f"unknown lemma selector: {name!r}")


def cmd_verify(cfg: ExperimentConfig) -> int:
    reports = _verify_reports(cfg)
    stamp = {"seed": cfg.seed, "generator": GENERATOR_ID, "config_hash": config_hash(cfg)}
    out = Path(cfg.out_dir) if cfg.out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    # verify G scores one estimate against two ceilings, closed then loose,
    # and both reports are named G
    stems = ["G", "G_loose"] if cfg.lemma == "G" else [r.name for r in reports]
    all_passed = True
    for stem, report in zip(stems, reports):
        doc = report.to_dict()
        doc.update(stamp)
        print(json.dumps(doc, sort_keys=True))
        if out is not None:
            _write_json(out / f"report_{stem}.json", doc)
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


_COMMANDS = {
    "solve": (cmd_trials, "convergence-rate trials"),
    "baseline": (cmd_trials, "linear row-projection baseline"),
    "rsc-scan": (cmd_rsc_scan, "curvature margin scan in the trust ball"),
    "verify": (cmd_verify, "Monte Carlo bound reports"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaczpr",
        description="Phaseless row-action solver experiments and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        if command == "verify":
            p.add_argument("lemma", choices=_LEMMAS)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        for opt in _OPTIONS:
            if command not in (run.split()[0] for run in opt.runs):  # verify: any lemma's
                continue
            if opt.kind is bool:
                p.add_argument(opt.flag, dest=opt.key, action="store_true", default=None)
            else:
                p.add_argument(opt.flag, dest=opt.key, type=opt.kind, default=None,
                               choices=_for_command(opt.choices, command) or None)
    return parser


def resolve_config(command: str, cli_values: dict, config_path: str | None) -> ExperimentConfig:
    lemma = cli_values.get("lemma") or ""
    run = f"{command} {lemma}".rstrip()
    taken = {opt.key for opt in _OPTIONS if run in opt.runs}
    values = {opt.key: _for_command(opt.default, command) for opt in _OPTIONS}
    provided = set()
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        if not isinstance(loaded, dict):
            raise ValueError("--config must hold a JSON object")
        for key, val in loaded.items():
            if key in ("command", "lemma"):
                raise ValueError(f"config key {key!r} is not allowed: it is a positional argument")
            if key not in taken:
                raise ValueError(f"config key {key!r} is not an option of {run}" if key in values
                                 else f"unknown config key: {key!r}")
            values[key] = _BY_KEY[key].coerce(val, f"config key {key!r}")
            provided.add(key)
    for opt in _OPTIONS:
        name = ENV_PREFIX + opt.key.upper()
        if opt.key in taken and name in os.environ:  # variables carry across runs
            values[opt.key] = opt.coerce(os.environ[name], name)
            provided.add(opt.key)
    for key, val in cli_values.items():
        if val is not None and key in values:
            if key not in taken:
                raise ValueError(f"{_FLAGS[key]} is not an option of {run}")
            values[key] = val
            provided.add(key)

    # an explicit m wins; an explicit m_over_n beats a command's default m
    ratio = values.pop("m_over_n")
    if ratio is not None:
        _BY_KEY["m_over_n"].check(ratio, command)
        if values["m"] is None or ("m_over_n" in provided and "m" not in provided):
            values["m"] = ratio * values["n"]
    if values["max_iters"] is None:
        values["max_iters"] = (50 if command == "baseline" else 40) * values["n"]
    given = {key: val for key, val in values.items() if val is not None}
    return ExperimentConfig(command=command, lemma=lemma, **given)


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
