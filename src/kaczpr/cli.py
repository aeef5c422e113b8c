"""Reproducible experiment harness.

Subcommands: solve | rsc-scan | verify | baseline.  Every run is a pure
function of its resolved configuration; all randomness flows from --seed
through per-trial streams (stream_id = trial index) and purpose substreams.
Value precedence is CLI flag > KACZPR_* environment variable > --config
JSON > built-in default.  Serial and threaded runs produce identical bytes:
workers are deterministic per trial and aggregation happens in trial order.

Artifacts are plot-ready CSVs plus JSON sidecars; each sidecar embeds the
seed, the generator identifier, and a hash of the resolved configuration,
so any output can be regenerated from its sidecar alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

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
    LemmaReport,
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

FLOOR_DIST_SQ = 1e-24
RATE_MARGIN = 0.03  # certified per-step decrement is RATE_MARGIN / n
MIN_SCALE, MAX_SCALE = 1e-150, 1e150

# the --lambda regime of each verify lemma that reads it (the library's own
# domain checks, restated so that a rejection names the flag)
_LAMBDA_REGIMES = {
    "F": (lambda lam: lam >= 2.95, "at least 2.95"),
    "G": (lambda lam: 0.0 <= lam <= 0.4, "in [0, 0.4]"),
    "restricted-ratio": (lambda lam: lam >= 3.0, "at least 3"),
    "truncated-moment": (lambda lam: 0.0 < lam <= 0.4, "in (0, 0.4]"),
}


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
        if self.n < 1 or self.trials < 0 or self.max_iters < 0:
            raise ValueError("counts must be positive")
        if self.m < 1:
            raise ValueError("--m must be at least 1")
        if self.command in ("solve", "baseline") and self.trials < 1:
            raise ValueError("need at least one trial")
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.threads < 1:
            raise ValueError("--threads must be at least 1")
        if self.samples < 0:
            raise ValueError("--samples must be nonnegative")
        # squared distances up to (2 * scale)^2 must stay representable
        if not MIN_SCALE <= self.scale <= MAX_SCALE:
            raise ValueError(f"--scale must be finite and lie in [{MIN_SCALE:g}, {MAX_SCALE:g}]")
        if self.command in ("solve",) and self.init == "planted":
            if self.planted_radius > 0.01 * self.delta + 1e-15 and not self.allow_radius_override:
                raise ValueError(
                    "planted radius exceeds 0.01 * delta; pass --allow-radius-override "
                    "to run outside the certified regime"
                )
        if self.command == "verify" and self.lemma in _LAMBDA_REGIMES:
            in_regime, text = _LAMBDA_REGIMES[self.lemma]
            if not in_regime(self.lam):
                raise ValueError(f"--lambda must be {text} for verify {self.lemma}")
            if not -1.0 <= self.sigma <= 1.0:
                raise ValueError("--sigma must lie in [-1, 1]")
        Model.parse(self.model)
        if self.init not in ("planted", "spectral", "zero"):
            raise ValueError(f"unknown init: {self.init!r}")


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


def _make_signal(cfg: ExperimentConfig, trial_stream: RngStream) -> np.ndarray:
    gen = trial_stream.substream(TAG_SIGNAL).generator()
    while True:
        xi = complex_standard_normal(cfg.n, gen)
        norm = np.linalg.norm(xi)
        if norm > 0.0:
            return cfg.scale * xi / norm


def _solve_trial(cfg: ExperimentConfig, trial: int) -> SolverTrace:
    stream = RngStream(cfg.seed, trial)
    model = Model.parse(cfg.model)
    ensemble = make_ensemble(cfg.m, cfg.n, model, stream.substream(TAG_ENSEMBLE))
    x = _make_signal(cfg, stream)
    b = measure(ensemble, x)
    if cfg.init == "planted":
        z0 = planted_init(x, cfg.planted_radius, stream.substream(TAG_INIT))
    else:
        z0 = spectral_init(
            ensemble,
            b,
            InitConfig(norm_estimate=default_norm_model(model)),
            stream.substream(TAG_INIT),
        )
    solver_cfg = SolverConfig(max_iters=cfg.max_iters, ball_radius_rel=cfg.ball_radius)
    return run_pr(ensemble, b, z0, solver_cfg, stream.substream(TAG_ROWS), truth=x)


def _baseline_trial(cfg: ExperimentConfig, trial: int) -> SolverTrace:
    stream = RngStream(cfg.seed, trial)
    model = Model.parse(cfg.model)
    ensemble = make_ensemble(cfg.m, cfg.n, model, stream.substream(TAG_ENSEMBLE))
    x = _make_signal(cfg, stream)
    y = ensemble.rows.conj() @ x  # consistent by construction
    if cfg.init == "planted":
        z0 = planted_init(x, cfg.planted_radius, stream.substream(TAG_INIT))
    else:
        z0 = np.zeros(cfg.n, dtype=np.complex128)
    solver_cfg = SolverConfig(max_iters=cfg.max_iters, ball_radius_rel=cfg.ball_radius)
    return run_linear(ensemble, y, z0, solver_cfg, stream.substream(TAG_ROWS), truth=x)


_TRIAL_RUNNERS = {"solve": _solve_trial, "baseline": _baseline_trial}


class TrialResult(NamedTuple):
    """What _aggregate reads of one trial; all a pool worker sends back."""

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


def _pool_entry(args) -> TrialResult:
    cfg, trial, digest = args
    trace = _TRIAL_RUNNERS[cfg.command](cfg, trial)
    _write_trace(cfg, trial, trace, digest)
    return TrialResult(trace.dist, trace.stopping_time)


def _run_trials(cfg: ExperimentConfig) -> list:
    """Run every trial and write its trace files; return the trials in order.

    Pool workers write their own traces and return a TrialResult.  The
    serial path runs every trial before writing any: on a 2-core Linux host,
    creating a file right after a stretch of compute cost 2-3x more than
    creating it in a burst, and interleaving made `baseline` about 9%
    slower.  A failing trial raises, possibly after other trials' traces
    are on disk; only _aggregate writes aggregate.csv and summary.json.
    """
    digest = config_hash(cfg)
    if cfg.serial or cfg.threads == 1 or cfg.trials <= 1:
        traces = [_TRIAL_RUNNERS[cfg.command](cfg, t) for t in range(cfg.trials)]
        for t, trace in enumerate(traces):
            _write_trace(cfg, t, trace, digest)
        return traces
    jobs = [(cfg, t, digest) for t in range(cfg.trials)]
    with ProcessPoolExecutor(max_workers=min(cfg.threads, cfg.trials)) as pool:
        return list(pool.map(_pool_entry, jobs))


def _aggregate(cfg: ExperimentConfig, trials: list, out: Path) -> dict:
    """Write aggregate.csv and summary.json; return the summary document.

    Reads only .dist and .stopping_time of each trial (a SolverTrace or a
    TrialResult).  mean_dist2 is restricted to trials that never left the
    trust ball (the view the convergence statement is about); median_dist
    and frac_exited cover all trials.
    """
    k_len = cfg.max_iters + 1
    dists = np.stack([t.dist for t in trials])
    exited = np.array([t.stopping_time is not None for t in trials])
    stop = np.array(
        [t.stopping_time if t.stopping_time is not None else k_len for t in trials]
    )
    surviving = ~exited
    if surviving.any():
        mean_d2, ratios = analysis._mean_dist_sq(dists[surviving] ** 2)
    else:
        mean_d2 = np.full(k_len, np.nan)
    median_d = np.median(dists, axis=0)
    k_axis = np.arange(k_len)
    frac_exited_by_k = (stop[None, :] <= k_axis[:, None]).mean(axis=1)

    columns = (map(repr, col.tolist()) for col in (mean_d2, median_d, frac_exited_by_k))
    body = map("{},{},{},{}\n".format, range(k_len), *columns)
    (out / "aggregate.csv").write_text("k,mean_dist2,median_dist,frac_exited\n" + "".join(body))

    frac_exited = float(exited.mean())
    summary = _sidecar_base(cfg)
    summary.update(
        {
            "trials": cfg.trials,
            "frac_exited": frac_exited,
            "final_mean_dist2": _finite_or_none(mean_d2[-1]),
            "final_median_dist": _finite_or_none(median_d[-1]),
        }
    )
    if surviving.any() and cfg.max_iters > 0:
        mask = mean_d2[:-1] > FLOOR_DIST_SQ
        if mask.any():
            max_ratio = _finite_or_none(ratios[mask].max())
            k_eff = int(mask.sum())
            fitted = _finite_or_none((mean_d2[k_eff] / mean_d2[0]) ** (1.0 / k_eff))
        else:
            max_ratio = None
            fitted = None
        summary.update(
            {
                "max_contraction_ratio": max_ratio,
                "fitted_contraction": fitted,
                "floor_dist2": FLOOR_DIST_SQ,
            }
        )
    _write_json(out / "summary.json", summary)
    return summary


def cmd_solve(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = _aggregate(cfg, _run_trials(cfg), out)
    status = 0
    if cfg.check:
        rate_bound = 1.0 - RATE_MARGIN / cfg.n
        exit_bound = cfg.delta**2
        max_ratio = summary.get("max_contraction_ratio")
        ok_rate = max_ratio is not None and max_ratio <= rate_bound
        ok_exit = summary["frac_exited"] <= exit_bound
        summary["checks"] = {
            "rate_bound": rate_bound,
            "rate_ok": bool(ok_rate),
            "exit_bound": exit_bound,
            "exit_ok": bool(ok_exit),
        }
        _write_json(out / "summary.json", summary)
        if not (ok_rate and ok_exit):
            print("solve: certified bounds violated", file=sys.stderr)
            status = 1
    return status


def cmd_baseline(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = _aggregate(cfg, _run_trials(cfg), out)
    status = 0
    if cfg.check:
        median = summary["final_median_dist"]
        ok = median is not None and median <= 1e-10
        summary["checks"] = {"median_error_bound": 1e-10, "median_ok": bool(ok)}
        _write_json(out / "summary.json", summary)
        if not ok:
            print("baseline: median error above bound", file=sys.stderr)
            status = 1
    return status


def cmd_rsc_scan(cfg: ExperimentConfig) -> int:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stream = RngStream(cfg.seed, 0)
    model = Model.parse(cfg.model)
    ensemble = make_ensemble(cfg.m, cfg.n, model, stream.substream(TAG_ENSEMBLE))
    x = _make_signal(cfg, stream)
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
            u = complex_standard_normal(cfg.n, gen)
            u = u - np.vdot(xhat, u) * xhat
            norm = np.linalg.norm(u)
            while norm == 0.0:
                u = complex_standard_normal(cfg.n, gen)
                u = u - np.vdot(xhat, u) * xhat
                norm = np.linalg.norm(u)
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
        series = series_F(params)
        agreement = abs(report.estimate - series)
        agree_report = LemmaReport(
            name="F_vs_series",
            estimate=agreement,
            std_error=0.0,
            bound=3.0 * report.std_error,
            direction=Direction.AT_MOST,
            samples=report.samples,
            passed=agreement <= 3.0 * report.std_error,
        )
        return [report, agree_report]
    if name == "G":
        params = LemmaParams(lam=cfg.lam, sigma=cfg.sigma)
        return mc_G_reports(params, cfg.samples, stream, bounds=("closed", "loose"))
    if name == "covariance":
        return [check_covariance(cfg.n, cfg.m, cfg.delta, cfg.trials, stream)]
    if name == "restricted-ratio":
        params = LemmaParams(lam=cfg.lam, sigma=cfg.sigma, delta=cfg.delta)
        return [check_restricted_ratio(cfg.n, cfg.m, params, cfg.h_samples, stream)]
    if name == "truncated-moment":
        params = LemmaParams(lam=cfg.lam, sigma=cfg.sigma, delta=cfg.delta)
        return [check_truncated_moment(cfg.n, cfg.m, params, cfg.h_samples, stream)]
    raise ValueError(f"unknown lemma selector: {name!r}")


def cmd_verify(cfg: ExperimentConfig) -> int:
    reports = _verify_reports(cfg)
    base = _sidecar_base(cfg)
    out = Path(cfg.out_dir) if cfg.out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    all_passed = True
    for report in reports:
        doc = report.to_dict()
        doc.update({"seed": cfg.seed, "generator": GENERATOR_ID, "config_hash": base["config_hash"]})
        print(json.dumps(doc, sort_keys=True))
        if out is not None:
            _write_json(out / f"report_{report.name}.json", doc)
        all_passed = all_passed and report.passed
    return 0 if all_passed else 1


_COMMANDS = {
    "solve": cmd_solve,
    "baseline": cmd_baseline,
    "rsc-scan": cmd_rsc_scan,
    "verify": cmd_verify,
}

_DEFAULTS = {
    "solve": dict(
        n=128, m_over_n=8, model="sphere", trials=200, init="planted",
        planted_radius=0.005, delta=0.5, seed=7, out_dir="results/solve",
    ),
    "baseline": dict(
        n=32, m=512, model="sphere", trials=50, init="zero",
        planted_radius=0.0, delta=1.0, seed=7, out_dir="results/baseline",
    ),
    "rsc-scan": dict(
        n=64, m_over_n=16, model="sphere", trials=1, samples=1000,
        delta=0.5, seed=7, out_dir="results/rsc_scan", init="planted",
        planted_radius=0.0,
    ),
    "verify": dict(
        n=16, m=1024, model="sphere", trials=50, samples=10**6,
        h_samples=500, delta=0.5, seed=7, out_dir="", lam=3.0, sigma=0.0,
        init="planted", planted_radius=0.0,
    ),
}

_INT_KEYS = {"n", "m", "m_over_n", "trials", "max_iters", "seed", "threads", "samples", "h_samples"}
_FLOAT_KEYS = {"planted_radius", "delta", "scale", "ball_radius", "lam", "sigma"}
_BOOL_KEYS = {"serial", "check", "allow_radius_override"}
_STR_KEYS = {"model", "init", "out_dir"}
_TRUE_TEXT, _FALSE_TEXT = ("1", "true", "yes", "on"), ("", "0", "false", "no", "off")
# positional on the command line, so never read from a config file
_POSITIONAL_KEYS = ("command", "lemma")


def _as_int(value) -> int:
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError
    return int(value)


def _as_float(value) -> float:
    if isinstance(value, bool):
        raise ValueError
    return float(value)


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).lower()
    if text not in _TRUE_TEXT + _FALSE_TEXT:
        raise ValueError
    return text in _TRUE_TEXT


def _as_str(value) -> str:
    if not isinstance(value, str):
        raise ValueError
    return value


def _coerce(key: str, value, source: str):
    """Convert one raw value from a config file or the environment.

    `source` names where the value came from, for the error message.
    """
    if value is None:
        raise ValueError(f"{source} is null; give a value or leave it out")
    if key in _INT_KEYS:
        convert, kind = _as_int, "an integer"
    elif key in _FLOAT_KEYS:
        convert, kind = _as_float, "a number"
    elif key in _BOOL_KEYS:
        convert, kind = _as_bool, "a boolean"
    else:
        convert, kind = _as_str, "a string"
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{source} must be {kind}, got {value!r}") from None


def _env_overrides() -> dict:
    found = {}
    for key in _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | _STR_KEYS:
        name = ENV_PREFIX + key.upper()
        raw = os.environ.get(name)
        if raw is not None:
            found[key] = _coerce(key, raw, name)
    return found


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", type=str, default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", dest="out_dir", type=str, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--serial", action="store_true", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--m-over-n", dest="m_over_n", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--model", choices=["sphere", "gaussian"], default=None)
    p.add_argument("--scale", type=float, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaczpr",
        description="Phaseless row-action solver experiments and bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="convergence-rate trials")
    _add_common(p_solve)
    p_solve.add_argument("--init", choices=["planted", "spectral"], default=None)
    p_solve.add_argument("--radius", dest="planted_radius", type=float, default=None)
    p_solve.add_argument("--ball", dest="ball_radius", type=float, default=None)
    p_solve.add_argument("--check", action="store_true", default=None)
    p_solve.add_argument("--allow-radius-override", action="store_true", default=None,
                         dest="allow_radius_override")

    p_base = sub.add_parser("baseline", help="linear row-projection baseline")
    _add_common(p_base)
    p_base.add_argument("--init", choices=["zero", "planted"], default=None)
    p_base.add_argument("--radius", dest="planted_radius", type=float, default=None)
    p_base.add_argument("--check", action="store_true", default=None)

    p_scan = sub.add_parser("rsc-scan", help="curvature margin scan in the trust ball")
    _add_common(p_scan)
    p_scan.add_argument("--samples", type=int, default=None)
    p_scan.add_argument("--ball", dest="ball_radius", type=float, default=None)

    p_ver = sub.add_parser("verify", help="Monte Carlo bound reports")
    p_ver.add_argument("lemma", choices=["F", "G", "covariance", "restricted-ratio", "truncated-moment"])
    _add_common(p_ver)
    p_ver.add_argument("--lambda", dest="lam", type=float, default=None)
    p_ver.add_argument("--sigma", type=float, default=None)
    p_ver.add_argument("--samples", type=int, default=None)
    p_ver.add_argument("--h-samples", dest="h_samples", type=int, default=None)

    return parser


def resolve_config(command: str, cli_values: dict, config_path: str | None) -> ExperimentConfig:
    values = dict(
        command=command, n=64, m=None, m_over_n=None, model="sphere", trials=1,
        max_iters=None, init="planted", planted_radius=0.005, delta=0.5, seed=0,
        out_dir="results", threads=1, serial=False, scale=1.0, ball_radius=0.01,
        samples=1000, h_samples=500, lam=3.0, sigma=0.0, lemma="", check=False,
        allow_radius_override=False,
    )
    values.update(_DEFAULTS[command])
    provided = set()
    if config_path:
        loaded = json.loads(Path(config_path).read_text())
        if not isinstance(loaded, dict):
            raise ValueError("--config must hold a JSON object")
        for key, val in loaded.items():
            if key not in values:
                raise ValueError(f"unknown config key: {key!r}")
            if key in _POSITIONAL_KEYS:
                raise ValueError(f"config key {key!r} is not allowed: it is a positional argument")
            values[key] = _coerce(key, val, f"config key {key!r}")
            provided.add(key)
    env = _env_overrides()
    values.update(env)
    provided.update(env)
    for key, val in cli_values.items():
        if val is not None and key in values:
            values[key] = val
            provided.add(key)

    ratio = values.pop("m_over_n")
    if ratio is not None and ratio < 1:
        raise ValueError("--m-over-n must be at least 1")
    # an explicit m wins; an explicit m_over_n beats a command's default m
    if values["m"] is None or ("m_over_n" in provided and "m" not in provided):
        values["m"] = (16 if ratio is None else ratio) * values["n"]
    if values.get("max_iters") is None:
        factor = 50 if command == "baseline" else 40
        values["max_iters"] = factor * values["n"]
    return ExperimentConfig(**values)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cli_values = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = resolve_config(args.command, cli_values, args.config)
    except (ValueError, OSError) as exc:
        print(f"kaczpr: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:
        print(f"kaczpr: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
