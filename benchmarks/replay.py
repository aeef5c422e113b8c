"""Traced replay of every workload through the public kaczpr API.

The replay repeats each command's per-trial pipeline in-process, in the
CLI's order and with the CLI's seed derivation, and records a span around
every call into a module: name, start, end, parent span and trace id (the
command's label).  Spans stay in memory and are written once, at the end.  A
span's self time is its duration minus the time its children cover.

Two kinds of work exist only in the replay and are flagged `extra`, so they
count neither as traced wall time nor toward the CLI's attributed time:
the second, untracked solver call per trial (which times the update apart
from distance tracking) and the per-ensemble covariance replay (which times
`covariance_deviation` on its own).

The replay must measure the same program the CLI runs, so it checks its
results against the CLI's artifacts from the untraced pass: identical trace
CSV bytes for every trial, and identical scan, report and sweep values.
"""

from __future__ import annotations

import json
import statistics
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from kaczpr import (
    InitConfig,
    LemmaParams,
    Model,
    NormModel,
    RngStream,
    SolverConfig,
    check_covariance,
    complex_standard_normal,
    contraction_stats,
    covariance_deviation,
    make_ensemble,
    mc_F,
    mc_G,
    measure,
    planted_init,
    real_overlap_direction,
    rsc_margin,
    run_linear,
    run_pr,
    series_F,
    spectral_init,
)
from kaczpr.cli import resolve_config

import sweep
import workloads as wl

# the CLI's purpose tags for per-trial substreams
TAG_ENSEMBLE, TAG_SIGNAL, TAG_INIT, TAG_ROWS, TAG_SCAN = 1, 2, 3, 4, 5

# kaczmarz.steps_to_tol: first k with median_dist below this in aggregate.csv
STEPS_TOL = 1e-4

# Commands whose CLI run is serial, so their wall time compares with the
# replay's; the pool command runs trials in parallel.
SERIAL_COMMANDS = ("solve-planted", "baseline-linear", "rsc-scan", "verify-F", "verify-G",
                   "verify-covariance", "sweep")

# Per-call timings: name -> (unit, span name, commands whose calls count).
# Each is reported as its median, `.tail` (the highest order statistic with
# ten samples beyond it; the maximum below eleven samples) and `.n`.
_SOLVES = ("solve-planted", "solve-spectral-pool")
PER_CALL = {
    "kaczmarz.run_pr.us_per_step": ("us", "kaczmarz.run_pr", _SOLVES),
    "kaczmarz.run_pr.update_us_per_step": ("us", "kaczmarz.run_pr.untracked", _SOLVES),
    "geometry.dist.us_per_step": ("us", None, _SOLVES),
    "kaczmarz.run_linear.us_per_step": ("us", "kaczmarz.run_linear", ("baseline-linear",)),
    "kaczmarz.run_linear.update_us_per_step":
        ("us", "kaczmarz.run_linear.untracked", ("baseline-linear",)),
    "kaczmarz.SolverTrace.to_csv.ms": ("ms", "kaczmarz.SolverTrace.to_csv", ("solve-planted",)),
    "kaczmarz.SolverTrace.to_sidecar_json.ms":
        ("ms", "kaczmarz.SolverTrace.to_sidecar_json", ("solve-planted",)),
    "sampling.make_ensemble.ms": ("ms", "sampling.make_ensemble", ("solve-planted",)),
    "sampling.measure.ms": ("ms", "sampling.measure", ("solve-planted",)),
    "initializers.planted_init.ms": ("ms", "initializers.planted_init", ("solve-planted",)),
    "initializers.spectral_init.ms":
        ("ms", "initializers.spectral_init", ("solve-spectral-pool",)),
    "analysis.rsc_margin.ms": ("ms", "analysis.rsc_margin", ("rsc-scan",)),
    "analysis.expected_step.ms": ("ms", "analysis.expected_step", ("sweep",)),
    "verify.covariance_deviation.ms":
        ("ms", "verify.covariance_deviation", ("verify-covariance",)),
}

UNITS = {}
for _name, (_unit, _span, _scope) in PER_CALL.items():
    UNITS.update({_name: _unit, _name + ".tail": _unit, _name + ".n": "count"})
UNITS.update({
    "kaczmarz.run_pr.calls": "count",
    "kaczmarz.run_pr.steps": "count",
    "kaczmarz.run_pr.flops_per_step_computed": "flop",
    "kaczmarz.run_pr.bytes_per_step_computed": "B",
    "kaczmarz.zero_residual_steps": "count",
    "kaczmarz.exited_trials": "count",
    "kaczmarz.steps_to_tol": "count",
    "kaczmarz.SolverTrace.to_csv.bytes": "B",
    "sampling.make_ensemble.calls": "count",
    "initializers.spectral_init.unconverged": "count",
    "analysis.rsc_margin.calls": "count",
    "analysis.expected_step.calls": "count",
    "analysis.contraction_stats.ms": "ms",
    "verify.mc_F.samples_per_s": "1/s",
    "verify.mc_G.samples_per_s": "1/s",
    "verify.series_F.ms": "ms",
    "verify.check_covariance.ms": "ms",
    "cli.pool.efficiency": "ratio",
    "cli.unattributed_s": "s",
    "tracing.overhead_s": "s",
})


class Tracer:
    """In-memory spans: [name, parent index or -1, trace id, start, end, extra, units].

    `units` is the work a span did where a rate needs it: solver steps or
    Monte Carlo samples.

    `counts` holds event counts taken at the same call sites.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.trace_id = ""

    @contextmanager
    def span(self, name: str, extra: bool = False, units: int = 0):
        parent = self._stack[-1] if self._stack else -1
        record = [name, parent, self.trace_id, 0.0, 0.0, extra, units]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[3] = time.perf_counter()
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    def _self_times(self) -> list[float]:
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[3]
        return own

    def ancestors(self, i: int) -> list[list]:
        found = []
        i = self.spans[i][1]
        while i >= 0:
            found.append(self.spans[i])
            i = self.spans[i][1]
        return found

    def in_extra(self, i: int) -> bool:
        """Whether span i is, or runs inside, replay-only work."""
        return self.spans[i][5] or any(a[5] for a in self.ancestors(i))

    def select(self, name: str, scope=None) -> list[list]:
        """Spans called `name` in the given commands (all commands if None)."""
        return [s for s in self.spans if s[0] == name and (scope is None or s[2] in scope)]

    def self_time_by_name(self) -> dict:
        totals: dict = {}
        for s, own in zip(self.spans, self._self_times()):
            totals[s[0]] = totals.get(s[0], 0.0) + own
        return dict(sorted(totals.items()))

    def write(self, path: Path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        doc = [
            {"id": i, "name": s[0], "parent": s[1], "trace": s[2], "start_s": s[3] - t0,
             "end_s": s[4] - t0, "self_s": own, "extra": s[5]}
            for i, (s, own) in enumerate(zip(self.spans, self._self_times()))
        ]
        path.write_text(json.dumps(doc) + "\n")


def _signal(n: int, scale: float, stream: RngStream) -> np.ndarray:
    """The CLI's signal draw: a scaled unit vector from the signal substream."""
    gen = stream.generator()
    while True:
        xi = complex_standard_normal(n, gen)
        norm = np.linalg.norm(xi)
        if norm > 0.0:
            return scale * xi / norm


def _compare_csv(replayed: Path, cli: Path) -> list[str]:
    if not cli.is_file():
        return [f"CLI artifact {cli.name} missing"]
    if replayed.read_bytes() != cli.read_bytes():
        return [f"{cli.name}: replayed bytes differ from the CLI's"]
    return []


def _replay_trials(tracer, cfg, out: Path, cli_dir: Path, linear: bool) -> list[str]:
    """`solve` or `baseline`: compute every trial, then write every trace."""
    model = Model.parse(cfg.model)
    tracked = SolverConfig(max_iters=cfg.max_iters, ball_radius_rel=cfg.ball_radius)
    untracked = SolverConfig(max_iters=cfg.max_iters, ball_radius_rel=cfg.ball_radius,
                             track_distance=False)
    solver, name = (run_linear, "kaczmarz.run_linear") if linear else (run_pr, "kaczmarz.run_pr")
    traces = []
    for t in range(cfg.trials):
        stream = RngStream(cfg.seed, t)
        with tracer.span("cli.trial"):
            with tracer.span("sampling.make_ensemble"):
                ensemble = make_ensemble(cfg.m, cfg.n, model, stream.substream(TAG_ENSEMBLE))
            x = _signal(cfg.n, cfg.scale, stream.substream(TAG_SIGNAL))
            if linear:
                rhs = ensemble.rows.conj() @ x
            else:
                with tracer.span("sampling.measure"):
                    rhs = measure(ensemble, x)
            if cfg.init == "planted":
                with tracer.span("initializers.planted_init"):
                    z0 = planted_init(x, cfg.planted_radius, stream.substream(TAG_INIT))
            elif cfg.init == "spectral":
                norm_model = NormModel.SPHERE if model is Model.UNIT_SPHERE else NormModel.GAUSSIAN
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", RuntimeWarning)
                    with tracer.span("initializers.spectral_init"):
                        z0 = spectral_init(ensemble, rhs, InitConfig(norm_estimate=norm_model),
                                           stream.substream(TAG_INIT))
                key = "initializers.spectral_init.unconverged"
                tracer.counts[key] = tracer.counts.get(key, 0) + sum(
                    issubclass(w.category, RuntimeWarning) for w in caught)
            else:
                z0 = np.zeros(cfg.n, dtype=np.complex128)
            with tracer.span(name, units=cfg.max_iters):
                trace = solver(ensemble, rhs, z0, tracked, stream.substream(TAG_ROWS), truth=x)
        with tracer.span(name + ".untracked", extra=True, units=cfg.max_iters):
            solver(ensemble, rhs, z0, untracked, stream.substream(TAG_ROWS), truth=x)
        traces.append(trace)
    out.mkdir(parents=True, exist_ok=True)
    problems = []
    for t, trace in enumerate(traces):
        path = out / f"trace_{t:04d}.csv"
        with tracer.span("kaczmarz.SolverTrace.to_csv"):
            trace.to_csv(path)
        with tracer.span("kaczmarz.SolverTrace.to_sidecar_json"):
            trace.to_sidecar_json(path.with_suffix(".json"))
        problems += _compare_csv(path, cli_dir / path.name)
    if cfg.init == "planted" and not linear:
        with tracer.span("analysis.contraction_stats", extra=True):
            contraction_stats(traces)
    return problems


def _replay_rsc_scan(tracer, cfg, cli_dir: Path) -> list[str]:
    """The CLI's scan: three structured directions, then random real-slice ones."""
    stream = RngStream(cfg.seed, 0)
    with tracer.span("sampling.make_ensemble"):
        ensemble = make_ensemble(cfg.m, cfg.n, Model.parse(cfg.model),
                                 stream.substream(TAG_ENSEMBLE))
    x = _signal(cfg.n, cfg.scale, stream.substream(TAG_SIGNAL))
    gen = stream.substream(TAG_SCAN).generator()
    xnorm = float(np.linalg.norm(x))
    xhat = x / xnorm
    min_gamma = None
    for s in range(cfg.samples):
        if s in (0, 1):
            direction, radius = (xhat if s == 0 else -xhat), cfg.ball_radius
        elif s == 2:
            norm = 0.0
            while norm == 0.0:
                u = complex_standard_normal(cfg.n, gen)
                u = u - np.vdot(xhat, u) * xhat
                norm = np.linalg.norm(u)
            direction, radius = u / norm, cfg.ball_radius
        else:
            direction = real_overlap_direction(x, gen)
            radius = cfg.ball_radius * (0.1 + 0.9 * gen.random())
        with tracer.span("analysis.rsc_margin"):
            gamma = rsc_margin(ensemble, x, x + radius * xnorm * direction).margin_gamma
        min_gamma = gamma if min_gamma is None else min(min_gamma, gamma)
    cli_gamma = json.loads((cli_dir / "rsc_scan.json").read_text())["min_gamma"]
    return [] if min_gamma == cli_gamma else [f"min_gamma {min_gamma!r} != CLI {cli_gamma!r}"]


def _replay_verify(tracer, cfg, stdout: str) -> list[str]:
    stream = RngStream(cfg.seed, 0)
    cli = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    params = LemmaParams(lam=cfg.lam, sigma=cfg.sigma)
    if cfg.lemma == "F":
        with tracer.span("verify.mc_F", units=cfg.samples):
            reports = [mc_F(params, cfg.samples, stream)]
        with tracer.span("verify.series_F"):
            series_F(params)
    elif cfg.lemma == "G":
        reports = []
        for bound in ("closed", "loose"):
            with tracer.span("verify.mc_G", units=cfg.samples):
                reports.append(mc_G(params, cfg.samples, stream, bound=bound))
    elif cfg.lemma == "covariance":
        with tracer.span("verify.check_covariance"):
            reports = [check_covariance(cfg.n, cfg.m, cfg.delta, cfg.trials, stream)]
        hits = 0
        with tracer.span("bench.covariance_replay", extra=True):
            for t in range(cfg.trials):
                with tracer.span("sampling.make_ensemble"):
                    ensemble = make_ensemble(cfg.m, cfg.n, Model.UNIT_SPHERE, stream.substream(t))
                with tracer.span("verify.covariance_deviation"):
                    hits += covariance_deviation(ensemble.rows) <= cfg.delta / cfg.n
        if hits / cfg.trials != reports[0].estimate:
            return [f"covariance replay hit fraction {hits / cfg.trials} != report"]
    else:
        raise ValueError(f"no replay for verify {cfg.lemma!r}")
    mine = [r.estimate for r in reports]
    theirs = [r["estimate"] for r in cli[: len(mine)]]
    return [] if mine == theirs else [f"estimates {mine} != CLI {theirs}"]


def replay_command(tracer: Tracer, cmd, seed: int, out: Path, cli_dir: Path,
                   stdout: str) -> list[str]:
    """Replay one command; what differs from its CLI run."""
    tracer.trace_id = cmd.label
    with tracer.span(f"cli.{cmd.sub}"):
        if cmd.sub == "sweep":
            report = sweep.sweep(seed=seed, span=tracer.span, **cmd.values)
            cli_worst = json.loads((cli_dir / "sweep.json").read_text())["worst_ratio"]
            return [] if report["worst_ratio"] == cli_worst else ["worst_ratio differs from CLI"]
        cfg = resolve_config(cmd.sub, dict(cmd.values, seed=seed), None)
        if cmd.sub in ("solve", "baseline"):
            return _replay_trials(tracer, cfg, out, cli_dir, linear=cmd.sub == "baseline")
        if cmd.sub == "rsc-scan":
            return _replay_rsc_scan(tracer, cfg, cli_dir)
        return _replay_verify(tracer, cfg, stdout)


def _per_call(tracer: Tracer, name: str, unit: str, span_name, scope) -> dict:
    scale = {"us": 1e6, "ms": 1e3}[unit]
    if span_name is None:  # distance tracking: tracked minus untracked, per trial
        tracked = tracer.select("kaczmarz.run_pr", scope)
        bare = tracer.select("kaczmarz.run_pr.untracked", scope)
        values = [((a[4] - a[3]) - (b[4] - b[3])) / a[6] * scale for a, b in zip(tracked, bare)]
    else:
        spans = tracer.select(span_name, scope)
        values = [(s[4] - s[3]) / (s[6] or 1) * scale for s in spans]
    if not values:
        return {}
    stats = wl.order_stats(values)
    return {name: stats["median"], name + ".tail": stats["tail"], name + ".n": stats["n"]}


def _total(spans) -> float:
    return sum(s[4] - s[3] for s in spans)


def _artifact_counters(cli_dir: Path) -> dict:
    """Deterministic counters from the untraced solve-planted artifacts."""
    zero = 0
    for path in sorted(cli_dir.glob("trace_*.csv")):
        for line in path.read_text().splitlines()[1:]:
            fields = line.split(",")
            if fields[1] != "-1" and float(fields[3]) == 0.0:
                zero += 1
    exited = sum(json.loads(p.read_text()).get("stopping_time") is not None
                 for p in sorted(cli_dir.glob("trace_*.json")))
    steps = None
    lines = (cli_dir / "aggregate.csv").read_text().splitlines()[1:]
    for line in lines:
        k, _mean, median, _frac = line.split(",")
        if float(median) < STEPS_TOL:
            steps = int(k)
            break
    return {
        "kaczmarz.zero_residual_steps": zero,
        "kaczmarz.exited_trials": exited,
        # a run that never reaches the tolerance reports its length
        "kaczmarz.steps_to_tol": len(lines) if steps is None else steps,
    }


def _computed_costs(n: int) -> dict:
    """Operations and operand bytes of one tracked phaseless step, from n.

    Update: complex dot a^* z (8n flops), scale a (6n), subtract (2n).
    Distance: overlap x^* z (8n), rotate x (6n), subtract (2n), norm (4n).
    Bytes count every numpy call's complex operands read and written
    (16 B each): 112n for the update, 128n for the distance.  Computed,
    not measured: caches are ignored.
    """
    return {
        "kaczmarz.run_pr.flops_per_step_computed": 36 * n,
        "kaczmarz.run_pr.bytes_per_step_computed": 240 * n,
    }


def layer_metrics(tracer: Tracer, walls: dict, cli_dirs: dict, size: str) -> dict:
    """Per-layer metrics from the spans and from the untraced runs (by command label)."""
    metrics = {}
    for name, (unit, span_name, scope) in PER_CALL.items():
        metrics.update(_per_call(tracer, name, unit, span_name, scope))

    planted = wl.command("solve-planted", size)
    metrics.update(_computed_costs(resolve_config("solve", dict(planted.values), None).n))
    metrics.update(_artifact_counters(cli_dirs["solve-planted"]))

    pr = tracer.select("kaczmarz.run_pr")
    metrics["kaczmarz.run_pr.calls"] = len(pr)
    metrics["kaczmarz.run_pr.steps"] = sum(s[6] for s in pr)
    sizes = [p.stat().st_size for p in sorted(cli_dirs["solve-planted"].glob("trace_*.csv"))]
    if sizes:
        metrics["kaczmarz.SolverTrace.to_csv.bytes"] = statistics.median(sizes)
    metrics["sampling.make_ensemble.calls"] = sum(  # the CLI's calls, not the replay's own
        s[0] == "sampling.make_ensemble" and not tracer.in_extra(i)
        for i, s in enumerate(tracer.spans))
    metrics["analysis.rsc_margin.calls"] = len(tracer.select("analysis.rsc_margin"))
    metrics["analysis.expected_step.calls"] = len(tracer.select("analysis.expected_step"))
    metrics["initializers.spectral_init.unconverged"] = tracer.counts.get(
        "initializers.spectral_init.unconverged", 0)
    for key, span_name in (("analysis.contraction_stats.ms", "analysis.contraction_stats"),
                           ("verify.series_F.ms", "verify.series_F"),
                           ("verify.check_covariance.ms", "verify.check_covariance")):
        spans = tracer.select(span_name)
        if spans:
            metrics[key] = _total(spans) * 1e3 / len(spans)
    for key, span_name in (("verify.mc_F.samples_per_s", "verify.mc_F"),
                           ("verify.mc_G.samples_per_s", "verify.mc_G")):
        spans = tracer.select(span_name)
        if spans:
            metrics[key] = sum(s[6] for s in spans) / _total(spans)

    pool = wl.command("solve-spectral-pool", size)
    if walls.get(pool.label):
        busy = _total(tracer.select("cli.trial", (pool.label,)))
        metrics["cli.pool.efficiency"] = busy / (pool.values["threads"] * walls[pool.label])

    unattributed = overhead = 0.0
    for label in SERIAL_COMMANDS:
        mine = [(i, s) for i, s in enumerate(tracer.spans) if s[2] == label]
        top = [s for i, s in mine if s[1] == -1]
        extra = [s for i, s in mine if s[5]]
        layers = [s for i, s in mine if _is_layer(s) and not tracer.in_extra(i)
                  and not any(_is_layer(a) for a in tracer.ancestors(i))]
        unattributed += walls[label] - _total(layers)
        overhead += _total(top) - _total(extra) - walls[label]
    metrics["cli.unattributed_s"] = unattributed
    metrics["tracing.overhead_s"] = overhead
    return metrics


def _is_layer(span) -> bool:
    return not span[0].startswith(("cli.", "bench."))
