"""The benchmark's workloads: CLI commands built from one seed, and their checks.

Each workload is a list of commands.  A command is a `kaczpr` subcommand
(or `sweep`, see sweep.py) with the config values it sets; everything else
is the CLI default.  The same values drive the fresh-process runs (as flags)
and the traced replay (through `kaczpr.cli.resolve_config`), so the two
cannot drift apart.

Sizes: "full" is what the benchmark measures; "toy" is a tiny version of
every command, used by the harness self-test and by the reference check
against this commit's values (reference.json).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("solve-planted", "solve-spectral-pool", "baseline-linear", "lemma-checks")

# Relative tolerance for scalars compared with reference.json.  Wide enough
# for last-bit changes in the update arithmetic to pass, far too narrow for
# a changed algorithm, ensemble or seed derivation to pass.
REFERENCE_RTOL = 1e-6
REFERENCE_SEED = 7


@dataclass(frozen=True)
class Command:
    label: str
    sub: str
    values: dict = field(default_factory=dict)
    trials: int = 0  # solver trials the command completes; 0 for lemma checks


_FLAGS = {
    "n": "--n", "m": "--m", "trials": "--trials", "threads": "--threads",
    "init": "--init", "ball_radius": "--ball", "samples": "--samples",
    "lam": "--lambda", "sigma": "--sigma", "points": "--points",
}
_SWITCHES = {"serial": "--serial", "check": "--check"}


def commands(workload: str, size: str = "full") -> list[Command]:
    """The commands of one workload, in the order they run."""
    toy = size == "toy"
    if workload == "solve-planted":
        # --check asserts the contraction of the mean squared error over
        # trials: it fails at 8 trials and clears on every seed probed at 32.
        # At n=16 the toy size needs 24.
        trials = 24 if toy else 32
        values = dict(dict(n=16) if toy else {}, trials=trials, serial=True, check=True)
        return [Command("solve-planted", "solve", values, trials)]
    if workload == "solve-spectral-pool":
        trials = 4 if toy else 32
        values = dict(dict(n=16) if toy else {}, trials=trials, init="spectral",
                      ball_radius=1.0, threads=2)
        return [Command("solve-spectral-pool", "solve", values, trials)]
    if workload == "baseline-linear":
        trials = 4 if toy else 50
        values = dict(dict(n=8, m=64) if toy else {}, trials=trials, serial=True, check=True)
        return [Command("baseline-linear", "baseline", values, trials)]
    if workload == "lemma-checks":
        # 250 of rsc-scan's 1000 default samples: on the baseline host its
        # time swung 1.75x between host phases, against 1.1x for the
        # calibration loop, and at full length it was 60% of the workload.
        scan = dict(n=16, m=256, samples=20) if toy else dict(samples=250)
        mc = dict(samples=20000) if toy else {}
        cov = dict(n=8, m=512, trials=5) if toy else {}
        sweep = dict(n=16, m=256, points=5) if toy else dict(n=64, m=1024, points=100)
        return [
            Command("rsc-scan", "rsc-scan", scan),
            Command("verify-F", "verify", dict(mc, lemma="F", lam=3.0, sigma=0.5)),
            Command("verify-G", "verify", dict(mc, lemma="G", lam=0.4, sigma=0.5)),
            Command("verify-covariance", "verify", dict(cov, lemma="covariance")),
            Command("sweep", "sweep", sweep),
        ]
    raise ValueError(f"unknown workload: {workload!r}")


def command(label: str, size: str = "full") -> Command:
    """A command by label, from whichever workload holds it."""
    for workload in WORKLOADS:
        for cmd in commands(workload, size):
            if cmd.label == label:
                return cmd
    raise KeyError(label)


def work_units(workload: str, size: str = "full") -> int:
    """Trials per repeat; on lemma-checks, which runs no solver, its commands."""
    cmds = commands(workload, size)
    return sum(c.trials for c in cmds) or len(cmds)


def order_stats(values: list[float]) -> dict:
    """Median, tail and count of timings.

    The tail is the highest order statistic with ten samples beyond it, or
    the maximum when there are fewer than eleven samples.
    """
    ordered = sorted(values)
    return {"median": statistics.median(ordered),
            "tail": ordered[len(ordered) - 11] if len(ordered) >= 11 else ordered[-1],
            "n": len(ordered)}


def argv(cmd: Command, seed: int, out: Path) -> list[str]:
    """The command line after `kaczpr` (or after `sweep`)."""
    args = [cmd.sub]
    values = dict(cmd.values)
    if "lemma" in values:
        args.append(values.pop("lemma"))
    for key, value in values.items():
        if key in _SWITCHES:
            if value:
                args.append(_SWITCHES[key])
        else:
            args += [_FLAGS[key], repr(value) if isinstance(value, float) else str(value)]
    args += ["--seed", str(seed)]
    if cmd.sub != "verify":  # verify reports go to stdout
        args += ["--out", str(out)]
    return args


def _read_json(path: Path):
    return json.loads(path.read_text())


def _verify_reports(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines() if line.strip()]


def own_check(cmd: Command, out: Path, stdout: str) -> list[str]:
    """The bounds the command itself asserts; returns what failed."""
    try:
        if cmd.sub in ("solve", "baseline"):
            summary = _read_json(out / "summary.json")
            if cmd.values.get("check"):
                checks = summary.get("checks")
                if not checks:
                    return ["summary.json has no checks"]
                return [f"summary check {k} is false" for k, v in checks.items()
                        if k.endswith("_ok") and v is not True]
            return []
        if cmd.sub == "rsc-scan":
            doc = _read_json(out / "rsc_scan.json")
            return [] if doc.get("passed") is True else ["rsc_scan.json passed is not true"]
        if cmd.sub == "verify":
            reports = _verify_reports(stdout)
            if not reports:
                return ["verify printed no report"]
            return [f"verify report {r.get('name')} did not pass" for r in reports
                    if r.get("passed") is not True]
        if cmd.sub == "sweep":
            doc = _read_json(out / "sweep.json")
            return [] if doc.get("passed") is True else ["sweep did not pass"]
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    raise ValueError(f"unknown subcommand {cmd.sub!r}")


_SUMMARY_KEYS = ("frac_exited", "final_mean_dist2", "final_median_dist",
                 "max_contraction_ratio", "fitted_contraction")


def scalars(cmd: Command, out: Path, stdout: str) -> dict:
    """The scalar results that reference.json pins for this commit."""
    if cmd.sub in ("solve", "baseline"):
        summary = _read_json(out / "summary.json")
        return {k: summary.get(k) for k in _SUMMARY_KEYS}
    if cmd.sub == "rsc-scan":
        return {"min_gamma": _read_json(out / "rsc_scan.json")["min_gamma"]}
    if cmd.sub == "verify":
        found = {}
        for i, r in enumerate(_verify_reports(stdout)):
            found[f"{i}.{r['name']}.estimate"] = r["estimate"]
            found[f"{i}.{r['name']}.std_error"] = r["std_error"]
        return found
    if cmd.sub == "sweep":
        return {"worst_ratio": _read_json(out / "sweep.json")["worst_ratio"]}
    raise ValueError(f"unknown subcommand {cmd.sub!r}")


def compare_scalars(found: dict, expected: dict) -> list[str]:
    """Differences beyond REFERENCE_RTOL; None must match None."""
    problems = []
    for key in sorted(set(found) | set(expected)):
        got, want = found.get(key), expected.get(key)
        if got is None or want is None:
            if got is not want:
                problems.append(f"{key}: {got!r} != reference {want!r}")
        elif not math.isclose(got, want, rel_tol=REFERENCE_RTOL, abs_tol=0.0):
            problems.append(f"{key}: {got!r} differs from reference {want!r}")
    return problems


def digest(out: Path, stdout: str) -> str:
    """sha256 over every artifact (path and bytes) plus the command's stdout."""
    h = hashlib.sha256(stdout.encode())
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()
