"""kaczpr benchmark: end-to-end runs of the CLI and a traced per-layer replay.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`, not from an installed copy.  Load is a closed loop with one client:
each command runs to completion, in a fresh interpreter, before the next one
starts.  Every child gets OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, and
no KACZPR_* variable.

--trace 0 repeats the workload's commands for about S seconds and reports
the end-to-end metrics: medians over the repeats, with times scaled to a
reference host speed (see REF_STEP_S).  --trace 1 makes one
traced pass over every workload, whichever is named, because the per-layer
metrics are per module and each module is exercised by a different
workload; it reports the per-layer metrics.  `--workload all` runs each
workload in turn.  `--toy` shrinks every command to a tiny size.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Before it come the environment, one line per metric, and failed_frac.
Full results, the environment and (traced) the spans are written under
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import child
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_REPEATS = 3
# Times are reported at a reference host speed.  Each child measures the
# CPU time per step of a fixed loop (child.kernel) right before and right
# after its command; a time is scaled by REF_STEP_S over that speed (the
# mean of the two for the command, the first for set-up).  The host the
# baseline was taken on runs fast and slow phases up to 2x apart, lasting
# seconds to minutes, which unscaled medians of runs taken at different
# times follow.  Raw times stay in the results.  REF_STEP_S is the loop's
# per-step time in a fast phase on that host.
REF_STEP_S = 6.0e-6
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class Tally:
    """Commands attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("KACZPR_")}
    env.update(BLAS_THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(sub: str, args: list[str], timing_path: Path) -> tuple[dict, str, str]:
    """One fresh interpreter running one command; (timing, stdout, stderr).

    The child leads its own process group, so a timeout, or this process
    being stopped, also stops the pool workers it started.
    """
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(timing_path), sub, *args]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += f"\nkilled after {CHILD_TIMEOUT_S} s"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    timing = {"setup_s": None, "wall_s": None}
    if timing_path.is_file():
        timing = json.loads(timing_path.read_text())
        timing_path.unlink()
    timing["rc"] = proc.returncode
    return timing, stdout, stderr


def run_command(cmd: wl.Command, seed: int, out: Path) -> dict:
    """Run one command and apply its own checks; timing, stdout, digest, problems."""
    out.parent.mkdir(parents=True, exist_ok=True)
    args = wl.argv(cmd, seed, out)[1:]
    timing, stdout, stderr = launch(cmd.sub, args, out.parent / f".{out.name}.timing.json")
    problems = []
    if timing["rc"] != 0:
        problems.append(f"exit status {timing['rc']}: {stderr.strip()[-300:]}")
    if timing["wall_s"] is None:
        problems.append("no timing written")
    else:
        problems += wl.own_check(cmd, out, stdout)
    return dict(timing, stdout=stdout, digest=wl.digest(out, stdout), problems=problems)


def check_reference(workload: str, run_dir: Path, tally: Tally) -> None:
    """The toy commands at the reference seed must reproduce reference.json."""
    reference = json.loads((BENCH_DIR / "reference.json").read_text())["values"][workload]
    for cmd in wl.commands(workload, "toy"):
        out = run_dir / "reference" / cmd.label
        res = run_command(cmd, wl.REFERENCE_SEED, out)
        problems = res["problems"]
        if not problems:
            problems = wl.compare_scalars(wl.scalars(cmd, out, res["stdout"]),
                                          reference[cmd.label])
        tally.record(f"reference {cmd.label}", problems)
    shutil.rmtree(run_dir / "reference", ignore_errors=True)


def write_reference() -> None:
    """Pin the toy commands' scalars at the reference seed, from this checkout."""
    values = {}
    run_dir = OUT / "write-reference"
    for workload in wl.WORKLOADS:
        values[workload] = {}
        for cmd in wl.commands(workload, "toy"):
            out = run_dir / workload / cmd.label
            res = run_command(cmd, wl.REFERENCE_SEED, out)
            if res["problems"]:
                raise SystemExit(f"{workload} {cmd.label}: {res['problems']}")
            values[workload][cmd.label] = wl.scalars(cmd, out, res["stdout"])
    shutil.rmtree(run_dir, ignore_errors=True)
    doc = {"seed": wl.REFERENCE_SEED, "size": "toy", "rtol": wl.REFERENCE_RTOL,
           "environment": environment(), "values": values}
    (BENCH_DIR / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def measure_workload(workload: str, seed: int, seconds: float, size: str,
                     run_dir: Path, tally: Tally) -> tuple[dict, dict]:
    """Untraced repeats for about `seconds`; (end-to-end metrics, raw record)."""
    launch("warmup", [], run_dir / ".warmup.timing.json")  # fills the bytecode cache
    check_reference(workload, run_dir, tally)
    cmds = wl.commands(workload, size)
    timings = {c.label: [] for c in cmds}
    first_digest = {}
    start = time.perf_counter()
    repeats = 0
    while True:
        rep_dir = run_dir / f"rep{repeats}"
        for cmd in cmds:
            res = run_command(cmd, seed, rep_dir / cmd.label)
            first_digest.setdefault(cmd.label, res["digest"])
            if res["digest"] != first_digest[cmd.label]:
                res["problems"].append("artifacts differ from the first repeat")
            tally.record(cmd.label, res["problems"])
            if res["wall_s"] is not None:
                timings[cmd.label].append({k: v for k, v in res.items()
                                           if k not in ("stdout", "digest", "problems")})
        shutil.rmtree(rep_dir, ignore_errors=True)
        repeats += 1
        elapsed = time.perf_counter() - start
        if tally.failed or (repeats >= MIN_REPEATS and elapsed * (repeats + 1) / repeats > seconds):
            break
    raw = {"repeats": repeats, "ref_step_s": REF_STEP_S, "timings": timings}
    if not all(timings.values()):
        return {}, raw
    walls = {label: [t["wall_s"] * REF_STEP_S / ((t["speed_before_s"] + t["speed_after_s"]) / 2)
                     for t in ts]
             for label, ts in timings.items()}
    raw["wall_s"] = {label: wl.order_stats(v) for label, v in walls.items()}
    wall = sum(statistics.median(v) for v in walls.values())
    launches = [t for ts in timings.values() for t in ts]
    metrics = {
        "setup_s": statistics.median(t["setup_s"] * REF_STEP_S / t["speed_before_s"]
                                     for t in launches),
        "wall_s": wall,
        "trials_per_s": wl.work_units(workload, size) / wall,
        "peak_rss_mb": max(t["maxrss_kb"] for t in launches) / 1024.0,  # KiB on Linux
    }
    return metrics, raw


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: {"name": deps[k].get("name"), "version": deps[k].get("version")}
                for k in ("blas", "lapack") if k in deps}
    except (AttributeError, KeyError, TypeError):
        return {}


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    """sha256 over the package's .py files; identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "kaczpr").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "child_env": BLAS_THREAD_ENV,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def traced_run(seed: int, size: str, run_dir: Path, tally: Tally) -> tuple[dict, dict]:
    """One untraced and one traced pass over every command; per-layer metrics."""
    import replay

    walls, cli_dirs = {}, {}
    tracer = replay.Tracer()
    launch("warmup", [], run_dir / ".warmup.timing.json")
    speed_before = child.kernel(child.CALIB_STEPS)
    for workload in wl.WORKLOADS:
        for cmd in wl.commands(workload, size):
            out = run_dir / "cli" / cmd.label
            res = run_command(cmd, seed, out)
            tally.record(cmd.label, res["problems"])
            walls[cmd.label] = res["wall_s"] or 0.0
            cli_dirs[cmd.label] = out
            problems = replay.replay_command(tracer, cmd, seed, run_dir / "replay" / cmd.label,
                                             out, res["stdout"])
            tally.record(f"replay {cmd.label}", problems)
    speed_after = child.kernel(child.CALIB_STEPS)
    metrics = replay.layer_metrics(tracer, walls, cli_dirs, size)
    spans_path = run_dir / "spans.json"
    tracer.write(spans_path)
    # per-layer times are raw; the loop speed around the pass tells their host phase
    return metrics, {"untraced_walls": walls, "spans": str(spans_path.relative_to(ROOT)),
                     "self_time_s": tracer.self_time_by_name(), "ref_step_s": REF_STEP_S,
                     "speed_s": [speed_before, speed_after]}


def run_one(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}-{size}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    tally = Tally()
    if trace:
        import replay

        metrics, raw = traced_run(seed, size, run_dir, tally)
        units = replay.UNITS
    else:
        metrics, raw = measure_workload(workload, seed, seconds, size, run_dir, tally)
        units = END_TO_END_UNITS
    for path in list(run_dir.iterdir()):
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
    if not any(run_dir.iterdir()):
        run_dir.rmdir()
    missing = sorted(set(units) - set(metrics))
    if missing:
        tally.problems.append(f"metrics not measured: {missing}")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "size": size,
        "correct": tally.failed == 0 and not missing,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted if tally.attempted else None,
        "problems": tally.problems,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
        "raw": raw,
        "run_dir": str(run_dir.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--write-reference", action="store_true",
                        help="rewrite reference.json from this checkout and exit")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "kaczpr" / "cli.py").is_file():
        print(f"run.py: no kaczpr source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a nonnegative 63-bit integer")
    for key in [k for k in os.environ if k.startswith("KACZPR_")]:
        del os.environ[key]
    os.environ.update(BLAS_THREAD_ENV)  # before numpy loads, for the traced replay
    sys.path.insert(0, str(SRC))
    if args.write_reference:
        write_reference()
        return 0
    size = "toy" if args.toy else "full"
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))

    runs = [run_one(name, args.seed, args.seconds, bool(args.trace), size) for name in names]
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    for res in runs:
        res["env"] = env
        stem = f"{res['workload']}-seed{args.seed}-trace{args.trace}-{size}"
        (results_dir / f"{stem}.json").write_text(json.dumps(res, indent=1, sort_keys=True) + "\n")
        for problem in res["problems"]:
            print(f"{res['workload']}: FAILED {problem}", file=sys.stderr)
        for name, m in res["metrics"].items():
            print(f"{res['workload']} {name} {m['value']!r} {m['unit']}")
        print(f"{res['workload']} failed_frac {res['failed_frac']!r} "
              f"({res['failed']} of {res['attempted']} commands)")
    if len(runs) == 1:
        metrics = runs[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in runs for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
