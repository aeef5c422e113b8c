"""Exhaustive one-step contraction sweep over planted points.

The shape of acceptance criterion A3: one unit-sphere ensemble, one unit
signal, and `points` planted starts at relative radius 0.005; each start is
scored by the exact row average of dist^2 after one update, divided by its
own dist^2.  The asserted bound is the certified per-step contraction
1 - 0.03/n.  There is no CLI command for this check, so the lemma-checks
workload runs it through `child.py` like the CLI commands.

    python3 benchmarks/sweep.py --n 64 --m 1024 --points 100 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from kaczpr import (
    Model,
    RngStream,
    complex_standard_normal,
    dist,
    expected_step,
    make_ensemble,
    measure,
    planted_init,
)

RADIUS = 0.005
RATE_MARGIN = 0.03


def _untraced(_name):
    return contextlib.nullcontext()


def sweep(n: int, m: int, points: int, seed: int, span=_untraced) -> dict:
    """Worst one-step ratio over the planted points; `span(name)` wraps layer calls."""
    root = RngStream(seed, 0)
    with span("sampling.make_ensemble"):
        ensemble = make_ensemble(m, n, Model.UNIT_SPHERE, root.substream(1))
    x = complex_standard_normal(n, root.substream(2).generator())
    x /= np.linalg.norm(x)
    with span("sampling.measure"):
        b = measure(ensemble, x)
    point_seed = root.substream(3).seed
    worst = -np.inf
    for t in range(points):
        with span("initializers.planted_init"):
            z = planted_init(x, RADIUS, RngStream(point_seed, t))
        with span("analysis.expected_step"):
            after = expected_step(ensemble, b, x, z)
        worst = max(worst, after / dist(z, x) ** 2)
    bound = 1.0 - RATE_MARGIN / n
    return {
        "name": "expected_step_sweep",
        "n": n,
        "m": m,
        "points": points,
        "seed": seed,
        "worst_ratio": float(worst),
        "bound": bound,
        "passed": bool(worst <= bound),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sweep")
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--points", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=str, required=True)
    args = parser.parse_args(argv)
    report = sweep(args.n, args.m, args.points, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "sweep.json").write_text(json.dumps(report, sort_keys=True, indent=1) + "\n")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
