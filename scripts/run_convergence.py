#!/usr/bin/env python3
"""Convergence-rate experiment: phaseless solver vs linear baseline.

Writes plot-ready aggregate curves under --out (one subdirectory per run)
and prints the fitted per-step contraction next to the certified bound.
"""

import argparse
import json
import sys
from pathlib import Path

from kaczpr.cli import main as kaczpr_main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", type=str, default="results/convergence")
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args(argv)

    out = Path(args.out)
    solve_dir = out / "solve"
    base_dir = out / "baseline"

    rc = kaczpr_main([
        "solve", "--n", str(args.n), "--trials", str(args.trials),
        "--seed", str(args.seed), "--threads", str(args.threads),
        "--out", str(solve_dir), "--check",
    ])
    if rc != 0:
        return rc

    rc = kaczpr_main([
        "baseline", "--seed", str(args.seed), "--threads", str(args.threads),
        "--out", str(base_dir), "--check",
    ])
    if rc != 0:
        return rc

    solve = json.loads((solve_dir / "summary.json").read_text())
    base = json.loads((base_dir / "summary.json").read_text())
    checks = solve["checks"]
    print(f"phaseless solve: fitted per-step ratio {solve['fitted_contraction']:.6f}, "
          f"worst {solve['max_contraction_ratio']:.6f}, "
          f"certified bound {checks['rate_bound']:.6f}")
    print(f"                 exit fraction {solve['frac_exited']:.3f} "
          f"(bound {checks['exit_bound']:.2f})")
    print(f"linear baseline: median final error {base['final_median_dist']:.2e}")
    print(f"curves: {solve_dir / 'aggregate.csv'} and {base_dir / 'aggregate.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
