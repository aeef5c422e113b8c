#!/usr/bin/env python3
"""Curvature-margin scan inside the trust ball.

Samples points at relative distance <= 0.01 from a random signal (plus the
aligned and orthogonal error directions) against one fixed ensemble and
reports the worst margin gamma_hat next to the 0.03/n threshold.
"""

import argparse
import json
import sys
from pathlib import Path

from kaczpr.cli import main as kaczpr_main


def run(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--out", type=str, default="results/rsc_scan")
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--m-over-n", type=int, default=16)
    ap.add_argument("--samples", type=int, default=1000)
    args = ap.parse_args(argv)

    rc = kaczpr_main([
        "rsc-scan", "--n", str(args.n), "--m", str(args.m_over_n * args.n),
        "--samples", str(args.samples), "--seed", str(args.seed),
        "--out", args.out,
    ])
    if rc == 2:  # rejected config: no report was written, or an older run's is still there
        return rc
    doc = json.loads((Path(args.out) / "rsc_scan.json").read_text())
    min_gamma = "none" if doc["min_gamma"] is None else f"{doc['min_gamma']:.6f}"
    verdict = {True: "ok", False: "violated"}.get(doc.get("passed"), "not asserted")
    print(f"min gamma_hat {min_gamma} over {doc['samples']} samples "
          f"(threshold {doc['threshold']:.6f}) -> {verdict}")
    print(f"per-sample margins: {Path(args.out) / 'rsc_scan.csv'}")
    return rc


if __name__ == "__main__":
    sys.exit(run())
