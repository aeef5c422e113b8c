"""Run one workload command in a fresh interpreter and time it from inside.

    python3 benchmarks/child.py TIMING_JSON COMMAND [ARG ...]

COMMAND is a `kaczpr` subcommand (solve, baseline, rsc-scan, verify),
`sweep` for the expected_step sweep in sweep.py, or `warmup`, which only
imports.  The parent sets PYTHONPATH to the checkout's `src/`.

Writes to TIMING_JSON and exits with the command's status:

- setup_s: `import kaczpr.cli` plus one config resolution, everything
  before the first call into a layer;
- wall_s: the command itself (interpreter start-up is in neither);
- speed_before_s, speed_after_s: CPU seconds per step of a fixed loop like
  one solver step (`kernel`), run right before and right after the
  command; run.py uses them to rescale the times to a reference host
  speed.  The loop runs outside the command, so the command's own memory
  traffic or worker processes cannot bias it;
- maxrss_kb: the peak resident size of this process or of any child it
  waited for, such as a pool worker.

"""

import json
import resource
import sys
import time

CALIB_STEPS = 6000


def kernel(steps: int) -> float:
    """CPU seconds per step of a fixed loop of small complex numpy operations."""
    import numpy as np  # here, so that set-up is timed with a cold numpy import

    rows = np.exp(1j * np.arange(64 * 128, dtype=np.float64).reshape(64, 128) / 7.0)
    b = np.abs(rows[:, 0])
    z = np.ones(128, dtype=np.complex128)
    start = time.thread_time()
    for k in range(steps):
        j = k & 63
        s = rows[j].conj() @ z
        z = z - ((1.0 - b[j] / (abs(s) or 1.0)) * s / 128.0) * rows[j]
        float(np.linalg.norm(z))
    return (time.thread_time() - start) / steps


def main() -> int:
    timing_path, command, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import kaczpr.cli

    kaczpr.cli.resolve_config("rsc-scan" if command in ("sweep", "warmup") else command, {}, None)
    t1 = time.perf_counter()
    speed_before = kernel(CALIB_STEPS)
    t2 = time.perf_counter()
    if command == "warmup":
        rc = 0
    elif command == "sweep":
        import sweep

        rc = sweep.main(args)
    else:
        rc = kaczpr.cli.main([command, *args])
    t3 = time.perf_counter()
    speed_after = kernel(CALIB_STEPS)
    maxrss_kb = max(resource.getrusage(who).ru_maxrss
                    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    with open(timing_path, "w") as fh:
        json.dump({"setup_s": t1 - t0, "wall_s": t3 - t2, "speed_before_s": speed_before,
                   "speed_after_s": speed_after, "rc": rc, "maxrss_kb": maxrss_kb}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
