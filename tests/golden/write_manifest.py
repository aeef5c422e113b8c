"""Write this build's entry of the golden byte manifest.

    PYTHONPATH=src python tests/golden/write_manifest.py

Runs each command and lemma once at a toy size, in this process, and
records one SHA-256 digest per run over its stdout, its exit status and
every file it writes, under a key naming the numpy version and the
OpenBLAS build (whose kernels, chosen per core, set the last bits).
tests/test_golden.py recomputes the digests on a build whose key is in the
manifest.  Rerun this script only where a change moves bytes on purpose.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

from kaczpr.cli import main as kaczpr_main

MANIFEST = Path(__file__).resolve().with_name("manifest.json")

_TOY = ["--n", "8", "--trials", "4", "--max-iters", "160"]
_SCAN = ["--n", "8", "--m", "128", "--h-samples", "10"]
RUNS = {
    "solve-planted": ["solve", *_TOY, "--serial"],
    "solve-spectral": ["solve", *_TOY, "--init", "spectral", "--ball", "1", "--threads", "2"],
    "baseline": ["baseline", "--n", "8", "--m", "64", "--trials", "3", "--check"],
    "rsc-scan": ["rsc-scan", "--n", "8", "--m", "64", "--samples", "20"],
    "verify-F": ["verify", "F", "--sigma", "0.5", "--samples", "20000"],
    "verify-G": ["verify", "G", "--samples", "20000"],
    "verify-covariance": ["verify", "covariance", "--n", "8", "--m", "128", "--trials", "5"],
    "verify-restricted-ratio": ["verify", "restricted-ratio", *_SCAN],
    "verify-truncated-moment": ["verify", "truncated-moment", *_SCAN],
}


def build_key() -> str:
    """The numpy version and OpenBLAS's config string, as numpy's LAPACK extension links it."""
    lapack = ctypes.CDLL(_umath_linalg.__file__)
    config = "no OpenBLAS"
    for name in ("scipy_openblas_get_config64_", "openblas_get_config"):
        if hasattr(lapack, name):
            getter = getattr(lapack, name)
            getter.restype = ctypes.c_char_p
            config = getter().decode()
            break
    return f"numpy {np.__version__}; {config}"


def digest(argv: list, out: Path) -> str:
    """SHA-256 over a run's stdout, its exit status and each file it writes under `out`."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = kaczpr_main([*argv, "--out", str(out)])
    sha = hashlib.sha256(f"{stdout.getvalue()}\nexit {status}\n".encode())
    for path in sorted(out.rglob("*")):
        if path.is_file():
            sha.update(f"{path.relative_to(out).as_posix()} {path.stat().st_size}\n".encode())
            sha.update(path.read_bytes())
    return sha.hexdigest()


def digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {name: digest(argv, Path(tmp) / name) for name, argv in RUNS.items()}


def main() -> int:
    manifest = json.loads(MANIFEST.read_text()) if MANIFEST.exists() else {}
    key = build_key()
    manifest[key] = digests()
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(RUNS)} digests for {key!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
