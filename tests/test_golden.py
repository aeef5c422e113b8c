"""Every command's bytes against the committed manifest of this build."""

import json
import runpy
from pathlib import Path

import pytest

_WRITER = runpy.run_path(str(Path(__file__).resolve().parent / "golden" / "write_manifest.py"))


def test_runs_match_the_committed_manifest():
    key = _WRITER["build_key"]()
    entry = json.loads(_WRITER["MANIFEST"].read_text()).get(key)
    if entry is None:
        pytest.skip(f"no manifest entry for this build: {key!r}")
    assert _WRITER["digests"]() == entry
