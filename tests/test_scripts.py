import runpy
from pathlib import Path

import pytest

from kaczpr import LemmaParams, series_F

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_lemma_grid_runs_and_prints_the_series(capsys):
    run = runpy.run_path(str(SCRIPTS / "run_lemma_grid.py"))["run"]
    assert run(["--samples", "2000"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # F rows: lambda, sigma, estimate, se, series, bound, pass
    row = next(r for r in rows if r[:2] == ["10.0", "0.9"])
    assert float(row[4]) == pytest.approx(series_F(LemmaParams(lam=10.0, sigma=0.9)), abs=5e-6)
