import json
import re
import runpy
from pathlib import Path

import pytest

from kaczpr import LemmaParams, series_F

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _script(name):
    return runpy.run_path(str(SCRIPTS / name))["run"]


def test_lemma_grid_runs_and_prints_the_series(capsys):
    run = _script("run_lemma_grid.py")
    assert run(["--samples", "2000"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # F rows: lambda, sigma, estimate, se, series, bound, pass
    row = next(r for r in rows if r[:2] == ["10.0", "0.9"])
    assert float(row[4]) == pytest.approx(series_F(LemmaParams(lam=10.0, sigma=0.9)), abs=5e-6)


def test_convergence_script_runs_both_experiments(tmp_path, capsys):
    run = _script("run_convergence.py")
    assert run(["--n", "16", "--trials", "24", "--out", str(tmp_path)]) == 0
    printed = re.search(r"certified bound (\S+)", capsys.readouterr().out).group(1)
    checks = json.loads((tmp_path / "solve" / "summary.json").read_text())["checks"]
    assert printed == f"{checks['rate_bound']:.6f}"
    assert (tmp_path / "solve" / "aggregate.csv").is_file()
    assert (tmp_path / "baseline" / "aggregate.csv").is_file()

