import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_snippet_runs_and_claims_hold(capsys):
    text = README.read_text()
    snippet = re.search(r"## Quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    exec(compile(snippet, "README-quickstart", "exec"), {})
    final_dist, margin, ratio = (float(v) for v in capsys.readouterr().out.split())
    assert final_dist <= 1e-6
    assert margin >= 0.03 / 64
    assert ratio <= 1.0 - 0.03 / 64


def test_options_table_lists_every_flag():
    from kaczpr.cli import _OPTIONS

    rows = re.findall(r"^\| `(--[\w-]+)` \|", README.read_text(), re.M)
    assert sorted(rows) == sorted(opt.flag for opt in _OPTIONS)
