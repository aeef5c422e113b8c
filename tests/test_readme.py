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


def _runs_cell(runs):
    """The Commands cell for a row of runs: "all", or "solve, verify F, G" style,
    with a start as in "solve --init planted"."""
    from kaczpr.cli import _LEMMAS

    if set(runs) == {"solve", "baseline", "rsc-scan", *(f"verify {lemma}" for lemma in _LEMMAS)}:
        return "all"
    commands = [run for run in runs if not run.startswith("verify ")]
    lemmas = [run.split()[1] for run in runs if run.startswith("verify ")]
    return ", ".join(commands + (["verify " + ", ".join(lemmas)] if lemmas else []))


def test_options_table_lists_the_runs_of_each_flag():
    from kaczpr.cli import _OPTIONS

    cells = dict(re.findall(r"^\| `(--[\w-]+)` \| ([^|]+?) \|", README.read_text(), re.M))
    assert cells == {opt.flag: _runs_cell(opt.runs) for opt in _OPTIONS}


def test_command_line_examples_resolve():
    import shlex

    from kaczpr.cli import _build_parser, resolve_config

    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("kaczpr ")]
    assert len(lines) == 8
    for line in lines:
        args = vars(_build_parser().parse_args(shlex.split(line)[1:]))
        command, config = args.pop("command"), args.pop("config")
        resolve_config(command, args, config)  # raises on an option its run does not take
