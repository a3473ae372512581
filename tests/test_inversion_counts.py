"""tools/inversion_counts.py: calls and evaluations of F per
numeric-invert template, the same on every run of the same tree."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "inversion_counts.py"


def _tool():
    spec = importlib.util.spec_from_file_location("inversion_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_of_tiny_rounds_repeat():
    tool = _tool()
    first = tool.counts(seeds=(1, 2), rounds=(0,), tiny=True)
    # tiny rounds set A = 20, so the labels of the two A merge
    assert sum(jobs for jobs, _, _ in first.values()) == 22
    # every job one call of F, on a pass of whole 15-node panels
    assert all(calls == jobs and evals > 0 and evals % 15 == 0
               for jobs, calls, evals in first.values())
    assert tool.counts(seeds=(1, 2), rounds=(0,), tiny=True) == first


def test_command_prints_one_row_per_template_and_a_total(capsys):
    assert _tool().main(["--seeds", "1", "--rounds", "0"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["template", "jobs", "calls/job", "evals/job"]
    assert len(rows) == 13 and rows[-1].split()[:3] == ["all", "11", "1.000"]
