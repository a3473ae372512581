"""tools/forward_counts.py: laplace_grid calls, rows and piece
evaluations per verify criterion, the same on every run of the same
tree."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "forward_counts.py"


def _tool():
    spec = importlib.util.spec_from_file_location("forward_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_per_criterion_are_pinned():
    # one call per damping row made 10, 50, 16, 6, 0, 0, 80, 12, 4 and 4
    # calls, 182 in all, with these rows and evaluations.  The rows of a
    # call now run together; the Gaussian's three Fourier points stay
    # one call each, since in one row they would share one pass
    table = _tool().counts()
    assert list(table) == [
        "example1_grid", "examples_2_3_grid", "reductions", "kernel_witness",
        "split_inversion", "numeric_inversion", "derivative_rules",
        "heat_application", "ode_application", "determinism"]
    calls, single, rows, evals = (list(c) for c in zip(*table.values()))
    assert calls == [2, 10, 8, 2, 0, 0, 8, 12, 2, 4]
    assert single == [0, 0, 6, 0, 0, 0, 0, 12, 0, 0]
    assert rows == [10, 50, 16, 6, 0, 0, 80, 12, 4, 4]
    assert evals == [4680, 26220, 5340, 2550, 0, 0, 10890, 3870, 1320, 1200]
    assert _tool().counts() == table


def test_command_prints_one_row_per_criterion_and_a_total(capsys):
    assert _tool().main() == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].split() == ["criterion", "calls", "one-point", "rows",
                               "evaluations"]
    assert len(rows) == 12
    assert rows[-1].split() == ["all", "48", "18", "182", "56070"]
