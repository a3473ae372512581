"""tools/output_hashes.py: one digest per benchmark workload, the same
on every run of the same tree, and a last line naming the kernel."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "output_hashes.py"
WORKLOADS = ["forward-grid", "split-invert", "numeric-invert", "verify-suite"]


def _tool():
    spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_of_tiny_rounds_repeat():
    tool = _tool()
    first = tool.digests(seeds=(1,), rounds=(0,), tiny=True)
    assert list(first) == WORKLOADS
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in first.values())
    assert tool.digests(seeds=(1,), rounds=(0,), tiny=True) == first


def test_the_last_line_names_the_kernel(monkeypatch, capsys):
    # digests are quoted with the OpenBLAS core and numpy SIMD targets
    # that made them
    tool = _tool()
    monkeypatch.setattr(tool, "digests",
                        lambda: dict.fromkeys(WORKLOADS, "0" * 64))
    assert tool.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [f"{'0' * 64}  {name}" for name in WORKLOADS]
    core, simd = tool.kernel()
    assert core == "unknown" or core.isalnum()
    found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    assert simd == found
    assert lines[4:] == [
        f"kernel: OpenBLAS {core}, numpy SIMD {' '.join(found) or 'none'}"]


def test_a_dump_against_itself_reads_zero_and_a_moved_value_is_flagged():
    # the cross-kernel contract on tiny rounds: a tree's outputs agree
    # with themselves, and a forward value moved by twice its allowance,
    # the sum of the two estimates, is flagged
    tool = _tool()
    wl = tool.workloads()
    seeds, rounds = (1,), (0,)
    mine = tool.outputs(seeds, rounds, tiny=True)
    report = tool.against(mine, mine, seeds, rounds, tiny=True)
    assert report == dict.fromkeys(WORKLOADS, (0.0, []))
    moved = json.loads(json.dumps(mine))
    lines = moved["forward-grid"][0].splitlines()
    y, re, im, err = (float(c) for c in lines[1].split(","))
    lines[1] = ",".join(map(repr, (y, re + 4.0 * err, im, err)))
    moved["forward-grid"][0] = "\n".join(lines) + "\n"
    job = wl.ROUNDS["forward-grid"](1, 0, True)[0]
    ratio, gap, problem = tool.compare(wl, "forward-grid", job,
                                       mine["forward-grid"][0],
                                       moved["forward-grid"][0])
    assert ratio == pytest.approx(2.0) and problem is None
    report = tool.against(mine, moved, seeds, rounds, tiny=True)
    worst, problems = report["forward-grid"]
    assert worst == pytest.approx(2.0)
    assert problems == [f"{job.template}: |difference| {gap:.3e} above its "
                        "allowance"]
    # an error where the other tree wrote values is a type mismatch
    moved["split-invert"][0] = "AccuracyError: refused"
    problems = tool.against(mine, moved, seeds, rounds, tiny=True)[
        "split-invert"][1]
    assert len(problems) == 1 and problems[0].endswith(
        "error types None and AccuracyError")
