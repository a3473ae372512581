"""tools/output_hashes.py: one digest per benchmark workload, the same
on every run of the same tree, and a last line naming the kernel."""

import importlib.util
from pathlib import Path

import numpy as np

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
