"""tools/output_hashes.py: one digest per benchmark workload, the same
on every run of the same tree."""

import importlib.util
from pathlib import Path

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

