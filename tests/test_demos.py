"""Each narrative script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cp = subprocess.run([sys.executable, str(demo)], capture_output=True,
                        text=True, env=env, cwd=ROOT, timeout=120)
    assert cp.returncode == 0, cp.stderr


def _library_tour():
    """The fenced Python block under the README's "## Library tour"."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library tour\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_library_tour_runs():
    namespace = {}
    exec(compile(_library_tour(), "README.md: Library tour", "exec"),
         namespace)
    assert abs(namespace["sample"].value + 1j) <= 1e-9
    assert namespace["values"].shape == namespace["estimates"].shape == (1001,)
