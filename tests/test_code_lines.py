"""tools/code_lines.py: code lines are the non-blank lines outside
comments and docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
two lines."""

import math  # a comment after code counts

# a comment line does not


def f(x):
    """One-line docstring."""
    s = """a string that is
    assigned spans two lines"""
    return (x +
            math.pi)


class C:
    """Class
    docstring.
    """

    y = 1
'''


def test_counts_a_known_source_text():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # import, def, the two lines of s, the two of the return, class, y
    assert tool.code_lines(SOURCE) == 8
    assert tool.code_lines("") == 0
