"""Fixtures shared by the test modules."""

import inspect

import pytest

from symlap import quadrature


def _nonlocals(fn):
    """The names fn closes over, with their values."""
    return inspect.getclosurevars(fn).nonlocals


@pytest.fixture
def refined_ys(monkeypatch):
    """The y of every forward grid-pass row whose certificate misses its
    budget, in the order its own panels are handed to quadrature._refine
    (numeric inversion's calls are not recorded).  A caller of _refine
    that is neither, a forward row by the piece its panels close over
    nor numeric inversion by the parts, fails the test, so that a
    renamed closure variable cannot leave the list empty unnoticed."""
    ys = []
    refine = quadrature._refine

    def counted(panels, *args):
        names = _nonlocals(panels)
        if "piece" in names:  # a forward row, its kernel exp(i*t*u) at -y
            ys.append(-names["t"])
        elif not any("parts" in _nonlocals(f) for f in names.values()
                     if inspect.isfunction(f)):
            raise AssertionError(
                f"refined_ys cannot classify the _refine caller {panels}")
        return refine(panels, *args)

    monkeypatch.setattr(quadrature, "_refine", counted)
    return ys
