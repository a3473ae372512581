"""Fixtures shared by the test modules."""

import inspect

import pytest

from symlap import quadrature


@pytest.fixture
def refined_ys(monkeypatch):
    """The y of every forward grid-pass row whose certificate misses its
    budget, in the order its own panels are handed to quadrature._refine
    (numeric inversion's calls are not recorded)."""
    ys = []
    refine = quadrature._refine

    def counted(panels, *args):
        names = inspect.getclosurevars(panels).nonlocals
        if "piece" in names:  # a forward row, its kernel exp(i*t*u) at -y
            ys.append(-names["t"])
        return refine(panels, *args)

    monkeypatch.setattr(quadrature, "_refine", counted)
    return ys
