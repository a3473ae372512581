"""Fixtures shared by the test modules."""

import pytest

from symlap import quadrature


@pytest.fixture
def adaptive_calls(monkeypatch):
    """Arguments of every call to quadrature._adaptive, the bisection
    that takes over a y whose grid-pass certificate misses its budget."""
    calls = []
    adaptive = quadrature._adaptive

    def counted(*args):
        calls.append(args)
        return adaptive(*args)

    monkeypatch.setattr(quadrature, "_adaptive", counted)
    return calls
