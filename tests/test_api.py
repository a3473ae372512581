"""symlap.__all__ is the package's public namespace, no more, no less."""

import ast
from pathlib import Path

import symlap

INIT = Path(symlap.__file__)
REMOVED = ("sl_forward_grid", "sl_forward_symmetric", "fourier_reduction")


def _imported_names():
    """The public names that __init__.py imports from its modules."""
    tree = ast.parse(INIT.read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if not alias.name.startswith("_")}


def test_every_listed_name_is_bound():
    assert [n for n in symlap.__all__ if not hasattr(symlap, n)] == []
    assert len(set(symlap.__all__)) == len(symlap.__all__)


def test_every_imported_name_is_listed():
    assert _imported_names() - set(symlap.__all__) == set()


def test_the_reduction_wrappers_are_gone():
    # each reduction is a point of sl_forward: SLPoint(0, 0, y) for
    # Fourier, SLPoint(Re s, Re s, Im s) for Laplace
    for name in REMOVED:
        assert name not in symlap.__all__
        assert name not in _imported_names()
        assert not hasattr(symlap, name)
        assert not hasattr(symlap.forward, name)
