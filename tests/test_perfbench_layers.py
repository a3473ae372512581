"""The traced benchmark wraps symlap functions by name: every one it
lists must still exist, or a traced run breaks on start-up."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, function) for module, function, *_ in spans.LAYERS]


@pytest.mark.parametrize("module,function", _layers())
def test_traced_layer_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"symlap.{module}"),
                            function, None))
