"""The benchmark's traced layers name functions that exist in the package.

`bench/tracing.py` looks each ``(module, name)`` of `LAYERS` up with
``getattr`` when ``bench/run.py --trace 1`` installs its wrappers, so a
deleted or renamed public function breaks the traced run; this test breaks
first.
"""

import importlib
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
sys.dont_write_bytecode, _writes = True, sys.dont_write_bytecode  # leave bench/ untouched
import tracing  # noqa: E402

sys.dont_write_bytecode = _writes


@pytest.mark.parametrize("module, name", sorted(tracing.LAYERS))
def test_traced_layer_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"u1rotor.{module}"), name))
