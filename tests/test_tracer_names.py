"""The benchmark's tracer wraps hessalg functions and Matrix methods by
name, so a traced run breaks if one of them is deleted or renamed."""

import importlib
import importlib.util
import pathlib
import sys

from hessalg.field import Matrix

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists(monkeypatch):
    # Loaded from its file, without writing bytecode beside it and without
    # entering sys.modules.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.FUNCTIONS and tracing.METHODS
    for module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            "%s.%s" % (module, attr)
    for attr, _ in tracing.METHODS:
        assert callable(getattr(Matrix, attr, None)), "Matrix.%s" % attr
