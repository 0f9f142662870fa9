"""The benchmark's tracer wraps hessalg functions and Matrix methods by
name, so a traced run breaks if one of them is deleted or renamed, or if
importing hessalg.cli stops loading a module it wraps."""

import importlib
import importlib.util
import pathlib
import subprocess
import sys

from hessalg.field import Matrix

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing(monkeypatch):
    # Loaded from its file, without writing bytecode beside it and without
    # entering sys.modules.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_exists(monkeypatch):
    tracing = load_tracing(monkeypatch)
    assert tracing.FUNCTIONS and tracing.METHODS
    for module, attr, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), \
            "%s.%s" % (module, attr)
    for attr, _ in tracing.METHODS:
        assert callable(getattr(Matrix, attr, None)), "Matrix.%s" % attr


def test_importing_the_cli_loads_every_traced_module(monkeypatch):
    # Tracer.install imports hessalg.cli alone, then takes each module it
    # wraps from sys.modules.
    modules = sorted({m for m, _, _ in load_tracing(monkeypatch).FUNCTIONS})
    src = str(TRACING.parents[1] / "src")
    script = ("import sys\n"
              "sys.path.insert(0, %r)\n"
              "import hessalg.cli\n"
              "print(sorted(set(%r) - set(sys.modules)))\n" % (src, modules))
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "[]\n")
