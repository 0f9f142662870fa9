"""The benchmark's tracer wraps hessalg functions and Matrix methods by
name, so a traced run breaks if one of them is deleted or renamed, or if
importing hessalg.cli stops putting a module it wraps in sys.modules."""

import importlib
import importlib.util
import json
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
    # wraps from sys.modules. The package puts its modules there lazily:
    # each is in sys.modules from `import hessalg` on, and runs when the
    # tracer first reads one of its attributes.
    modules = sorted({m for m, _, _ in load_tracing(monkeypatch).FUNCTIONS})
    src = str(TRACING.parents[1] / "src")
    script = ("import sys\n"
              "sys.path.insert(0, %r)\n"
              "import hessalg.cli\n"
              "print(sorted(set(%r) - set(sys.modules)))\n" % (src, modules))
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr, out.stdout) == (0, "", "[]\n")


def test_the_tracer_wraps_the_lazily_loaded_modules(monkeypatch):
    """In a fresh interpreter, install wraps every traced function and
    method, and a traced `poset` command records its spans."""
    src = str(TRACING.parents[1] / "src")
    script = (
        "import contextlib, io, json, sys\n"
        "sys.path[:0] = [%r, %r]\n"
        "import tracing\n"
        "tracer = tracing.Tracer()\n"
        "tracer.install()\n"
        "import hessalg.cli\n"
        "from hessalg.field import Matrix\n"
        "wrapped = [[name, getattr(sys.modules[module], attr).__qualname__]\n"
        "           for module, attr, name in tracing.FUNCTIONS]\n"
        "wrapped += [[name, getattr(Matrix, attr).__qualname__]\n"
        "            for attr, name in tracing.METHODS]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hessalg.cli.main(['poset', '--n', '3', '--x',\n"
        "                             'jordan:0^3', '--p', '2'])\n"
        "spans = sorted({tracer.names[i] for i in tracer.name_ids})\n"
        "print(json.dumps([wrapped, code, spans]))\n"
        % (src, str(TRACING.parent)))
    out = subprocess.run([sys.executable, "-B", "-S", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    wrapped, code, spans = json.loads(out.stdout)
    tracing = load_tracing(monkeypatch)
    assert [name for name, _ in wrapped] == (
        [name for _, _, name in tracing.FUNCTIONS]
        + [name for _, name in tracing.METHODS])
    for name, qualname in wrapped:
        assert qualname.startswith("Tracer.wrap.<locals>."), name
    assert code == 0
    assert {"cli.main", "varieties.build_poset"} <= set(spans)
