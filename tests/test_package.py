"""The package's public names: the same 64 names, each the object its
module defines, although the package now loads its modules lazily."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hessalg

PUBLIC = {
    "field": ["JordanSpec", "Matrix", "Subspace", "antitranspose",
              "conjugate", "image_subspace", "jordan_matrix", "jordan_spec",
              "regular_nilpotent", "similarity_transform", "span_of",
              "subspace_le", "zero_subspace"],
    "shapes": ["HessShape", "YoungDiagram", "borel_shape", "diagram_text",
               "enumerate_shapes", "full_shape", "is_strict",
               "negative_root_set", "parse_shape", "peterson_shape",
               "shape_from_diagram", "shape_from_function", "shape_hasse",
               "shape_le", "shape_text", "shape_to_diagram", "split_shape",
               "transpose_shape"],
    "flags": ["Flag", "FlagSet", "canonical_form", "chain", "flag_text",
              "identity_flag", "iter_flags", "member", "permutation_flag",
              "q_factorial"],
    "varieties": ["OperatorSpec", "PosetPX", "Variety", "build_poset",
                  "compute_variety", "interpolate", "jordan_operator",
                  "matrix_operator", "point_counts", "poly_text",
                  "variety_bitmaps"],
    "certificates": ["DecompositionReport", "InvolutionReport",
                     "WitnessCertificate", "certify_distinct", "check_lemma",
                     "indecomposable_interval", "involution_image",
                     "product_flag", "split_flag", "verify_decomposition",
                     "verify_involution", "witness_flag"],
}
NAMES = [(module, name) for module, names in PUBLIC.items()
         for name in names]


def test_each_name_is_its_modules_object_and_stays_bound(monkeypatch):
    values = {name: getattr(importlib.import_module("hessalg." + module), name)
              for module, name in NAMES}
    namespace = {}
    for name, value in values.items():
        exec("from hessalg import %s" % name, namespace)
        assert namespace[name] is value, name
        # Once read, the name is in the package namespace, so a repeated
        # import is a dict lookup and never reaches the module __getattr__.
        assert vars(hessalg)[name] is value, name

    def refused(attr):
        raise AssertionError("__getattr__(%r)" % attr)
    monkeypatch.setattr(hessalg, "__getattr__", refused, raising=False)
    namespace = {}
    exec("from hessalg import %s" % ", ".join(values), namespace)
    assert all(namespace[name] is value for name, value in values.items())


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hessalg.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from hessalg import no_such_name", {})
    # A private name of a module is not a name of the package.
    assert not hasattr(hessalg, "_pack")


def test_star_import_and_dir_list_the_same_names_in_a_fresh_interpreter():
    """Exactly the 64 names and the five modules: not the helpers of the
    lazy loading, and before any module has run."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = ("import json, sys\n"
              "sys.path.insert(0, %r)\n"
              "import hessalg\n"
              "public = [n for n in dir(hessalg) if not n.startswith('_')]\n"
              "namespace = {}\n"
              "exec('from hessalg import *', namespace)\n"
              "namespace.pop('__builtins__')\n"
              "print(json.dumps([public, sorted(namespace)]))\n" % src)
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    expected = sorted([*PUBLIC, *(name for _, name in NAMES)])
    assert (len(NAMES), len(expected)) == (64, 69)
    assert json.loads(out.stdout) == [expected, expected]
