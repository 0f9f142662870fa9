"""hessalg: type-A Hessenberg varieties over prime fields, exactly.

Computes Hess(X, H)(F_p) as explicit point sets, builds the containment
poset P_X with X-equivalence classes, and produces machine-checkable
certificates: witness flags separating strict shapes, the antidiagonal
involution, and the regular-nilpotent product decomposition.

The package loads lazily. `import hessalg` puts its five modules in
sys.modules (through importlib's LazyLoader), but each module runs only
when one of its attributes is first read, and a public name such as
`hessalg.build_poset` is taken from its module on first use (PEP 562) and
then kept in this namespace. So a cold CLI process compiles only the
modules its command runs.
"""

# The public names, by the module that defines them.
_PUBLIC = {
    "field": ("JordanSpec", "Matrix", "Subspace", "antitranspose",
              "conjugate", "image_subspace", "jordan_matrix", "jordan_spec",
              "regular_nilpotent", "similarity_transform", "span_of",
              "subspace_le", "zero_subspace"),
    "shapes": ("HessShape", "YoungDiagram", "borel_shape", "diagram_text",
               "enumerate_shapes", "full_shape", "is_strict", "parse_shape",
               "peterson_shape", "shape_from_diagram", "shape_from_function",
               "shape_hasse", "shape_le", "shape_text", "shape_to_diagram",
               "negative_root_set", "split_shape", "transpose_shape"),
    "flags": ("Flag", "FlagSet", "canonical_form", "chain", "flag_text",
              "identity_flag", "iter_flags", "member", "permutation_flag",
              "q_factorial"),
    "varieties": ("OperatorSpec", "PosetPX", "Variety", "build_poset",
                  "compute_variety", "interpolate", "jordan_operator",
                  "matrix_operator", "point_counts", "poly_text",
                  "variety_bitmaps"),
    "certificates": ("DecompositionReport", "InvolutionReport",
                     "WitnessCertificate", "certify_distinct", "check_lemma",
                     "indecomposable_interval", "involution_image",
                     "product_flag", "split_flag", "verify_decomposition",
                     "verify_involution", "witness_flag"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items()
              for name in names}

__all__ = [*_PUBLIC, *_MODULE_OF]
__version__ = "0.1.0"


def _register(name):
    """Put hessalg.<name> in sys.modules, to run on a first attribute read."""
    # Imported here, so that neither name joins the package namespace.
    import importlib.util
    import sys
    spec = importlib.util.find_spec(__name__ + "." + name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _PUBLIC:
    globals()[_name] = _register(_name)
del _name


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    # Kept, so the next `from hessalg import name` is a dict lookup.
    value = globals()[name] = getattr(globals()[_MODULE_OF[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
