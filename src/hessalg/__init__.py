"""hessalg: type-A Hessenberg varieties over prime fields, exactly.

Computes Hess(X, H)(F_p) as explicit point sets, builds the containment
poset P_X with X-equivalence classes, and produces machine-checkable
certificates: witness flags separating strict shapes, the antidiagonal
involution, and the regular-nilpotent product decomposition.
"""

from .field import (JordanSpec, Matrix, Subspace, antitranspose, conjugate,
                    image_subspace, jordan_matrix, jordan_spec,
                    regular_nilpotent, similarity_transform, span_of,
                    subspace_le, zero_subspace)
from .shapes import (HessShape, YoungDiagram, borel_shape, diagram_text,
                     enumerate_shapes, full_shape, is_strict, parse_shape,
                     peterson_shape, shape_from_diagram, shape_from_function,
                     shape_hasse, shape_le, shape_text, shape_to_diagram,
                     negative_root_set, split_shape, transpose_shape)
from .flags import (Flag, FlagSet, canonical_form, chain, flag_text,
                    identity_flag, iter_flags, member, permutation_flag,
                    q_factorial)
from .varieties import (OperatorSpec, PosetPX, Variety, build_poset,
                        compute_variety, interpolate, jordan_operator,
                        matrix_operator, point_counts, poly_text,
                        variety_bitmaps)
from .certificates import (DecompositionReport, InvolutionReport,
                           WitnessCertificate, certify_distinct, check_lemma,
                           indecomposable_interval, involution_image,
                           product_flag, split_flag, verify_decomposition,
                           verify_involution, witness_flag)

__version__ = "0.1.0"
