import pytest

from hessalg.field import regular_nilpotent
from hessalg.flags import flag_text, iter_flags, member, q_factorial
from hessalg.shapes import (borel_shape, diagram_text, full_shape,
                            peterson_shape, shape_from_function, shape_text)
from hessalg.varieties import (EQUAL, INCOMPARABLE, PROPERLY_CONTAINED,
                               PROPERLY_CONTAINS, OperatorSpec, build_poset,
                               compare, compute_variety, interpolate,
                               jordan_operator, matrix_operator, point_counts,
                               poly_text, variety_bitmaps,
                               x_equivalence_classes)


def point_names(variety):
    flags = list(iter_flags(variety.shape.n, variety.p))
    return [flag_text(flags[i]) for i in variety.points.indices()]


# --- operator specs -------------------------------------------------------------

def test_jordan_operator_resolves_per_prime():
    op = jordan_operator([(1, 1), (0, 1)])
    assert op.matrix(5).rows == ((1, 0), (0, 0))
    assert op.n == 2
    assert not op.is_scalar(5)


def test_symbolic_eigenvalues_descend_from_p_minus_one():
    op = jordan_operator([("a", 3), ("b", 2), ("c", 1)])
    m = op.matrix(5)
    assert m.entry(1, 1) == 4 and m.entry(4, 4) == 3 and m.entry(6, 6) == 2


def test_symbolic_eigenvalues_need_enough_residues():
    op = jordan_operator([("a", 1), ("b", 1), ("c", 1)])
    with pytest.raises(ValueError):
        op.jordan(2)
    assert op.jordan(3) is not None


def test_symbols_skip_the_integer_eigenvalues():
    op = jordan_operator([("a", 1), (2, 1)])
    assert op.jordan(3).blocks == ((2, 1), (1, 1))
    assert op.jordan(5).blocks == ((4, 1), (2, 1))
    assert not op.is_scalar(3)
    assert not op.is_scalar(5)
    # -1 is p - 1, so the symbols step past it.
    op = jordan_operator([("a", 1), ("b", 1), (-1, 1)])
    assert op.jordan(5).blocks == ((4, 1), (3, 1), (2, 1))
    with pytest.raises(ValueError):
        jordan_operator([("a", 1), (0, 1), (1, 1)]).jordan(2)


def test_all_symbol_operators_resolve_as_before():
    op = jordan_operator([("a", 1), ("b", 1), ("c", 1)])
    for p in (3, 5, 7):
        assert op.jordan(p).blocks == ((p - 1, 1), (p - 2, 1), (p - 3, 1))
    op = jordan_operator([("c", 2), ("a", 1), ("b", 2)])
    assert op.jordan(5).blocks == ((4, 1), (3, 2), (2, 2))


def test_matrix_operator_and_scalar_detection():
    op = matrix_operator([[2, 0], [0, 2]])
    assert op.is_scalar(3)
    assert op.is_scalar(5)
    assert not matrix_operator([[2, 1], [0, 2]]).is_scalar(3)


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(name="x", n=2)
    with pytest.raises(ValueError):
        jordan_operator([(0, 2)], n=3)


# --- single varieties -------------------------------------------------------------

def test_projection_borel_variety_is_the_two_eigenflags():
    op = jordan_operator([(1, 1), (0, 1)])
    v = compute_variety(op, borel_shape(2), 2)
    assert point_names(v) == ["[e1,e2]", "[e2,e1]"]


def test_projection_kernel_variety_is_one_point():
    op = jordan_operator([(1, 1), (0, 1)])
    v = compute_variety(op, shape_from_function([0, 2]), 3)
    assert point_names(v) == ["[e2,e1]"]


def test_empty_variety():
    op = jordan_operator([(1, 1), (0, 1)])
    v = compute_variety(op, shape_from_function([0, 0]), 2)
    assert v.points.count == 0


def test_full_shape_gives_all_flags():
    op = jordan_operator([(0, 3)])
    for p in (2, 3):
        v = compute_variety(op, full_shape(3), p)
        assert v.points.count == q_factorial(3, p)


def test_peterson_variety_against_chain_oracle():
    op = jordan_operator([(0, 3)])
    s = peterson_shape(3)
    for p in (2, 3):
        v = compute_variety(op, s, p)
        x = regular_nilpotent(3, p)
        oracle = [f.index for f in iter_flags(3, p) if member(x, s, f)]
        assert v.points.indices() == oracle


def test_variety_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        compute_variety(jordan_operator([(0, 2)]), borel_shape(3), 2)


def test_guard_and_override():
    op = jordan_operator([(0, 2)])
    with pytest.raises(ValueError):
        compute_variety(op, borel_shape(2), 11)
    v = compute_variety(op, borel_shape(2), 11, override=True)
    assert v.points.count == 1


def test_build_poset_refuses_repeated_primes(monkeypatch):
    # Refused before any search runs.
    def no_search(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr("hessalg.varieties._hull_groups", no_search)
    with pytest.raises(ValueError, match="primes must be distinct"):
        build_poset(jordan_operator([(0, 2)]), (2, 2))


def test_build_poset_size_guard():
    # build_poset has no override; it checks the guard at every prime.
    with pytest.raises(ValueError, match="size guard"):
        build_poset(jordan_operator([(0, 2)]), (2, 11))
    with pytest.raises(ValueError, match="size guard"):
        build_poset(jordan_operator([(0, 7)]), 2)


def test_bitmaps_are_stable_across_runs_and_shape_lists():
    op = jordan_operator([(0, 4)])
    shapes = [peterson_shape(4), borel_shape(4), full_shape(4)]
    x = op.matrix(2)
    base = [b.bits for b in variety_bitmaps(x, shapes, 4, 2)]
    assert [b.bits for b in variety_bitmaps(x, shapes, 4, 2)] == base
    # One shape at a time prunes harder; the bitmaps must not change.
    assert [variety_bitmaps(x, [s], 4, 2)[0].bits for s in shapes] == base


# --- comparison ------------------------------------------------------------------

def test_compare_outcomes():
    op = jordan_operator([(1, 1), (0, 1)])
    p = 3
    borel = compute_variety(op, borel_shape(2), p)
    kernel = compute_variety(op, shape_from_function([0, 2]), p)
    image = compute_variety(op, shape_from_function([1, 1]), p)
    assert compare(borel, borel) == EQUAL
    assert compare(kernel, borel) == PROPERLY_CONTAINED
    assert compare(borel, kernel) == PROPERLY_CONTAINS
    assert compare(kernel, image) == INCOMPARABLE


def test_compare_rejects_context_mismatch():
    op = jordan_operator([(1, 1), (0, 1)])
    v2 = compute_variety(op, borel_shape(2), 2)
    v3 = compute_variety(op, borel_shape(2), 3)
    with pytest.raises(ValueError):
        compare(v2, v3)


# --- posets and equivalence --------------------------------------------------------

def test_projection_poset_has_five_classes():
    # X = diag(1,0): the six rank-2 shapes collapse to five classes, with the
    # two smallest shapes sharing the empty variety.
    op = jordan_operator([(1, 1), (0, 1)])
    poset = build_poset(op, (2, 3, 5))
    assert len(poset.classes) == 5
    by_name = {c.name: c for c in poset.classes}
    empty = by_name["yd:2,2"]
    assert sorted(shape_text(s) for s in empty.shapes) == ["h:0,0", "h:0,1"]
    assert all(b.count == 0 for b in empty.bitmaps)
    assert [b.count for b in by_name["yd:1,1"].bitmaps] == [1, 1, 1]
    assert [b.count for b in by_name["yd:2"].bitmaps] == [1, 1, 1]
    assert [b.count for b in by_name["yd:1"].bitmaps] == [2, 2, 2]
    assert [b.count for b in by_name["yd:"].bitmaps] == [3, 4, 6]
    # The two one-point varieties are different points, hence incomparable.
    edges = set(poset.hasse)
    assert ("yd:1,1", "yd:1") in edges and ("yd:2", "yd:1") in edges
    assert ("yd:1,1", "yd:2") not in edges and ("yd:2", "yd:1,1") not in edges


def test_projection_point_sets_match_example():
    op = jordan_operator([(1, 1), (0, 1)])
    assert point_names(compute_variety(op, shape_from_function([0, 2]), 2)) \
        == ["[e2,e1]"]
    assert point_names(compute_variety(op, shape_from_function([1, 1]), 2)) \
        == ["[e1,e2]"]
    assert point_names(compute_variety(op, borel_shape(2), 2)) \
        == ["[e1,e2]", "[e2,e1]"]


def test_nilpotent_poset_is_a_three_chain():
    op = jordan_operator([(0, 2)])
    poset = build_poset(op, (2, 3, 5))
    assert len(poset.classes) == 3
    by_name = {c.name: c for c in poset.classes}
    middle = by_name["yd:2,1"]
    assert sorted(shape_text(s) for s in middle.shapes) == \
        ["h:0,1", "h:0,2", "h:1,1", "h:1,2"]
    assert [b.count for b in middle.bitmaps] == [1, 1, 1]
    assert set(poset.hasse) == {("yd:2,2", "yd:2,1"), ("yd:2,1", "yd:")}


def test_diag_1100_equivalence_example():
    op = jordan_operator([(1, 1), (1, 1), (0, 1), (0, 1)])
    classes = x_equivalence_classes(op, (2, 3))
    target = {(0, 1, 4, 4), (0, 0, 4, 4)}
    hit = [cls for cls in classes if target & {s.t for s in cls}]
    assert len(hit) == 1
    assert target <= {s.t for s in hit[0]}


def test_zero_operator_collapses_strict_shapes():
    op = matrix_operator([[0, 0], [0, 0]])
    classes = x_equivalence_classes(op, (2,), strict_only=True)
    assert len(classes) == 1


def test_nonscalar_strict_classes_are_singletons():
    for op in (jordan_operator([(0, 3)]), jordan_operator([(1, 1), (0, 2)])):
        classes = x_equivalence_classes(op, (2, 3), strict_only=True)
        assert all(len(cls) == 1 for cls in classes)
        assert len(classes) == 5


# --- counting and interpolation ------------------------------------------------------

def test_peterson_counts_and_fit():
    op = jordan_operator([(0, 3)])
    primes = (2, 3, 5)
    counts = point_counts(op, peterson_shape(3), primes)
    assert counts == [9, 16, 36]
    assert interpolate(primes, counts, 3) == [1, 2, 1]
    assert poly_text([1, 2, 1]) == "q^2+2q+1"


def test_full_flag_count_fit_n2():
    assert interpolate((2, 3, 5), [3, 4, 6], 1) == [1, 1]
    assert poly_text([1, 1]) == "q+1"


def test_interpolate_degree_bound_and_non_integrality():
    # (2,1), (3,2), (5,4) fit q - 1 exactly.
    assert interpolate((2, 3, 5), [1, 2, 4], 3) == [-1, 1]
    assert poly_text([-1, 1]) == "q-1"
    # A quadratic cannot pass for a degree bound of 1.
    assert interpolate((2, 3, 5), [9, 16, 36], 1) is None
    # Non-integer interpolant: slope 1/3 through (2, 0) and (5, 1).
    assert interpolate((2, 5), [0, 1], 3) is None


def test_interpolate_input_validation():
    with pytest.raises(ValueError):
        interpolate((2, 2), [1, 1], 2)
    with pytest.raises(ValueError):
        interpolate((), [], 2)


def test_poly_text_edge_cases():
    assert poly_text([0]) == "0"
    assert poly_text([5]) == "5"
    assert poly_text([0, 0, 3]) == "3q^2"
