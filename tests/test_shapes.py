import itertools
from math import comb

import pytest

from hessalg.shapes import (HessShape, YoungDiagram, borel_shape, diagram_text,
                            enumerate_shapes, full_shape, is_strict, mask_text,
                            negative_root_set, parse_shape, peterson_shape,
                            shape_from_diagram, shape_from_function,
                            shape_hasse, shape_le, shape_text,
                            shape_to_diagram, split_points, split_shape,
                            transpose_shape)


def brute_strict_count(n):
    """Count non-decreasing h with h(i) >= i by direct recursion."""

    def go(i, lo):
        if i > n:
            return 1
        return sum(go(i + 1, v) for v in range(max(i, lo), n + 1))

    return go(1, 1)


# --- construction and validation ----------------------------------------------

def test_shape_from_function_strict_example():
    s = shape_from_function([2, 3, 3])
    assert s.t == (2, 3, 3)
    assert is_strict(s)
    assert mask_text(s) == "***/***/0**"


def test_borel_shape_is_upper_triangular_mask():
    s = borel_shape(3)
    assert s.t == (1, 2, 3)
    assert mask_text(s) == "***/0**/00*"


def test_generalized_shape_below_staircase():
    s = shape_from_function([0, 1, 4, 4])
    assert not is_strict(s)
    assert s.mask()[0] == (0, 1, 1, 1)
    assert s.mask()[3] == (0, 0, 1, 1)


def test_decreasing_thresholds_rejected():
    with pytest.raises(ValueError):
        shape_from_function([2, 1, 3])


def test_out_of_range_threshold_rejected():
    with pytest.raises(ValueError):
        shape_from_function([1, 2, 4])


@pytest.mark.parametrize("n", [-1, 0])
def test_enumerating_shapes_needs_a_positive_rank(n):
    with pytest.raises(ValueError, match="^rank must be positive$"):
        enumerate_shapes(n)


# --- Young diagram correspondence ---------------------------------------------

def test_borel_diagram_is_staircase():
    assert shape_to_diagram(borel_shape(3)).parts == (2, 1)


def test_full_shape_has_empty_diagram():
    assert shape_to_diagram(full_shape(4)).parts == ()


def test_rank_two_column_diagram():
    assert shape_to_diagram(shape_from_function([0, 2])).parts == (1, 1)


def test_diagram_roundtrip_all_shapes():
    for n in (2, 3, 4):
        for s in enumerate_shapes(n):
            assert shape_from_diagram(shape_to_diagram(s), n) == s


def test_diagram_too_big_rejected():
    with pytest.raises(ValueError):
        shape_from_diagram([3, 1], 2)


def test_conjugate_is_involution():
    d = YoungDiagram((4, 2, 1))
    assert d.conjugate().parts == (3, 2, 1, 1)
    assert d.conjugate().conjugate() == d


# --- enumeration ----------------------------------------------------------------

def test_strict_census_n3():
    got = [s.t for s in enumerate_shapes(3, strict_only=True)]
    assert got == [(1, 2, 3), (1, 3, 3), (2, 2, 3), (2, 3, 3), (3, 3, 3)]


def test_strict_counts_are_catalan():
    for n in range(1, 6):
        shapes = enumerate_shapes(n, strict_only=True)
        assert len(shapes) == brute_strict_count(n)
        assert len(shapes) == comb(2 * n, n) // (n + 1)


def test_generalized_count_is_binomial():
    for n in range(1, 5):
        assert len(enumerate_shapes(n)) == comb(2 * n, n)


def test_enumeration_is_lex_sorted():
    shapes = enumerate_shapes(4)
    assert [s.t for s in shapes] == sorted(s.t for s in shapes)


def test_strict_shapes_fit_inside_staircase():
    # Strict shapes are exactly those whose forbidden diagram fits in the
    # staircase (n-1, ..., 1).
    for n in range(2, 6):
        stair = tuple(range(n - 1, 0, -1))
        for s in enumerate_shapes(n):
            parts = shape_to_diagram(s).parts
            fits = len(parts) <= len(stair) and all(
                a <= b for a, b in zip(parts, stair))
            assert fits == is_strict(s)


# --- order, transpose, roots ------------------------------------------------------

def test_shape_le_examples():
    b = borel_shape(3)
    s = shape_from_function([2, 3, 3])
    assert shape_le(b, s)
    assert not shape_le(s, b)
    assert shape_le(s, full_shape(3))


def test_transpose_matches_mask_antitranspose():
    for n in (2, 3, 4):
        for s in enumerate_shapes(n):
            mask = s.mask()
            flipped = tuple(
                tuple(mask[n - 1 - j][n - 1 - i] for j in range(n))
                for i in range(n))
            assert transpose_shape(s).mask() == flipped


def test_transpose_is_involution_and_conjugates_diagram():
    for s in enumerate_shapes(4):
        t = transpose_shape(s)
        assert transpose_shape(t) == s
        assert shape_to_diagram(t) == shape_to_diagram(s).conjugate()


def test_transpose_fixed_points():
    assert transpose_shape(borel_shape(4)) == borel_shape(4)
    assert transpose_shape(shape_from_function([2, 3, 3])).t == (2, 3, 3)


def test_negative_roots_of_census():
    assert negative_root_set(borel_shape(3)) == set()
    assert negative_root_set(shape_from_function([2, 3, 3])) == {(1, 2), (2, 3)}
    assert negative_root_set(full_shape(3)) == {(1, 2), (1, 3), (2, 3)}


def test_negative_roots_need_strict():
    with pytest.raises(ValueError):
        negative_root_set(shape_from_function([0, 2]))


def brute_hasse(n, strict_only):
    shapes = enumerate_shapes(n, strict_only)
    strictly_less = {(a.t, b.t) for a in shapes for b in shapes
                     if a.t != b.t and shape_le(a, b)}
    return [(a, b) for a in shapes for b in shapes
            if (a.t, b.t) in strictly_less
            and not any((a.t, c.t) in strictly_less and (c.t, b.t) in strictly_less
                        for c in shapes)]


def test_hasse_matches_brute_force_cover_relation():
    for n in (2, 3):
        for strict_only in (False, True):
            got = set((a.t, b.t) for a, b in shape_hasse(n, strict_only))
            want = set((a.t, b.t) for a, b in brute_hasse(n, strict_only))
            assert got == want


def test_strict_hasse_n3_shape():
    edges = shape_hasse(3, strict_only=True)
    assert len(edges) == 5
    assert all(b.cells() == a.cells() + 1 for a, b in edges)


# --- splitting ----------------------------------------------------------------------

def test_split_example():
    s = shape_from_function([3, 3, 3, 5, 5])
    assert split_points(s) == [3]
    h1, h2 = split_shape(s, 3)
    assert h1.t == (3, 3, 3)
    assert h2.t == (2, 2)


def test_split_preserves_total_strictness():
    for n in (3, 4, 5):
        for s in enumerate_shapes(n, strict_only=True):
            for j in split_points(s):
                h1, h2 = split_shape(s, j)
                assert is_strict(h1) and is_strict(h2)
                assert h1.n + h2.n == n


def test_split_rejects_bad_index():
    s = shape_from_function([2, 3, 3])
    with pytest.raises(ValueError):
        split_shape(s, 1)  # t_1 = 2 != 1
    with pytest.raises(ValueError):
        split_shape(s, 3)  # j must be < n


def test_peterson_has_no_split_point():
    for n in (2, 3, 4, 5):
        assert split_points(peterson_shape(n)) == []


# --- text forms -----------------------------------------------------------------------

def test_text_forms():
    s = shape_from_function([2, 3, 3])
    assert shape_text(s) == "h:2,3,3"
    assert diagram_text(s) == "yd:1"
    assert diagram_text(full_shape(2)) == "yd:"


def test_parse_roundtrip():
    for s in enumerate_shapes(3):
        assert parse_shape(shape_text(s)) == s
        assert parse_shape(diagram_text(s), 3) == s


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_shape("2,3,3")
    with pytest.raises(ValueError):
        parse_shape("yd:1")  # diagram form needs n
    with pytest.raises(ValueError):
        parse_shape("h:2,3,3", n=4)
