import gc
import itertools
import operator
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hessalg import varieties
from hessalg.certificates import verify_involution
from hessalg.field import regular_nilpotent
from hessalg.flags import (check_guards, flag_text, iter_flags, member,
                           q_factorial)
from hessalg.shapes import (borel_shape, diagram_text, enumerate_shapes,
                            full_shape, peterson_shape, shape_from_function,
                            shape_text, transpose_shape)
from hessalg.varieties import (OperatorSpec, build_poset, compute_variety,
                               interpolate, jordan_operator, matrix_operator,
                               point_counts, poly_text, variety_bitmaps,
                               variety_indices)


def cold_bitmaps(x, shapes, n, p):
    """variety_bitmaps from a fresh search, with the memo cleared."""
    varieties._hull_memo.clear()
    return variety_bitmaps(x, shapes, n, p)


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


def test_resolving_the_eigenvalues_reads_few_residues():
    # A list of every free residue would take about 40 MB at this p, and
    # gigabytes from p ~ 10^8 on.
    p = 1000003
    tracemalloc.start()
    try:
        nilpotent = jordan_operator([(0, 2)]).jordan(p)
        mixed = jordan_operator([("a", 1), ("b", 1), (-1, 1)]).jordan(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert nilpotent.blocks == ((0, 2),)
    assert mixed.blocks == ((p - 1, 1), (p - 2, 1), (p - 3, 1))


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


def test_a_search_leaves_nothing_to_the_cyclic_collector():
    x = regular_nilpotent(4, 3)
    shape = shape_from_function([2, 3, 4, 4])
    gc.collect()
    gc.disable()
    try:
        variety_bitmaps(x, [shape], 4, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_variety_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        compute_variety(jordan_operator([(0, 2)]), borel_shape(3), 2)


def test_guard_and_override():
    op = jordan_operator([(0, 2)])
    with pytest.raises(ValueError):
        compute_variety(op, borel_shape(2), 11)
    v = compute_variety(op, borel_shape(2), 11, override=True)
    assert v.points.count == 1


def test_override_does_not_lift_the_bitmap_cap(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("searched or allocated past the cap")

    monkeypatch.setattr("hessalg.varieties._hull_groups", refused)
    monkeypatch.setattr("hessalg.flags.bits_from_indices", refused)
    op = jordan_operator([(0, 6)])
    with pytest.raises(ValueError, match="bitmap cap"):
        compute_variety(op, shape_from_function([2, 3, 4, 5, 6, 6]), 7,
                        override=True)
    # The cap is on the flag count, [2]_q! = q + 1 at n = 2.
    check_guards(2, (1 << 32) - 1, override=True)
    with pytest.raises(ValueError, match="bitmap cap"):
        check_guards(2, 1 << 32, override=True)


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
    varieties._hull_memo.clear()
    assert [b.bits for b in variety_bitmaps(x, shapes, 4, 2)] == base
    # One shape at a time prunes harder; the bitmaps must not change.
    assert [cold_bitmaps(x, [s], 4, 2)[0].bits for s in shapes] == base


# --- comparison ------------------------------------------------------------------

def test_compare_outcomes():
    # Containment of varieties in one context is inclusion of bitmaps.
    op = jordan_operator([(1, 1), (0, 1)])
    p = 3
    borel = compute_variety(op, borel_shape(2), p).points.bits
    kernel = compute_variety(op, shape_from_function([0, 2]), p).points.bits
    image = compute_variety(op, shape_from_function([1, 1]), p).points.bits
    assert kernel & borel == kernel != borel  # properly contained
    assert borel | kernel == borel != kernel  # properly contains
    assert kernel & image not in (kernel, image)  # incomparable


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
    assert empty.counts == (0, 0, 0)
    assert by_name["yd:1,1"].counts == (1, 1, 1)
    assert by_name["yd:2"].counts == (1, 1, 1)
    assert by_name["yd:1"].counts == (2, 2, 2)
    assert by_name["yd:"].counts == (3, 4, 6)
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
    assert middle.counts == (1, 1, 1)
    assert set(poset.hasse) == {("yd:2,2", "yd:2,1"), ("yd:2,1", "yd:")}


def test_diag_1100_equivalence_example():
    op = jordan_operator([(1, 1), (1, 1), (0, 1), (0, 1)])
    classes = [c.shapes for c in build_poset(op, (2, 3)).classes]
    target = {(0, 1, 4, 4), (0, 0, 4, 4)}
    hit = [cls for cls in classes if target & {s.t for s in cls}]
    assert len(hit) == 1
    assert target <= {s.t for s in hit[0]}


def test_zero_operator_collapses_strict_shapes():
    op = matrix_operator([[0, 0], [0, 0]])
    assert len(build_poset(op, (2,), strict_only=True).classes) == 1


def test_nonscalar_strict_classes_are_singletons():
    for op in (jordan_operator([(0, 3)]), jordan_operator([(1, 1), (0, 2)])):
        classes = [c.shapes
                   for c in build_poset(op, (2, 3), strict_only=True).classes]
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


@settings(max_examples=200)
@given(st.data(), st.integers(1, 6))
def test_interpolate_recovers_an_integer_polynomial(data, k):
    # A polynomial of degree < k through k distinct integers comes back
    # exactly, with its trailing zero coefficients stripped.
    coeffs = data.draw(st.lists(st.integers(-20, 20), min_size=k,
                                max_size=k))
    nodes = data.draw(st.lists(st.integers(-10, 10), min_size=k,
                               max_size=k, unique=True))
    counts = [sum(c * q ** i for i, c in enumerate(coeffs)) for q in nodes]
    expected = list(coeffs)
    while len(expected) > 1 and expected[-1] == 0:
        expected.pop()
    assert interpolate(nodes, counts) == expected


def test_poly_text_edge_cases():
    assert poly_text([0]) == "0"
    assert poly_text([5]) == "5"
    assert poly_text([0, 0, 3]) == "3q^2"


# --- the hull-table memo -----------------------------------------------------------

SLOW = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def small_operators(draw, n):
    """Jordan operators with integer eigenvalues, and integer matrices drawn
    from a seeded random generator."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
        return matrix_operator([[rng.randint(-6, 6) for _ in range(n)]
                                for _ in range(n)])
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    return jordan_operator([(draw(st.integers(-2, 2)), size)
                            for size in sizes])


@settings(SLOW, max_examples=40)
@given(st.data(), st.integers(1, 4), st.sampled_from([2, 3, 5]),
       st.booleans())
def test_the_hull_memo_never_changes_a_bitmap(data, n, p, strict_only):
    # Random requests on one context, so that the memo hits, grows and
    # jumps; each result equals the one from an empty memo.
    op = data.draw(small_operators(n))
    x = op.matrix(p)
    shapes = enumerate_shapes(n)
    requests = data.draw(st.lists(
        st.lists(st.sampled_from(shapes), min_size=1, max_size=3,
                 unique=True), min_size=1, max_size=6))
    varieties._hull_memo.clear()
    warm = [[b.bits for b in variety_bitmaps(x, shapes, n, p)]
            for shapes in requests]
    warm_poset = build_poset(op, (p,), strict_only)
    cold = [[b.bits for b in cold_bitmaps(x, shapes, n, p)]
            for shapes in requests]
    varieties._hull_memo.clear()
    assert warm == cold
    assert warm_poset == build_poset(op, (p,), strict_only)


def test_a_context_is_searched_at_most_n_plus_one_times(monkeypatch):
    searches = Counter()
    real = varieties._profile_groups

    def counted(x, n, p, bound):
        searches[x] += 1
        return real(x, n, p, bound)

    monkeypatch.setattr(varieties, "_profile_groups", counted)
    # Every context is treated as too large to search in full at once.
    monkeypatch.setattr(varieties, "FULL_SEARCH_FLAGS", 0)
    # X and w0 X^T w0 differ here, so the sweep uses two contexts.
    op = jordan_operator([(1, 2), (0, 1)])
    shapes = enumerate_shapes(3)
    assert len(shapes) == 20
    for s in shapes:
        assert verify_involution(op, s, 5).ok
    assert len(searches) == 2
    assert max(searches.values()) <= 3 + 1


@pytest.mark.parametrize("n, p", [(3, 5), (4, 2), (4, 3)])
def test_a_small_context_is_searched_in_full_when_outgrown(monkeypatch, n,
                                                           p):
    # (3, 5) and (4, 2) have 186 and 315 flags, (4, 3) has 2,080: more
    # than FULL_SEARCH_FLAGS, so its bound jumps coordinate by coordinate.
    bounds = []
    real = varieties._profile_groups

    def counted(x, n, p, bound):
        bounds.append(list(bound))
        return real(x, n, p, bound)

    x = regular_nilpotent(n, p)
    shapes = enumerate_shapes(n)
    cold = [sorted(cold_bitmaps(x, [s], n, p)[0].indices()) for s in shapes]
    monkeypatch.setattr(varieties, "_profile_groups", counted)
    varieties._hull_memo.clear()
    warm = [sorted(variety_indices(x, [s], n, p)[0]) for s in shapes]
    assert warm == cold
    small = q_factorial(n, p) <= varieties.FULL_SEARCH_FLAGS
    assert small == ((n, p) != (4, 3))
    assert bounds[0] == list(shapes[0].t)
    if small:
        assert bounds[1:] == [[n] * n]
    else:
        assert 2 < len(bounds) <= n + 1 and bounds[1] == [0] * (n - 1) + [n]


def test_a_table_over_the_index_cap_is_not_stored(monkeypatch):
    monkeypatch.setattr(varieties, "HULL_MEMO_INDICES", 100)
    x = regular_nilpotent(4, 2)
    full = variety_bitmaps(x, [full_shape(4)], 4, 2)[0]
    assert full.count == 315
    assert not varieties._hull_memo
    small = variety_bitmaps(x, [peterson_shape(4)], 4, 2)[0]
    assert small.count == 27
    (table,) = varieties._hull_memo.values()
    assert table.bound == peterson_shape(4).t
    assert table.size == 27 == sum(len(idx) for idx in table.values())
    # The context has more flags than the cap, so a request the stored
    # table does not cover searches under its own bound, without a jump.
    wide = variety_bitmaps(x, [shape_from_function([3, 4, 4, 4])], 4, 2)[0]
    assert wide.count == 7 * 7 * 3
    assert not varieties._hull_memo
    assert variety_bitmaps(x, [full_shape(4)], 4, 2)[0] == full


def test_a_warm_read_takes_its_groups_from_the_shape_memo(monkeypatch):
    monkeypatch.setattr(varieties, "SHAPE_MEMO_SIZE", 3)
    scans = []
    real = varieties._bound_lanes

    def counted(t):
        scans.append(t)
        return real(t)

    monkeypatch.setattr(varieties, "_bound_lanes", counted)
    x = regular_nilpotent(3, 2)
    shapes = enumerate_shapes(3)
    cold = [sorted(cold_bitmaps(x, [s], 3, 2)[0].indices()) for s in shapes]
    varieties._hull_memo.clear()
    assert sorted(variety_indices(x, [peterson_shape(3)], 3, 2)[0]) == \
        cold[shapes.index(peterson_shape(3))]
    (first,) = varieties._hull_memo.values()
    assert list(first.below) == [peterson_shape(3).t]
    # The full shape jumps the bound: the new table has a new shape memo.
    variety_indices(x, [full_shape(3)], 3, 2)
    (table,) = varieties._hull_memo.values()
    assert table is not first and list(table.below) == [full_shape(3).t]
    warm = [sorted(variety_indices(x, [s], 3, 2)[0]) for s in shapes]
    assert warm == cold
    (same,) = varieties._hull_memo.values()
    assert same is table and len(table.below) == 3
    scans.clear()
    reads = []
    real_groups = varieties._hull_groups

    def read(x, n, p, shapes):
        reads.append(shapes)
        return real_groups(x, n, p, shapes)

    def refused(*args):
        raise AssertionError("a warm read searched")

    monkeypatch.setattr(varieties, "_hull_groups", read)
    monkeypatch.setattr(varieties, "_profile_groups", refused)
    again = [sorted(variety_indices(x, [s], 3, 2)[0]) for s in shapes]
    assert again == cold
    # Only the shapes beyond the shape memo's bound scan the hulls; every
    # read looks the table up once, and none searches.
    assert {tuple(t) for t in scans} == {s.t for s in shapes} - set(
        table.below)
    assert [s for (s,) in reads] == shapes
    (last,) = varieties._hull_memo.values()
    assert last is table


def _below(hull, t) -> bool:
    """The tuple test the packed one replaces: hull <= t componentwise."""
    return all(map(operator.le, hull, t))


@pytest.mark.parametrize("n", range(1, 9))
def test_the_packed_hull_test_equals_below(n):
    # Every (hull, shape) pair up to n = 6; at n = 7 and 8 every
    # non-decreasing hull and random vectors in 0..n against sampled
    # shapes. The table's groups stand for themselves.
    shapes = [s.t for s in enumerate_shapes(n)]
    hulls = list(shapes)
    if n > 6:
        rng = random.Random(n)
        hulls += [tuple(rng.randint(0, n) for _ in range(n))
                  for _ in range(500)]
        shapes = rng.sample(shapes, 60) + [(0,) * n, (n,) * n,
                                           tuple(range(1, n + 1))]
    table = varieties.HullTable(None)
    table.update((varieties._pack(h, n.bit_length() + 1), h) for h in hulls)
    for t in shapes:
        mask, groups = varieties._downset(table, t)
        assert mask == sum(1 << k for k, h in enumerate(table.values())
                           if _below(h, t))
        assert groups == tuple(h for h in table.values() if _below(h, t))


def test_the_memo_keeps_its_entry_bound_least_recently_used_first(
        monkeypatch):
    monkeypatch.setattr(varieties, "HULL_MEMO_SIZE", 3)
    ops = [jordan_operator(blocks).matrix(2)
           for blocks in ([(0, 3)], [(1, 3)], [(1, 2), (0, 1)],
                          [(1, 1), (0, 2)], [(1, 1), (0, 1), (0, 1)])]
    assert len(set(ops)) == len(ops)

    def held():
        return [key[0] for key in varieties._hull_memo]

    for x in ops[:3]:
        variety_bitmaps(x, [peterson_shape(3)], 3, 2)
    assert held() == ops[:3]
    # A hit (the Borel shape lies below the Peterson shape) makes the
    # table the most recently used one.
    variety_bitmaps(ops[0], [borel_shape(3)], 3, 2)
    assert held() == [ops[1], ops[2], ops[0]]
    variety_bitmaps(ops[3], [peterson_shape(3)], 3, 2)
    assert held() == [ops[2], ops[0], ops[3]]
    variety_bitmaps(ops[4], [peterson_shape(3)], 3, 2)
    assert held() == [ops[0], ops[3], ops[4]]
    # So does a read answered from the table's shape memo alone.
    assert peterson_shape(3).t in varieties._hull_memo[
        (ops[0], 3, 2)].below
    variety_bitmaps(ops[0], [peterson_shape(3)], 3, 2)
    assert held() == [ops[3], ops[4], ops[0]]


# --- P_X classes are meet-closed and convex ------------------------------------------

def assert_classes_hold_meets_and_intervals(poset, n, strict_only):
    """A flag lies in Hess(X, t) iff X F_j lies in F_{t_j} for every j, and
    the F_k form a chain, so Hess(X, s ^ s') = Hess(X, s) & Hess(X, s')
    for the componentwise minimum ^. So each class holds the meet of any
    two of its shapes, and containment of varieties is monotone, so it
    holds every shape between two of its shapes."""
    shapes = [s.t for s in enumerate_shapes(n, strict_only)]
    class_of = {s.t: c.name for c in poset.classes for s in c.shapes}
    assert sorted(class_of) == sorted(shapes)
    for c in poset.classes:
        members = [s.t for s in c.shapes]
        for a, b in itertools.combinations(members, 2):
            assert class_of[tuple(map(min, a, b))] == c.name
            low, high = (a, b) if _below(a, b) else (b, a)
            if _below(low, high):
                assert all(class_of[t] == c.name for t in shapes
                           if _below(low, t) and _below(t, high))


@settings(SLOW, max_examples=40)
@given(st.data(), st.integers(1, 4), st.sampled_from([(2,), (3,), (2, 3)]),
       st.booleans())
def test_every_class_holds_the_meet_and_the_shapes_between_two_members(
        data, n, primes, strict_only):
    op = data.draw(small_operators(n))
    assert_classes_hold_meets_and_intervals(
        build_poset(op, primes, strict_only), n, strict_only)


@pytest.mark.parametrize("zeros", range(3))
@pytest.mark.parametrize("strict_only", [False, True])
def test_classes_hold_meets_and_intervals_under_a_residue_clash(
        zeros, strict_only):
    # 2 = 0 mod 2: the two primes see different operators.
    op = jordan_operator([(1, 1), (2, 1)] + [(0, 1)] * zeros)
    assert_classes_hold_meets_and_intervals(
        build_poset(op, (2, 3), strict_only), op.n, strict_only)


# --- the paper's involution as an automorphism of P_X --------------------------------

@settings(SLOW, max_examples=30)
@given(st.data(), st.integers(1, 4), st.sampled_from([(2,), (3,), (2, 3)]),
       st.booleans())
def test_transposing_shapes_is_an_automorphism_of_the_poset(
        data, n, primes, strict_only):
    # s -> s^T maps Hess(X, s) onto Hess(X, s^T) by one bijection of G/B,
    # so it permutes the classes, keeps every count and keeps the covers.
    op = data.draw(small_operators(n))
    poset = build_poset(op, primes, strict_only)
    by_name = {c.name: c for c in poset.classes}
    class_of = {s: c.name for c in poset.classes for s in c.shapes}
    image = {}
    for c in poset.classes:
        (target,) = {class_of[transpose_shape(s)] for s in c.shapes}
        d = by_name[target]
        assert {transpose_shape(s) for s in c.shapes} == set(d.shapes)
        assert c.counts == d.counts
        image[c.name] = target
    assert sorted(image.values()) == sorted(image)
    assert {(image[a], image[b]) for a, b in poset.hasse} == set(poset.hasse)
