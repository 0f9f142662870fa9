"""Property tests of the membership kernel (variety_bitmaps) against
oracles that do not share its code: the flag-chain test `member`, the
closed-form point counts of regular nilpotent and regular semisimple
Hessenberg varieties, and the paving by affine cells."""

import itertools
import tracemalloc
from math import comb

from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hessalg import varieties
from hessalg.field import Matrix, regular_nilpotent
from hessalg.flags import (flag_at, flag_cell, iter_flags, member,
                          q_factorial)
from hessalg.shapes import (HessShape, diagram_text, enumerate_shapes,
                            peterson_shape)
from hessalg.varieties import (build_poset, jordan_operator, matrix_operator,
                               variety_bitmaps)

SLOW = settings(deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


def _nilpotent_count(s, q):
    """#Hess(N, h)(F_q) = prod_j [h(j) - j + 1]_q for regular nilpotent N
    and a strict shape h."""
    count = 1
    for j, h in enumerate(s.t, start=1):
        count *= sum(q ** i for i in range(h - j + 1))
    return count


@st.composite
def operators(draw, n):
    """Random integer matrices (reduced mod p later) and Jordan operators
    with integer and symbolic eigenvalues."""
    if draw(st.booleans()):
        entries = draw(st.lists(st.integers(-12, 12), min_size=n * n,
                                max_size=n * n))
        return matrix_operator([entries[i * n:(i + 1) * n]
                                for i in range(n)])
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    eigen = st.one_of(st.integers(-3, 3), st.sampled_from("ab"))
    return jordan_operator([(draw(eigen), size) for size in sizes])


def _draw_matrix(data, n, p):
    return _resolve(data.draw(operators(n)), p)


def _resolve(op, p):
    try:
        return op.matrix(p)
    except ValueError:  # more symbols than free residues mod p
        assume(False)


def _oracle_bits(x, s, flags):
    return sum(1 << f.index for f in flags if member(x, s, f))


def _cold_bitmaps(x, shapes, n, p):
    """variety_bitmaps from a search under these shapes' own bound, not
    from a table a wider search left in the memo."""
    varieties._hull_memo.clear()
    return variety_bitmaps(x, shapes, n, p)


@settings(SLOW, max_examples=40)
@given(st.data(), st.integers(1, 3), st.sampled_from([2, 3]))
def test_bitmaps_equal_chain_oracle_on_all_shapes(data, n, p):
    x = _draw_matrix(data, n, p)
    shapes = enumerate_shapes(n)
    assert len(shapes) == comb(2 * n, n)
    flags = list(iter_flags(n, p))
    expected = [_oracle_bits(x, s, flags) for s in shapes]
    # All shapes in one unpruned pass, then each shape on its own, where
    # the search prunes hardest.
    assert [b.bits for b in variety_bitmaps(x, shapes, n, p)] == expected
    assert [_cold_bitmaps(x, [s], n, p)[0].bits for s in shapes] == expected


@settings(SLOW, max_examples=12)
@given(st.data(), st.sampled_from([2, 3]))
def test_bitmaps_equal_chain_oracle_at_rank_four(data, p):
    n = 4
    x = _draw_matrix(data, n, p)
    shapes = enumerate_shapes(n)
    every = variety_bitmaps(x, shapes, n, p)
    # A few shapes, strict or not, checked against the oracle on every
    # flag; the search is pruned by their componentwise maximum.
    picked = data.draw(st.lists(st.sampled_from(shapes), min_size=1,
                                max_size=2, unique=True))
    flags = list(iter_flags(n, p))
    got = _cold_bitmaps(x, picked, n, p)
    assert [b.bits for b in got] == [_oracle_bits(x, s, flags)
                                     for s in picked]
    # All C(8, 4) = 70 shapes, checked on sampled flags.
    for index in data.draw(st.lists(st.integers(0, len(flags) - 1),
                                    min_size=1, max_size=8)):
        f = flag_at(index, n, p)
        assert [b.contains(index) for b in every] == \
            [member(x, s, f) for s in shapes]


# Strict shapes at n = 6 with at most 20,000 points: one search costs up
# to 2.5 s there, against 9 s for the unpruned full shape, whose kernel
# path the rank-four checks above already cover.
STRICT_6 = [s for s in enumerate_shapes(6, strict_only=True)
            if _nilpotent_count(s, 2) <= 20000]


@settings(SLOW, max_examples=12)
@given(st.sampled_from(STRICT_6))
@example(peterson_shape(6))
def test_regular_nilpotent_counts_at_rank_six(s):
    # 615,195 flags at (n, p) = (6, 2).
    (v,) = variety_bitmaps(regular_nilpotent(6, 2), [s], 6, 2)
    assert v.size == 615195
    assert v.count == _nilpotent_count(s, 2)


def _semisimple_count(s, q):
    """#Hess(X, h)(F_q) = sum over w in S_n of q^{inv_h(w)} for regular
    semisimple X and a strict shape h, where inv_h(w) counts the pairs
    i < j <= h(i) with w(i) > w(j) (De Mari, Procesi and Shayman)."""
    n = s.n
    return sum(q ** sum(1 for i in range(n) for j in range(i + 1, s.t[i])
                        if w[i] > w[j])
               for w in itertools.permutations(range(n)))


def test_regular_semisimple_counts():
    for n, p in ((3, 3), (3, 5), (4, 5)):
        shapes = enumerate_shapes(n, strict_only=True)
        x = Matrix.diagonal(range(n), p)
        for s, v in zip(shapes, variety_bitmaps(x, shapes, n, p)):
            assert v.count == _semisimple_count(s, p), (n, p, s.t)


def _is_power(count, p):
    while count % p == 0:
        count //= p
    return count == 1


def test_nonempty_cells_have_a_power_of_p_points():
    # Hess(X, h) meets each Bruhat cell in an affine space or not at all
    # (Tymoczko), for the regular nilpotent and for diagonal X.
    for x, n, p in ((regular_nilpotent(5, 2), 5, 2),
                    (Matrix.diagonal(range(4), 5), 4, 5)):
        shapes = enumerate_shapes(n, strict_only=True)
        for s, v in zip(shapes, variety_bitmaps(x, shapes, n, p)):
            per_cell = {}
            for index in v.indices():
                w = flag_cell(index, n, p)[0]
                per_cell[w] = per_cell.get(w, 0) + 1
            assert all(_is_power(c, p) for c in per_cell.values()), s.t


def _reference_poset(op, primes, strict_only):
    """P_X from one bitmap per shape and prime: classes keyed by their bit
    tuples, a < b iff a's bitmap is a proper subset of b's at every prime,
    and the covers found by trying every middle class."""
    shapes = enumerate_shapes(op.n, strict_only)
    per_prime = [variety_bitmaps(op.matrix(p), shapes, op.n, p)
                 for p in primes]
    keys = {}
    for si, s in enumerate(shapes):
        keys.setdefault(tuple(maps[si] for maps in per_prime), []).append(s)
    classes = sorted(((tuple(members), maps)
                      for maps, members in keys.items()),
                     key=lambda c: c[0][0].t)

    def less(a, b):
        return all(x.bits & y.bits == x.bits and x.bits != y.bits
                   for x, y in zip(a, b))

    hasse = [(diagram_text(a[0]), diagram_text(b[0]))
             for a, ka in classes for b, kb in classes
             if less(ka, kb) and not any(less(ka, kc) and less(kc, kb)
                                         for _, kc in classes)]
    return ([(diagram_text(members[0]), members, [m.bits for m in maps])
             for members, maps in classes], hasse)


@settings(SLOW, max_examples=40)
@given(st.data(), st.integers(1, 4),
       st.sampled_from([(2,), (3,), (2, 3), (3, 2)]), st.booleans())
def test_poset_equals_per_shape_bitmap_route(data, n, primes, strict_only):
    op = data.draw(operators(n))
    for p in primes:
        _resolve(op, p)
    poset = build_poset(op, primes, strict_only)
    classes, hasse = _reference_poset(op, primes, strict_only)
    assert [(c.name, c.shapes, [b.bits for b in c.bitmaps])
            for c in poset.classes] == classes
    assert list(poset.hasse) == hasse


def test_one_shape_memory_scales_with_points():
    # 91,611,520 flags at (6,3), so one bitmap is 11.5 MB. The bitmap is
    # built in one pass over the points below the shape; one full-width
    # bitmap per profile group peaked at 95 MiB on this query.
    s = HessShape(6, (2, 3, 5, 5, 6, 6))
    size = q_factorial(6, 3)
    tracemalloc.start()
    try:
        (v,) = variety_bitmaps(regular_nilpotent(6, 3), [s], 6, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.size == size
    assert v.count == _nilpotent_count(s, 3) == 3328
    assert peak < 4 * -(-size // 8)
