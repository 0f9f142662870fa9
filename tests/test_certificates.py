import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hessalg import certificates
from hessalg.field import (Lanes, Matrix, antitranspose, image_subspace,
                           inverse_rows, jordan_matrix, jordan_spec, lanes,
                           regular_nilpotent, similarity_transform, span_of,
                           subspace_le)
from hessalg.flags import (canonical_columns, canonical_form, chain,
                           chain_contains, chain_images, chain_levels,
                           flag_at, flag_cell, flag_text, identity_flag,
                           iter_flags, member, permutation_flag, profile,
                           q_factorial)
from hessalg.shapes import (borel_shape, enumerate_shapes, full_shape,
                            peterson_shape, shape_from_function, shape_text,
                            transpose_shape)
from hessalg.varieties import (jordan_operator, matrix_operator,
                               variety_bitmaps)
from hessalg.certificates import (InvolutionReport, build_witness,
                                  certify_distinct, check_lemma, indecomposable_interval,
                                  involution_image, product_flag, split_flag,
                                  verify_decomposition, verify_involution,
                                  witness_flag)

# The 6x6 three-block operator with eigenvalues 4 > 3 > 2 over F_5:
# block sizes 3, 2, 1.
SPEC_336 = jordan_spec([(4, 3), (3, 2), (2, 1)], 5)


def columns_of(mat):
    return [mat.column(j) for j in range(1, mat.ncols + 1)]


def e(i, n):
    return tuple(1 if k == i - 1 else 0 for k in range(n))


# --- the three lemma conditions ---------------------------------------------

def test_check_lemma_fails_on_stable_flag():
    x = regular_nilpotent(2, 2)
    checks, verdict = check_lemma(x, identity_flag(2, 2), 1, 2)
    # X F_1 = 0 already sits inside F_1, so condition 3 fails.
    assert checks == (True, True, False)
    assert not verdict


def test_check_lemma_holds_on_swapped_flag():
    x = regular_nilpotent(2, 2)
    checks, verdict = check_lemma(x, permutation_flag((2, 1), 2), 1, 2)
    assert checks == (True, True, True)
    assert verdict


def test_check_lemma_accepts_raw_matrices():
    x = jordan_matrix(SPEC_336)
    a = witness_flag(SPEC_336, 2, 4)
    checks, verdict = check_lemma(x, a, 2, 4)
    assert verdict and checks == (True, True, True)


def test_check_lemma_validates_pair():
    x = regular_nilpotent(3, 2)
    with pytest.raises(ValueError):
        check_lemma(x, identity_flag(3, 2), 2, 2)
    with pytest.raises(ValueError):
        check_lemma(x, identity_flag(3, 2), 0, 2)


@st.composite
def chain_operators(draw, n, p):
    """Jordan operators, and integer operators from a seeded generator."""
    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        return Matrix.from_rows([[rng.randint(-12, 12) for _ in range(n)]
                                 for _ in range(n)], p)
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    return jordan_matrix(jordan_spec(
        [(draw(st.integers(0, p - 1)), size) for size in sizes], p))


@settings(deadline=None, max_examples=80)
@given(st.data(), st.integers(1, 4), st.sampled_from([2, 3, 5]))
def test_the_generator_route_equals_the_canonical_route(data, n, p):
    # X F_k is tested on the levels of the images of the first k columns
    # of the representative; the canonical route builds X F_k as a
    # subspace.
    x = data.draw(chain_operators(n, p))
    f = flag_at(data.draw(st.integers(0, q_factorial(n, p) - 1)), n, p)
    spans = [chain(f, k) for k in range(n + 1)]
    xspans = [image_subspace(x, v) for v in spans]
    levels = chain_levels(chain_images(x, f), f)
    for k in range(n + 1):
        for m in range(n + 1):
            assert (chain_contains(levels, [(k, m)])
                    == subspace_le(xspans[k], spans[m]))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            checks = (all(subspace_le(xspans[k], spans[k])
                          for k in range(1, n + 1) if not i <= k <= j),
                      subspace_le(xspans[i], spans[j]),
                      not subspace_le(xspans[i], spans[j - 1]))
            assert check_lemma(x, f, i, j) == (checks, all(checks))


# --- witness flags ------------------------------------------------------------

def test_witness_flag_A24():
    a = witness_flag(SPEC_336, 2, 4)
    assert columns_of(a) == [e(4, 6), e(2, 6), e(5, 6), e(1, 6), e(6, 6),
                             e(3, 6)]


def test_witness_flag_A56():
    a = witness_flag(SPEC_336, 5, 6)
    assert columns_of(a) == [e(4, 6), e(5, 6), e(6, 6), e(1, 6), e(3, 6),
                             e(2, 6)]


def test_witness_flag_diagonalizable_case():
    spec = jordan_spec([(1, 1), (0, 1)], 3)
    a = witness_flag(spec, 1, 2)
    assert columns_of(a) == [(1, 1), (1, 0)]


def test_witness_flag_rejects_scalar_and_bad_pairs():
    with pytest.raises(ValueError):
        witness_flag(jordan_spec([(1, 1), (1, 1)], 3), 1, 2)
    with pytest.raises(ValueError):
        witness_flag(SPEC_336, 4, 2)


def test_witness_flags_verify_for_a_small_sweep():
    for spec in (jordan_spec([(0, 3)], 2),
                 jordan_spec([(1, 2), (0, 1)], 3),
                 jordan_spec([(2, 1), (1, 1), (0, 1)], 3)):
        n = spec.n
        x = jordan_matrix(spec)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                a = witness_flag(spec, i, j)
                _, verdict = check_lemma(x, a, i, j)
                assert verdict


def test_certify_distinct_example():
    spec = jordan_spec([(0, 3)], 2)
    s1 = borel_shape(3)
    s2 = shape_from_function([2, 3, 3])
    cert = certify_distinct(spec, s1, s2)
    assert cert.pair == (1, 2)
    assert cert.checks == (True, True, True)
    assert cert.in_first != cert.in_second
    # Membership across strict shapes is exactly the predicate t_i >= j.
    i, j = cert.pair
    for s in enumerate_shapes(3, strict_only=True):
        assert cert.memberships[shape_text(s)] == (s.t[i - 1] >= j)


STRICT_5 = enumerate_shapes(5, strict_only=True)


@st.composite
def non_scalar_specs(draw, n, p):
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, n - sum(sizes))))
    blocks = [(draw(st.integers(0, p - 1)), size) for size in sizes]
    spec = jordan_spec(blocks, p)
    if spec.is_scalar():
        spec = jordan_spec([(1, 1), (0, n - 1)], p)
    return spec


@settings(deadline=None, max_examples=30,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data(), st.sampled_from([2, 3]))
def test_witness_memberships_equal_the_chain_oracle_at_rank_five(data, p):
    spec = data.draw(non_scalar_specs(5, p))
    s1, s2 = data.draw(st.lists(st.sampled_from(STRICT_5), min_size=2,
                                max_size=2, unique=True))
    cert = certify_distinct(spec, s1, s2)
    x = jordan_matrix(spec)
    assert list(cert.memberships) == [shape_text(s) for s in STRICT_5]
    assert cert.memberships == {shape_text(s): member(x, s, cert.flag)
                                for s in STRICT_5}
    assert cert.in_first != cert.in_second


def _partitions(k, largest=None):
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest or k), 0, -1):
        for rest in _partitions(k - part, part):
            yield (part,) + rest


def test_the_distinctness_theorem_at_rank_five_over_f2():
    # Every non-scalar Jordan type, every pair i < j and every strict
    # shape: the witness lies in Hess(X, s) exactly when t_i >= j.
    specs = [jordan_spec([(0, a) for a in zero] + [(1, b) for b in one], 2)
             for k in range(6)
             for zero in _partitions(k) for one in _partitions(5 - k)]
    specs = [spec for spec in specs if not spec.is_scalar()]
    assert len(specs) == 34 and len(STRICT_5) == 42
    for spec in specs:
        x = jordan_matrix(spec)
        for i in range(1, 6):
            for j in range(i + 1, 6):
                a, f, checks = build_witness(spec, i, j)
                assert checks == (True, True, True)
                assert check_lemma(x, a, i, j)[1]
                for s in STRICT_5:
                    assert member(x, s, f) == (s.t[i - 1] >= j)


def test_profile_and_chain_disagreement_is_an_error():
    # The memoized memberships (the profile's) disagree on s1 with the
    # levels the call computes afresh.
    spec = jordan_spec([(0, 3)], 2)
    s1, s2 = borel_shape(3), shape_from_function([2, 3, 3])
    cert = certify_distinct(spec, s1, s2)
    memo = certificates._witness_entry(spec, *cert.pair)[1]
    memo[shape_text(s1)] = not memo[shape_text(s1)]
    try:
        for _ in range(2):
            with pytest.raises(RuntimeError) as err:
                certify_distinct(spec, s1, s2)
            assert shape_text(s1) in str(err.value)
            assert flag_text(cert.flag) in str(err.value)
    finally:
        certificates._witness_entry.cache_clear()


def test_certify_distinct_validates_input():
    spec = jordan_spec([(0, 3)], 2)
    b = borel_shape(3)
    with pytest.raises(ValueError):
        certify_distinct(spec, b, b)
    with pytest.raises(ValueError):
        certify_distinct(spec, b, shape_from_function([0, 3, 3]))
    with pytest.raises(ValueError):
        certify_distinct(jordan_spec([(0, 1), (0, 1), (0, 1)], 2), b,
                         full_shape(3))


# --- the antidiagonal involution -------------------------------------------------

def test_involution_on_permutation_flags():
    # On a permutation flag the involution acts by w -> w0 w w0.
    n, p = 3, 2
    for f in (permutation_flag(w, p) for w in
              [(1, 2, 3), (2, 1, 3), (3, 1, 2), (3, 2, 1)]):
        w = f.cell
        expect = tuple(n + 1 - w[n - k] for k in range(1, n + 1))
        assert involution_image(f).cell == expect


def test_involution_is_an_involution_on_all_flags():
    for f in iter_flags(3, 2):
        assert involution_image(involution_image(f)) == f
    images = {involution_image(f).index for f in iter_flags(3, 3)}
    assert len(images) == len(list(iter_flags(3, 3)))


def test_involution_on_indices_equals_the_matrix_route():
    def matrix_route(f):
        w0 = Matrix.permutation(tuple(range(f.n, 0, -1)), f.p)
        return canonical_form(w0 * f.rep.transpose().inverse() * w0).index

    for n, p in [(3, 3), (4, 2)]:
        for f in iter_flags(n, p):
            assert involution_image(f).index == matrix_route(f)
    rng = random.Random(11)
    for index in rng.sample(range(q_factorial(5, 2)), 300):
        f = flag_at(index, 5, 2)
        image = involution_image(f)
        assert image.index == matrix_route(f)
        assert image == flag_at(image.index, 5, 2)


def involution_columns(index, n, p):
    """The columns of w0 (g^T)^{-1} w0 for the canonical representative g
    of the flag at an index, by a general inverse: its entry (i, j) is
    entry (n-1-j, n-1-i) of g^{-1}."""
    inv = inverse_rows(flag_at(index, n, p).rep.rows, p)
    return [inv[n - 1 - j][::-1] for j in range(n)]


def involution_matrix_route(index, n, p):
    """The image's (cell, free values, index) by a general inverse and a
    canonicalisation on lists."""
    return canonical_columns(involution_columns(index, n, p), p)


@pytest.mark.parametrize("n, p", [(3, 5), (4, 3), (5, 2)])
def test_involution_by_cell_arithmetic_equals_the_matrix_route(n, p):
    for index in range(q_factorial(n, p)):
        assert (certificates._involution_cell(index, n, p)
                == involution_matrix_route(index, n, p))


def test_involution_by_cell_arithmetic_at_rank_six():
    rng = random.Random(62)
    for index in rng.sample(range(q_factorial(6, 2)), 500):
        assert (certificates._involution_cell(index, 6, 2)
                == involution_matrix_route(index, 6, 2))


def random_invertible(n, p, rng):
    while True:
        pmat = Matrix.from_rows([[rng.randrange(p) for _ in range(n)]
                                 for _ in range(n)], p)
        if pmat.is_invertible():
            return pmat


@pytest.mark.parametrize("n, p", [(3, 5), (4, 3), (5, 2)])
def test_the_composed_index_from_the_involution_cell_equals_the_matrix_route(
        n, p):
    # P g' for g' = w0 (g^T)^{-1} w0, from the cell and free values of the
    # involution image, on every flag; the route on lists multiplies P by
    # the general inverse's columns and canonicalises.
    pmat = random_invertible(n, p, random.Random(n * 100 + p))
    pmul = certificates._lane_columns(pmat)
    ln = lanes(n, p)
    for index in range(q_factorial(n, p)):
        w, values, _ = certificates._involution_cell(index, n, p)
        cols = [pmat.apply(c) for c in involution_columns(index, n, p)]
        assert (certificates._composed_index(pmul, w, values, ln)
                == canonical_columns(cols, p)[2])


@pytest.mark.parametrize("n, p", [(2, 3), (3, 2), (3, 5), (4, 3), (4, 7),
                                  (5, 2)])
def test_the_lane_composed_index_equals_the_list_route(n, p):
    rng = random.Random(n * 10 + p)
    for _ in range(4):
        pmat = random_invertible(n, p, rng)
        pmul = certificates._lane_columns(pmat)
        size = q_factorial(n, p)
        for index in rng.sample(range(size), min(size, 300)):
            g = pmat * flag_at(index, n, p).rep
            assert (certificates._composed_index(
                pmul, *flag_cell(index, n, p), lanes(n, p))
                == canonical_columns(g.columns(), p)[2])


def test_verify_involution_swaps_the_two_point_varieties():
    op = jordan_operator([(1, 1), (0, 1)])
    report = verify_involution(op, shape_from_function([1, 1]), 3)
    assert report.partner.t == (0, 2)
    assert (report.count, report.partner_count) == (1, 1)
    assert report.ok


def test_verify_involution_on_self_transpose_shape():
    op = jordan_operator([(0, 3)])
    report = verify_involution(op, borel_shape(3), 2)
    assert report.partner == borel_shape(3)
    assert report.ok


def test_verify_involution_strict_sweep_n3():
    op = jordan_operator([(1, 1), (1, 1), (0, 1)])
    for s in enumerate_shapes(3, strict_only=True):
        assert verify_involution(op, s, 2).ok


# --- memos across calls ------------------------------------------------------------

INDEX_MAPS = (certificates._involution_cell, certificates._composed)


def clear_memos():
    certificates._involution_context.cache_clear()
    certificates._witness_entry.cache_clear()
    for memo in INDEX_MAPS:
        memo.cache_clear()


def index_map_sizes():
    """(entries, misses) of the involution map and of the composed map."""
    return tuple((memo.cache_info().currsize, memo.cache_info().misses)
                 for memo in INDEX_MAPS)


def integer_conjugate(rows, rng, steps=8):
    """E X E^{-1} for a product E of integer elementary matrices, so the
    result is similar to X over every F_p."""
    x = [list(r) for r in rows]
    for _ in range(steps):
        a, b = rng.sample(range(len(x)), 2)
        c = rng.choice([-2, -1, 1, 2])
        x[a] = [u + c * v for u, v in zip(x[a], x[b])]  # row a += c row b
        for r in x:                                      # col b -= c col a
            r[b] -= c * r[a]
    return x


def involution_without_memos(op, s, p):
    """verify_involution on the route that keeps nothing between calls:
    g^{-1} per point, canonical_columns, and a fresh similarity transform.
    Returns (report, points, intermediate indices, composed indices)."""
    n = s.n
    xm = op.matrix(p)
    ym = antitranspose(xm)
    s_t = transpose_shape(s)
    v1, v3 = variety_bitmaps(xm, [s, s_t], n, p)
    v2 = variety_bitmaps(ym, [s_t], n, p)[0]
    images = []
    for idx in v1.indices():
        inv = inverse_rows(flag_at(idx, n, p).rep.rows, p)
        images.append([inv[n - 1 - j][::-1] for j in range(n)])
    inter = {canonical_columns(g, p)[2] for g in images}
    prows = similarity_transform(ym, xm).rows
    composed = {canonical_columns(
        [[sum(a * b for a, b in zip(r, c)) % p for r in prows] for c in g],
        p)[2] for g in images}
    inter_ok = inter == set(v2.indices())
    comp_ok = composed == set(v3.indices())
    report = InvolutionReport(s, s_t, p, v1.count, v3.count, inter_ok,
                              comp_ok, inter_ok and comp_ok
                              and v1.count == v3.count)
    return report, v1.indices(), inter, composed


def test_memoized_involution_equals_the_route_without_memos():
    conj = matrix_operator(integer_conjugate(
        [[1, 1, 0], [0, 1, 0], [0, 0, 0]], random.Random(7)))
    cases = [(op, s, p)
             for op in (jordan_operator([(0, 3)]),
                        jordan_operator([(1, 2), (0, 1)]), conj)
             for p in (3, 5) for s in enumerate_shapes(3)]
    cases += [(jordan_operator([(0, 4)]), s, 2)
              for s in enumerate_shapes(4, strict_only=True)]
    assert len(cases) == 3 * 2 * 20 + 14
    clear_memos()
    cold = [verify_involution(op, s, p) for op, s, p in cases]
    sizes = index_map_sizes()
    warm = [verify_involution(op, s, p) for op, s, p in cases]
    # Every index the warm pass mapped was read from the maps.
    assert index_map_sizes() == sizes and all(k > 0 for k, _ in sizes)
    for (op, s, p), c, w in zip(cases, cold, warm):
        report, points, inter, composed = involution_without_memos(op, s, p)
        assert c == w == report
        assert c.ok
        n = s.n
        context = certificates._involution_context(op.matrix(p))
        images = {certificates._involution_cell(i, n, p) for i in points}
        assert images == {canonical_columns(involution_columns(i, n, p), p)
                          for i in points}
        assert {image[2] for image in images} == inter
        assert {certificates._composed(context, i) for i in points} == composed
    # The values compared were the cached ones.
    assert index_map_sizes() == sizes


def test_a_warm_involution_adds_no_index_map_entry():
    # A warm sweep adds no cache miss, so no entry, to either map.
    op = jordan_operator([(1, 2), (0, 1)])
    clear_memos()
    for s in enumerate_shapes(3):
        verify_involution(op, s, 5)
    sizes = index_map_sizes()
    # Hess(X, full shape) holds all 186 flags at (3, 5).
    assert sizes == ((186, 186), (186, 186))
    for s in enumerate_shapes(3):
        verify_involution(op, s, 5)
    assert index_map_sizes() == sizes
    hits = [memo.cache_info().hits for memo in INDEX_MAPS]
    assert all(h > 0 for h in hits)


def test_the_index_maps_stay_within_their_bound():
    # Each map holds half of INDEX_MEMO_SIZE. Hess(N, full shape) at (5, 2)
    # is all 9,765 flags, so one call maps more points than either bound.
    bound = certificates.INDEX_MEMO_SIZE // 2
    assert all(memo.cache_info().maxsize == bound for memo in INDEX_MAPS)
    clear_memos()
    ops = [jordan_operator([(0, 3)]), jordan_operator([(1, 2), (0, 1)]),
           jordan_operator([(1, 1), (0, 2)])]
    for p in (3, 5):
        for op in ops:
            for s in enumerate_shapes(3, strict_only=True):
                assert verify_involution(op, s, p).ok
                assert all(k <= bound for k, _ in index_map_sizes())
    before = index_map_sizes()
    report = verify_involution(jordan_operator([(0, 5)]), full_shape(5), 2)
    assert report.ok and report.count == q_factorial(5, 2) > bound
    # Each point is mapped once, though neither map can hold them all.
    assert index_map_sizes() == tuple((bound, misses + report.count)
                                      for _, misses in before)


def test_a_new_context_is_a_new_key_of_the_composed_map():
    # The composed map is keyed by the context object itself: once the
    # context memo is cleared, the same operator's points miss again and
    # are mapped with the new context's P, while the involution map, keyed
    # by (index, n, p) alone, is still read.
    op = jordan_operator([(1, 2), (0, 1)])
    shapes = enumerate_shapes(3)
    clear_memos()
    first = [verify_involution(op, s, 5) for s in shapes]
    old = certificates._involution_context(op.matrix(5))
    (cells, cell_misses), (entries, misses) = index_map_sizes()
    certificates._involution_context.cache_clear()
    assert [verify_involution(op, s, 5) for s in shapes] == first
    new = certificates._involution_context(op.matrix(5))
    assert new is not old
    assert index_map_sizes() == ((cells, cell_misses),
                                 (2 * entries, 2 * misses))
    for i in range(q_factorial(3, 5)):
        w, values, _ = certificates._involution_cell(i, 3, 5)
        assert (certificates._composed(new, i)
                == certificates._composed_index(new.pmul, w, values, new.ln))


def changed_entry(mat, i, j):
    rows = [list(r) for r in mat.rows]
    rows[i][j] = (rows[i][j] + 1) % mat.p
    return Matrix.from_rows(rows, mat.p)


@pytest.mark.parametrize("bad", [Matrix.identity(3, 3), Matrix.zero(3, 3, 3)]
                         + [(which, i, j) for which in range(3)
                            for i in range(3) for j in range(3)])
def test_a_bad_cached_transform_is_caught(monkeypatch, bad):
    # The identity does not intertwine Y and X here; zero does, but is
    # singular. Then each entry of Y, P and Q in turn is changed alone.
    # The operator's memoized context is built from the bad transform, and
    # every call on it must fail its re-check.
    op = jordan_operator([(1, 2), (0, 1)])
    good = certificates._involution_transform(op.matrix(3))
    ym = good[0]
    assert ym != op.matrix(3)
    if isinstance(bad, Matrix):
        memo = (ym, bad, bad)
    else:
        which, i, j = bad
        memo = list(good)
        memo[which] = changed_entry(memo[which], i, j)
    monkeypatch.setattr(certificates, "_involution_transform",
                        lambda x: tuple(memo))
    certificates._involution_context.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(RuntimeError, match="similarity transform"):
                verify_involution(op, borel_shape(3), 3)
        assert certificates._involution_context.cache_info().hits == 1
    finally:
        certificates._involution_context.cache_clear()


def test_an_operator_without_a_transform_keeps_no_context(monkeypatch):
    op = jordan_operator([(1, 2), (0, 1)])
    monkeypatch.setattr(certificates, "_involution_transform",
                        lambda x: (antitranspose(x), None, None))
    certificates._involution_context.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(RuntimeError, match="must be similar"):
                verify_involution(op, borel_shape(3), 3)
        assert certificates._involution_context(op.matrix(3)) is None
    finally:
        certificates._involution_context.cache_clear()


def test_the_lemma_is_rechecked_on_a_memoized_witness(monkeypatch):
    spec = jordan_spec([(0, 3)], 2)
    s1, s2 = borel_shape(3), shape_from_function([2, 3, 3])
    certify_distinct(spec, s1, s2)
    hits = certificates._witness_entry.cache_info().hits
    monkeypatch.setattr(certificates, "lemma_conditions",
                        lambda levels, i, j: ((True, True, False), False))
    with pytest.raises(RuntimeError, match="lemma"):
        certify_distinct(spec, s1, s2)
    assert certificates._witness_entry.cache_info().hits == hits + 1


def test_chain_images_are_computed_once_per_call_and_on_every_call(
        monkeypatch):
    spec = jordan_spec([(1, 2), (0, 3)], 2)
    strict = enumerate_shapes(5, strict_only=True)
    s1, s2 = strict[3], strict[-1]
    certify_distinct(spec, s1, s2)  # builds and memoizes the witness
    hits = certificates._witness_entry.cache_info().hits
    calls = []
    real = Lanes.product

    def counted(ln, mults, cols):
        calls.append(real(ln, mults, cols))
        return calls[-1]

    # The chain images are the images X c_k of the witness's five
    # columns, all computed in one packed product, the call's only one.
    monkeypatch.setattr(Lanes, "product", counted)
    first = certify_distinct(spec, s1, s2)
    once = len(calls)
    second = certify_distinct(spec, s1, s2)
    assert certificates._witness_entry.cache_info().hits == hits + 2
    assert second == first
    assert once == 1 and len(calls) == 2
    x = jordan_matrix(spec)
    assert calls[0] == calls[1] == tuple(
        map(lanes(5, 2).pack, chain_images(x, first.flag)))


def test_the_lane_levels_equal_the_chain_levels_for_every_witness():
    # Every non-scalar Jordan type with eigenvalues 0 and 1 over F_2 at
    # n <= 6, and with eigenvalues 0, 1 and 2 over F_3 at n <= 5, and every
    # pair i < j.
    cases = [(n, 2, (0, 1)) for n in range(2, 7)]
    cases += [(n, 3, (0, 1, 2)) for n in range(2, 6)]
    checked = 0
    for n, p, evs in cases:
        types = {tuple(sorted(zip(ev_of, sizes)))
                 for sizes in _partitions(n)
                 for ev_of in itertools.product(evs, repeat=len(sizes))}
        for blocks in sorted(types):
            spec = jordan_spec(blocks, p)
            if spec.is_scalar():
                continue
            x = jordan_matrix(spec)
            ln = lanes(n, p)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    f = build_witness(spec, i, j)[1]
                    entry = certificates._witness_entry(spec, i, j)
                    g, memberships, xmul, cols, basis = entry
                    assert g == f and g.rep == f.rep
                    levels = certificates._levels(
                        ln.product(xmul, cols), basis, ln)
                    assert levels == chain_levels(chain_images(x, f), f)
                    assert levels == profile(x, f)
                    assert memberships == certificates.strict_memberships(
                        levels, n)
                    checked += 1
    assert checked > 1000


def test_certificates_do_not_share_memberships():
    spec = jordan_spec([(1, 2), (0, 2)], 3)
    s1, s2 = borel_shape(4), full_shape(4)
    first = certify_distinct(spec, s1, s2)
    expected = dict(first.memberships)
    first.memberships.clear()
    second = certify_distinct(spec, s1, s2)
    assert second.memberships == expected
    assert second.flag is first.flag


# --- product decomposition --------------------------------------------------------

def test_product_and_split_are_inverse():
    p = 2
    for f1 in iter_flags(2, p):
        for f2 in iter_flags(2, p):
            prod = product_flag(f1, f2)
            assert split_flag(prod, 2) == (f1, f2)


def test_split_flag_requires_coordinate_prefix():
    f = permutation_flag((2, 3, 1), 2)
    with pytest.raises(ValueError):
        split_flag(f, 2)  # F_2 = span{e2, e3}, not span{e1, e2}


def test_product_and_split_equal_the_matrix_route():
    for n, p in [(4, 2), (3, 3)]:
        for j in range(1, n):
            for f1 in iter_flags(j, p):
                for f2 in iter_flags(n - j, p):
                    diag = Matrix.from_rows(
                        [list(r) + [0] * (n - j) for r in f1.rep.rows]
                        + [[0] * j + list(r) for r in f2.rep.rows], p)
                    prod = product_flag(f1, f2)
                    assert prod == canonical_form(diag)
                    assert prod.rep == diag
            coord = span_of([[int(r == k) for r in range(n)]
                             for k in range(j)], n, p)
            for f in iter_flags(n, p):
                if chain(f, j) != coord:
                    with pytest.raises(ValueError):
                        split_flag(f, j)
                    continue
                top = Matrix.from_rows([r[:j] for r in f.rep.rows[:j]], p)
                bottom = Matrix.from_rows([r[j:] for r in f.rep.rows[j:]], p)
                assert split_flag(f, j) == (canonical_form(top),
                                            canonical_form(bottom))


def test_decomposition_63_is_21_times_3():
    s = shape_from_function([3, 3, 3, 5, 5])
    report = verify_decomposition(s, 2)
    assert report.split_index == 3
    assert (report.count, report.count1, report.count2) == (63, 21, 3)
    assert report.pairs_checked == 63
    assert report.ok


def test_decomposition_of_borel_shape():
    report = verify_decomposition(borel_shape(3), 2)
    assert (report.count, report.count1, report.count2) == (1, 1, 1)
    assert report.ok


def test_decomposition_with_chosen_index():
    s = shape_from_function([2, 2, 3])
    report = verify_decomposition(s, 2, j=2)
    assert (report.count, report.count1, report.count2) == (3, 3, 1)
    assert report.ok


def test_decomposition_rejects_shapes_without_split():
    with pytest.raises(ValueError):
        verify_decomposition(peterson_shape(4), 2)


# --- the indecomposable interval ----------------------------------------------------

def test_indecomposable_interval_small_ranks():
    r2 = indecomposable_interval(2)
    assert [s.t for s in r2.indecomposable] == [(2, 2)]
    assert r2.ok
    r3 = indecomposable_interval(3)
    assert [s.t for s in r3.indecomposable] == [(2, 3, 3), (3, 3, 3)]
    assert r3.bottom == peterson_shape(3)
    assert r3.top == full_shape(3)
    assert r3.ok
    assert indecomposable_interval(4).ok


def test_interval_partition_is_complete():
    r = indecomposable_interval(4)
    strict = enumerate_shapes(4, strict_only=True)
    assert sorted(s.t for s in r.decomposable + r.indecomposable) == \
        sorted(s.t for s in strict)
