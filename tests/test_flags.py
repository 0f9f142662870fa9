import itertools
import random

import pytest

from hessalg.field import (Matrix, conjugate, jordan_matrix, jordan_spec,
                           lanes, regular_nilpotent, span_of, zero_subspace)
from hessalg.flags import (FlagSet, _cell_offset, _flag_index,
                           canonical_columns, canonical_form, chain,
                           chain_contains, chain_images, chain_levels,
                           check_guards, flag_at, flag_cell, flag_text,
                           free_positions, identity_flag, inversions,
                           iter_flags, member, packed_index,
                           permutation_flag, point_labels, profile,
                           q_factorial)
from hessalg.shapes import (borel_shape, enumerate_shapes, full_shape,
                            peterson_shape, shape_from_function)


def count_flag_chains(n, p):
    """Independent oracle: count complete subspace chains 0 < F_1 < ... < F_n
    by direct recursion on canonical subspaces."""
    vectors = list(itertools.product(range(p), repeat=n))[1:]
    memo = {}

    def go(sub):
        if sub.dim == n:
            return 1
        if sub not in memo:
            nxt = {span_of(list(sub.basis) + [v], n, p)
                   for v in vectors if not sub.contains(v)}
            memo[sub] = sum(go(w) for w in nxt)
        return memo[sub]

    return go(zero_subspace(n, p))


# --- enumeration ---------------------------------------------------------------

def test_flag_counts_match_q_factorial():
    assert len(list(iter_flags(2, 2))) == 3
    assert len(list(iter_flags(3, 2))) == 21
    assert len(list(iter_flags(4, 2))) == 315
    assert len(list(iter_flags(3, 3))) == 52


def test_flag_counts_match_chain_oracle():
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        assert q_factorial(n, p) == count_flag_chains(n, p)


def test_enumeration_indices_and_distinctness():
    flags = list(iter_flags(3, 2))
    assert [f.index for f in flags] == list(range(21))
    assert len({f.rep.rows for f in flags}) == 21


def test_all_reps_are_invertible():
    assert all(f.rep.is_invertible() for f in iter_flags(3, 3))


def test_cell_sizes_are_p_to_length():
    flags = list(iter_flags(3, 2))
    by_cell = {}
    for f in flags:
        by_cell.setdefault(f.cell, []).append(f)
    for w, group in by_cell.items():
        assert len(group) == 2 ** inversions(w)


def test_free_positions_examples():
    assert free_positions((1, 2, 3)) == []
    assert free_positions((3, 1, 2)) == [(1, 1), (2, 1)]
    assert free_positions((2, 3, 1)) == [(1, 1), (1, 2)]


def test_guards():
    with pytest.raises(ValueError):
        check_guards(7, 2)
    with pytest.raises(ValueError):
        check_guards(3, 11)
    check_guards(7, 2, override=True)
    # The flag count is guarded too: [6]_7! is about 1.0e13 flags.
    with pytest.raises(ValueError):
        check_guards(6, 7)
    # Override does not lift the bitmap cap of 2^32 flags.
    with pytest.raises(ValueError, match="bitmap cap"):
        check_guards(6, 7, override=True)
    check_guards(5, 7, override=True)  # 510,902,400 flags
    for n, p in [(5, 7), (6, 5)]:
        with pytest.raises(ValueError):
            check_guards(n, p)
    check_guards(6, 3)  # 91,611,520 flags
    check_guards(5, 5)


# --- canonical form --------------------------------------------------------------

def test_canonical_form_of_identity():
    f = identity_flag(3, 2)
    assert f.cell == (1, 2, 3)
    assert f.index == 0
    assert f.rep == Matrix.identity(3, 2)


def test_canonical_form_is_idempotent_on_representatives():
    for n, p in [(3, 2), (3, 3), (4, 2)]:
        for f in iter_flags(n, p):
            assert canonical_form(f.rep) == f
            assert f.values == tuple(f.rep.entry(i, k)
                                     for i, k in free_positions(f.cell))


def test_upper_triangular_matrices_give_the_identity_flag():
    rng = random.Random(5)
    for p in (2, 5):
        rows = [[rng.randrange(p) if j > i else (rng.randrange(1, p) if j == i else 0)
                 for j in range(3)] for i in range(3)]
        f = canonical_form(Matrix.from_rows(rows, p))
        assert f == identity_flag(3, p)


def test_canonical_columns_on_random_invertible_matrices():
    rng = random.Random(13)
    for n, p in [(3, 2), (4, 3), (5, 2), (5, 5)]:
        for _ in range(60):
            g = Matrix.from_rows([[rng.randrange(p) for _ in range(n)]
                                  for _ in range(n)], p)
            if not g.is_invertible():
                continue
            w, values, index = canonical_columns(g.columns(), p)
            assert index == canonical_form(g).index
            assert flag_cell(index, n, p) == (w, values)
            # The index names the flag of g: every prefix span agrees.
            f = flag_at(index, n, p)
            cols = g.columns()
            for k in range(1, n + 1):
                assert chain(f, k) == span_of(cols[:k], n, p)


def test_canonical_columns_rejects_singular_matrices():
    with pytest.raises(ValueError):
        canonical_columns([(1, 0), (1, 0)], 2)


def test_coset_invariance_under_random_borel():
    rng = random.Random(7)
    p = 3
    for f in iter_flags(3, p):
        b = [[rng.randrange(p) if j > i else (rng.randrange(1, p) if j == i else 0)
              for j in range(3)] for i in range(3)]
        g = f.rep * Matrix.from_rows(b, p)
        assert canonical_form(g) == f


def test_canonical_form_preserves_prefix_spans():
    rng = random.Random(13)
    p = 3
    for _ in range(15):
        while True:
            g = Matrix.from_rows([[rng.randrange(p) for _ in range(4)]
                                  for _ in range(4)], p)
            if g.is_invertible():
                break
        f = canonical_form(g)
        for k in range(1, 5):
            assert span_of([g.column(j) for j in range(1, k + 1)], 4, p) == \
                chain(f, k)


def test_canonical_form_rejects_singular():
    with pytest.raises(ValueError):
        canonical_form(Matrix.zero(2, 2, 2))


def test_permutation_flags():
    f = permutation_flag((2, 1), 2)
    assert f.cell == (2, 1)
    assert f.rep == Matrix.permutation((2, 1), 2)
    assert flag_text(f) == "[e2,e1]"


def test_flag_text_with_free_parameters():
    f = canonical_form(Matrix.from_rows([[1, 1], [1, 0]], 2))
    assert flag_text(f) == "[e2,e1] {r1c1=1}"


# --- chains ------------------------------------------------------------------------

def test_chain_endpoints():
    f = identity_flag(3, 2)
    assert chain(f, 0) == zero_subspace(3, 2)
    assert chain(f, 3).dim == 3
    assert chain(f, 2) == span_of([(1, 0, 0), (0, 1, 0)], 3, 2)


def test_chain_is_strictly_increasing():
    for f in iter_flags(3, 3):
        for k in range(1, 4):
            assert chain(f, k).dim == k


@pytest.mark.parametrize("n,p", [(3, 3), (4, 2)])
def test_chain_is_the_span_of_the_first_columns(n, p):
    for f in iter_flags(n, p):
        for k in range(n + 1):
            cols = [f.rep.column(j) for j in range(1, k + 1)]
            assert chain(f, k) == span_of(cols, n, p)


# --- membership --------------------------------------------------------------------

def test_identity_flag_in_peterson_variety():
    n3 = regular_nilpotent(3, 2)
    assert member(n3, peterson_shape(3), identity_flag(3, 2))


def test_eigenflags_of_projection():
    x = Matrix.diagonal([1, 0], 3)
    b = borel_shape(2)
    assert member(x, b, identity_flag(2, 3))
    assert member(x, b, permutation_flag((2, 1), 3))
    # The shape t = (0, 2) asks for X F_1 = 0, so only the kernel flag works.
    s = shape_from_function([0, 2])
    assert member(x, s, permutation_flag((2, 1), 3))
    assert not member(x, s, identity_flag(2, 3))


def test_full_shape_admits_everything():
    x = regular_nilpotent(3, 2)
    assert all(member(x, full_shape(3), f) for f in iter_flags(3, 2))


def test_nilpotent_borel_variety_n2():
    x = regular_nilpotent(2, 2)
    b = borel_shape(2)
    hits = [f for f in iter_flags(2, 2) if member(x, b, f)]
    assert [flag_text(f) for f in hits] == ["[e1,e2]"]


def profile_member(x, s, f):
    """Membership read from the profile: m <= t componentwise."""
    return all(m <= t for m, t in zip(profile(x, f), s.t))


def test_member_equals_adjoint_exhaustively():
    # The adjoint test: g^{-1} X g vanishes at every forbidden mask entry,
    # read from the profile.
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        xs = [regular_nilpotent(n, p),
              Matrix.diagonal([1] + [0] * (n - 1), p),
              Matrix.from_rows([[(i * j + i) % p for j in range(n)]
                                for i in range(n)], p)]
        shapes = enumerate_shapes(n)
        for f in iter_flags(n, p):
            for x in xs:
                for s in shapes:
                    assert member(x, s, f) == profile_member(x, s, f)


# Integer conjugates E X E^-1 of [[1,1,0],[0,1,0],[0,0,0]] and of the 4 x 4
# regular nilpotent, by fixed products E of integer elementary matrices.
CONJ_3 = ((-32, -11, -34), (13, 4, 14), (28, 9, 30))
CONJ_4 = ((-6, 1, -2, 0), (-14, 2, -3, 2), (10, -2, 4, 1), (-12, 2, -4, 0))


@pytest.mark.parametrize("n, p, conj", [(3, 5, CONJ_3), (4, 3, CONJ_4)])
def test_chain_levels_equal_the_pairwise_route(n, p, conj):
    # The pairwise route tests X c_c in F_m for every c < k on its own;
    # the levels come from bisection on the chain. Every flag, every
    # (k, m), for N, a mixed type and an integer conjugate.
    xs = [regular_nilpotent(n, p),
          jordan_matrix(jordan_spec([(1, 2), (0, n - 2)], p)),
          Matrix.from_rows(conj, p)]
    for f in iter_flags(n, p):
        spans = f.spans
        for x in xs:
            images = chain_images(x, f)
            levels = chain_levels(images, f)
            inside = [[spans[m].contains(v) for m in range(n + 1)]
                      for v in images]
            for k in range(n + 1):
                for m in range(n + 1):
                    assert (chain_contains(levels, [(k, m)])
                            == all(inside[c][m] for c in range(k)))


def test_profile_is_the_lowest_nonzero_row_of_the_conjugate():
    for n, p in [(3, 3), (4, 2)]:
        xs = [regular_nilpotent(n, p),
              Matrix.from_rows([[(i * j + i + 1) % p for j in range(n)]
                                for i in range(n)], p)]
        for f in iter_flags(n, p):
            for x in xs:
                y = conjugate(x, f.rep)
                expect = tuple(max((i for i in range(1, n + 1)
                                    if y.entry(i, j)), default=0)
                               for j in range(1, n + 1))
                assert profile(x, f) == expect


def test_membership_is_monotone_in_the_shape():
    x = regular_nilpotent(3, 2)
    shapes = enumerate_shapes(3)
    for f in iter_flags(3, 2):
        hits = {s.t: profile_member(x, s, f) for s in shapes}
        for a in shapes:
            for b in shapes:
                if all(u <= v for u, v in zip(a.t, b.t)) and hits[a.t]:
                    assert hits[b.t]


def test_membership_equivariance_under_conjugation():
    # gB in Hess(X, H) iff (P g)B in Hess(P X P^{-1}, H).
    rng = random.Random(29)
    p = 3
    x = regular_nilpotent(3, p)
    while True:
        pm = Matrix.from_rows([[rng.randrange(p) for _ in range(3)]
                               for _ in range(3)], p)
        if pm.is_invertible():
            break
    y = pm * x * pm.inverse()
    s = peterson_shape(3)
    for f in iter_flags(3, p):
        assert profile_member(x, s, f) == \
            profile_member(y, s, canonical_form(pm * f.rep))


# --- bitmap sets -----------------------------------------------------------------------

def test_flagset_roundtrip():
    fs = FlagSet.from_indices([0, 2, 5], 3, 2)
    assert fs.size == 21
    assert fs.count == 3
    assert fs.indices() == [0, 2, 5]
    assert list(fs.iter_indices()) == fs.indices()
    assert fs.contains(2) and not fs.contains(1)


def test_flagset_roundtrip_on_a_sparse_large_bitmap():
    rng = random.Random(7)
    size = q_factorial(5, 3)  # 251,680 flags
    picked = sorted(set(rng.sample(range(size), 2000)) | {0, 7, 8, size - 1})
    fs = FlagSet.from_indices(reversed(picked), 5, 3)
    assert fs.size == size
    assert fs.bits == sum(1 << i for i in picked)
    assert fs.count == len(picked)
    assert fs.indices() == picked
    assert list(fs.iter_indices()) == picked
    assert FlagSet.from_indices([], 5, 3).indices() == []
    with pytest.raises(ValueError):
        FlagSet.from_indices([size], 5, 3)
    with pytest.raises(ValueError):
        FlagSet.from_indices([-1], 5, 3)


def test_point_labels_equal_flag_text():
    def check(fs):
        assert list(point_labels(fs)) == [
            flag_text(flag_at(i, fs.n, fs.p)) for i in fs.indices()]

    for n, p in [(3, 3), (4, 2)]:
        check(FlagSet.from_indices(range(q_factorial(n, p)), n, p))
    rng = random.Random(11)
    size = q_factorial(4, 3)
    for k in (0, 1, 50, size // 2):
        check(FlagSet.from_indices(rng.sample(range(size), k), 4, 3))


def test_point_labels_step_the_free_values_across_carries():
    # At (4, 5) a cell holds up to 5^6 flags; strides of 1, 4, 6 and 31
    # carry across one or more base-5 digits between members.
    size = q_factorial(4, 5)
    for stride in (1, 4, 6, 31):
        fs = FlagSet.from_indices(range(3, size // (32 // stride), stride),
                                  4, 5)
        assert list(point_labels(fs)) == [
            flag_text(flag_at(i, 4, 5)) for i in fs.indices()]


@pytest.mark.parametrize("n, p", [(1, 3), (2, 3), (3, 2), (3, 5), (4, 3),
                                  (5, 2), (4, 7)])
def test_packed_index_equals_canonical_columns(n, p):
    ln = lanes(n, p)
    rng = random.Random(n * 10 + p)
    checked = 0
    while checked < 200:
        cols = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        packed = [ln.pack(c) for c in cols]
        try:
            expect = canonical_columns(cols, p)[2]
        except ValueError:
            with pytest.raises(ValueError, match="singular"):
                packed_index(packed, ln)
            continue
        assert packed_index(packed, ln) == expect
        checked += 1


def test_flag_at_inverts_the_enumeration_order():
    for n, p in [(1, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        for f in iter_flags(n, p):
            assert flag_at(f.index, n, p) == f
    with pytest.raises(ValueError):
        flag_at(q_factorial(3, 2), 3, 2)
    with pytest.raises(ValueError):
        flag_at(-1, 3, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cell_offsets_from_prefixes_equal_the_cell_table(p):
    # The table: cells in lex order, each holding p^l(w) flags.
    for n in range(1, 7):
        start = 0
        for w in itertools.permutations(range(1, n + 1)):
            assert _cell_offset(w, p) == start
            start += p ** inversions(w)
        assert start == q_factorial(n, p)


def test_flag_cell_inverts_the_index_at_high_rank():
    rng = random.Random(17)
    for n in range(7, 13):
        for p in (2, 3, 5):
            for _ in range(20):
                w = tuple(rng.sample(range(1, n + 1), n))
                values = tuple(rng.randrange(p) for _ in range(inversions(w)))
                assert flag_cell(_flag_index(w, values, p), n, p) == (w, values)


def test_the_last_flag_of_rank_twelve_without_listing_the_cells():
    # The w0 cell is the last; its last flag has every free value p - 1.
    f = flag_at(q_factorial(12, 2) - 1, 12, 2)
    assert f.cell == tuple(range(12, 0, -1))
    assert f.values == (1,) * 66


def test_canonical_form_indexes_a_flag_without_listing_the_cells():
    # The w0 cell of rank 12 is the last, with 2^66 flags. A table of all
    # 12! (about 4.8e8) cells would not fit in memory.
    f = canonical_form(Matrix.permutation(range(12, 0, -1), 2))
    assert f.index == q_factorial(12, 2) - 2 ** 66
