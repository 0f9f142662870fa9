import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hessalg.field import (JordanSpec, Matrix, antitranspose, conjugate,
                           image_subspace, inv_mod, jordan_matrix,
                           jordan_spec, regular_nilpotent,
                           similarity_transform, span_of, subspace_le,
                           zero_subspace)

PRIMES = [2, 3, 5, 7]


def random_matrix(n, p, rng):
    return Matrix.from_rows([[rng.randrange(p) for _ in range(n)]
                             for _ in range(n)], p)


def random_invertible(n, p, rng):
    while True:
        m = random_matrix(n, p, rng)
        if m.is_invertible():
            return m


# --- scalar arithmetic / field axioms ---------------------------------------

@given(st.sampled_from(PRIMES), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
def test_field_axioms(p, a, b, c):
    a, b, c = a % p, b % p, c % p
    assert (a + b) % p == (b + a) % p
    assert (a * b) % p == (b * a) % p
    assert (a * (b + c)) % p == (a * b + a * c) % p
    if a != 0:
        assert a * inv_mod(a, p) % p == 1


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        inv_mod(0, 5)


# --- canonical subspaces -----------------------------------------------------

def test_canonicalize_full_space_f2():
    s = span_of([(1, 1), (0, 1)], 2, 2)
    assert s.basis == ((1, 0), (0, 1))
    assert s.dim == 2


def test_canonicalize_scales_pivot_to_one():
    s = span_of([(2, 4)], 2, 5)
    assert s.basis == ((1, 2),)


def test_empty_span_is_zero_subspace():
    s = span_of([], 3, 2)
    assert s.dim == 0
    assert s == zero_subspace(3, 2)


def test_span_of_matrix_columns_is_idempotent():
    m = Matrix.from_rows([[1, 2, 3], [0, 1, 4], [2, 2, 0]], 5)
    s = span_of(m.columns(), 3, 5)
    again = span_of(s.basis, 3, 5)
    assert again == s


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.integers(2, 4), st.randoms(use_true_random=False))
def test_canonical_form_is_span_invariant(p, n, rng):
    vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(n - 1)]
    s = span_of(vecs, n, p)
    # Shuffle and rescale the spanning set; the canonical form must agree.
    mixed = []
    for v in vecs:
        c = rng.randrange(1, p)
        mixed.append([x * c % p for x in v])
    rng.shuffle(mixed)
    if mixed:
        # Throw in a random sum of two spanning vectors.
        mixed.append([(a + b) % p for a, b in zip(vecs[0], vecs[-1])])
    assert span_of(mixed, n, p) == s


def test_stored_pivot_rows_are_the_leading_rows_of_the_basis():
    rng = random.Random(0xB1F0)
    for _ in range(400):
        n = rng.randint(1, 5)
        p = rng.choice([2, 3, 5])
        vecs = [[rng.randrange(p) for _ in range(n)]
                for _ in range(rng.randint(0, n + 1))]
        v = span_of(vecs, n, p)
        assert v.pivot_rows == tuple(next(i for i, x in enumerate(col) if x)
                                     for col in v.basis)
        again = span_of(list(reversed(vecs)), n, p)
        assert again == v and hash(again) == hash(v)


def test_subspace_le_examples():
    zero = zero_subspace(3, 2)
    e1 = span_of([(1, 0, 0)], 3, 2)
    e2 = span_of([(0, 1, 0)], 3, 2)
    e12 = span_of([(1, 0, 0), (0, 1, 0)], 3, 2)
    assert subspace_le(zero, e1)
    assert subspace_le(e1, e12)
    assert not subspace_le(e1, e2)


def test_subspace_le_rejects_mismatch():
    with pytest.raises(ValueError):
        subspace_le(zero_subspace(2, 2), zero_subspace(3, 2))
    with pytest.raises(ValueError):
        subspace_le(zero_subspace(2, 2), zero_subspace(2, 3))


def test_subspace_le_is_partial_order():
    rng = random.Random(11)
    subs = [span_of([[rng.randrange(3) for _ in range(3)]
                     for _ in range(rng.randrange(4))], 3, 3)
            for _ in range(30)]
    for a in subs:
        assert subspace_le(a, a)
        for b in subs:
            if subspace_le(a, b) and subspace_le(b, a):
                assert a == b
            for c in subs:
                if subspace_le(a, b) and subspace_le(b, c):
                    assert subspace_le(a, c)


# --- images and conjugation --------------------------------------------------

def test_image_of_zero_operator():
    v = span_of([(1, 1, 0)], 3, 2)
    assert image_subspace(Matrix.zero(3, 3, 2), v) == zero_subspace(3, 2)


def test_image_of_regular_nilpotent():
    n3 = regular_nilpotent(3, 2)
    e1 = span_of([(1, 0, 0)], 3, 2)
    assert image_subspace(n3, e1) == zero_subspace(3, 2)
    full = span_of(Matrix.identity(3, 2).columns(), 3, 2)
    assert image_subspace(n3, full) == span_of(
        [(1, 0, 0), (0, 1, 0)], 3, 2)


def test_conjugate_by_identity():
    x = Matrix.from_rows([[1, 2], [3, 4]], 5)
    assert conjugate(x, Matrix.identity(2, 5)) == x


def test_conjugate_by_transposition_swaps_diagonal():
    x = Matrix.diagonal([1, 0], 5)
    g = Matrix.permutation((2, 1), 5)
    assert conjugate(x, g) == Matrix.diagonal([0, 1], 5)


def test_conjugation_is_group_action():
    rng = random.Random(3)
    for p in (2, 5):
        x = random_matrix(3, p, rng)
        g = random_invertible(3, p, rng)
        h = random_invertible(3, p, rng)
        assert conjugate(conjugate(x, g), g.inverse()) == x
        assert conjugate(x, g * h) == conjugate(conjugate(x, g), h)


def test_conjugate_rejects_singular():
    with pytest.raises(ValueError):
        conjugate(Matrix.identity(2, 2), Matrix.zero(2, 2, 2))


# --- Jordan matrices ---------------------------------------------------------

def test_regular_nilpotent_matrix():
    assert jordan_matrix(jordan_spec([(0, 3)], 2)).rows == (
        (0, 1, 0), (0, 0, 1), (0, 0, 0))


def test_projection_jordan_matrix():
    # blocks (1,1),(0,1) give diag(1,0): eigenvalues in descending order
    assert jordan_matrix(jordan_spec([(0, 1), (1, 1)], 5)) == \
        Matrix.diagonal([1, 0], 5)


def test_three_block_jordan_matrix():
    spec = jordan_spec([(4, 3), (3, 2), (2, 1)], 5)
    assert jordan_matrix(spec).rows == (
        (4, 1, 0, 0, 0, 0),
        (0, 4, 1, 0, 0, 0),
        (0, 0, 4, 0, 0, 0),
        (0, 0, 0, 3, 1, 0),
        (0, 0, 0, 0, 3, 0),
        (0, 0, 0, 0, 0, 2))


def test_jordan_spec_canonical_order():
    a = jordan_spec([(0, 1), (1, 2), (1, 3)], 3)
    b = jordan_spec([(1, 3), (0, 1), (1, 2)], 3)
    assert a == b
    assert a.blocks == ((1, 3), (1, 2), (0, 1))


def test_jordan_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        jordan_spec([(5, 2)], 3)  # eigenvalue outside the field
    with pytest.raises(ValueError):
        jordan_spec([(0, 0)], 3)


def test_scalar_detection():
    assert jordan_spec([(1, 1), (1, 1)], 3).is_scalar()
    assert not jordan_spec([(1, 2)], 3).is_scalar()
    assert not jordan_spec([(1, 1), (0, 1)], 3).is_scalar()


# --- antitranspose -----------------------------------------------------------

def test_antitranspose_2x2():
    m = Matrix.from_rows([[1, 2], [3, 4]], 5)
    assert antitranspose(m) == Matrix.from_rows([[4, 2], [3, 1]], 5)


def test_antitranspose_is_involution():
    rng = random.Random(17)
    for _ in range(10):
        m = random_matrix(4, 3, rng)
        assert antitranspose(antitranspose(m)) == m


def test_antitranspose_preserves_upper_triangular():
    m = Matrix.from_rows([[1, 2, 3], [0, 4, 5], [0, 0, 6]], 7)
    t = antitranspose(m)
    assert all(t.entry(i, j) == 0 for i in range(1, 4) for j in range(1, i))


# --- similarity --------------------------------------------------------------

def assert_transform(p_mat, a, b):
    assert p_mat.is_invertible()
    assert p_mat * a * p_mat.inverse() == b


def test_similarity_of_equal_matrices():
    a = Matrix.from_rows([[1, 1], [0, 2]], 3)
    assert_transform(similarity_transform(a, a), a, a)


def test_similarity_of_permuted_diagonal():
    a = Matrix.diagonal([1, 0], 5)
    b = Matrix.diagonal([0, 1], 5)
    assert_transform(similarity_transform(a, b), a, b)


def test_every_matrix_similar_to_its_antitranspose():
    rng = random.Random(23)
    for p in (2, 3):
        for _ in range(8):
            a = random_matrix(4, p, rng)
            b = antitranspose(a)
            assert_transform(similarity_transform(a, b), a, b)


def test_not_similar_returns_none():
    z = Matrix.zero(2, 2, 2)
    n = regular_nilpotent(2, 2)
    assert similarity_transform(z, n) is None
    a = jordan_matrix(jordan_spec([(0, 2), (0, 1)], 3))
    b = jordan_matrix(jordan_spec([(0, 3)], 3))
    assert similarity_transform(a, b) is None
    # J2 + J2 and J2 + J1 + J1 over F_2: both have characteristic
    # polynomial x^4 and minimal polynomial x^2.
    a = jordan_matrix(jordan_spec([(0, 2), (0, 2)], 2))
    b = jordan_matrix(jordan_spec([(0, 2), (0, 1), (0, 1)], 2))
    assert similarity_transform(a, b) is None
    assert similarity_transform(b, a) is None


def conjugacy_classes(n, p):
    """Brute-force GL_n(F_p) orbits on M_n(F_p): {matrix rows: class id}."""
    every = [Matrix.from_rows([cells[i * n:(i + 1) * n] for i in range(n)], p)
             for cells in itertools.product(range(p), repeat=n * n)]
    group = [(g, g.inverse()) for g in every if g.is_invertible()]
    label, classes = {}, 0
    for a in every:
        if a.rows not in label:
            for g, g_inv in group:
                label[(g * a * g_inv).rows] = classes
            classes += 1
    return every, label


def check_similarity(a, b, label):
    found = similarity_transform(a, b)
    if label[a.rows] != label[b.rows]:
        assert found is None
    else:
        assert found is not None
        assert_transform(found, a, b)


@pytest.mark.parametrize("n, p, classes", [(2, 2, 6), (2, 3, 12)])
def test_similarity_matches_conjugacy_classes_on_all_pairs(n, p, classes):
    every, label = conjugacy_classes(n, p)
    assert len(set(label.values())) == classes
    for a in every:
        for b in every:
            check_similarity(a, b, label)


def test_similarity_matches_conjugacy_classes_on_sampled_pairs():
    # Two pairs per ordered pair of the 14 classes of M_3(F_2), so every
    # pair of distinct classes is tried.
    every, label = conjugacy_classes(3, 2)
    members = {}
    for a in every:
        members.setdefault(label[a.rows], []).append(a)
    assert len(members) == 14
    rng = random.Random(31)
    for ca in members.values():
        for cb in members.values():
            for _ in range(2):
                check_similarity(rng.choice(ca), rng.choice(cb), label)
