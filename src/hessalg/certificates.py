"""Constructive certificates: witness flags separating strict shapes, the
antidiagonal involution, and the regular-nilpotent product decomposition.

The witness construction builds, for a non-scalar Jordan operator and a
pair i < j, an explicit flag that lies in Hess(X, H) exactly when the
shape allows entry (i, j) below the diagonal (t_i >= j). The three
defining conditions are re-verified at runtime on every construction, so
a returned witness is always a checked certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .field import (JordanSpec, Matrix, antitranspose, inverse_rows,
                    jordan_matrix, regular_nilpotent, similarity_transform)
from .flags import (Flag, _flag_index, _rep_rows, canonical_columns,
                    canonical_form, chain_contains, chain_images,
                    chain_member, flag_at, flag_cell, flag_text, inversions,
                    profile)
from .shapes import (HessShape, enumerate_shapes, full_shape, is_strict,
                     peterson_shape, shape_le, shape_text, split_points,
                     split_shape, transpose_shape)
from .varieties import OperatorSpec, variety_bitmaps


# ---------------------------------------------------------------------------
# Witness flags (separating strict Hessenberg varieties).
# ---------------------------------------------------------------------------

def check_lemma(x: Matrix, flag, i: int, j: int):
    """Evaluate the three witness conditions for (X, i, j):
    (1) X F_k inside F_k for k < i and k > j;
    (2) X F_i inside F_j;
    (3) X F_i not inside F_{j-1}.
    Returns ((c1, c2, c3), verdict)."""
    f = flag if isinstance(flag, Flag) else canonical_form(flag)
    if not 1 <= i < j <= f.n:
        raise ValueError("need 1 <= i < j <= n")
    return lemma_conditions(chain_images(x, f), f, i, j)


def lemma_conditions(images, f: Flag, i: int, j: int):
    """check_lemma's conditions and verdict, read from the chain images
    of f (flags.chain_images)."""
    c1 = chain_contains(images, ((k, k) for k in range(1, f.n + 1)
                                 if not i <= k <= j), f)
    c2 = chain_contains(images, [(i, j)], f)
    c3 = not chain_contains(images, [(i, j - 1)], f)
    return (c1, c2, c3), (c1 and c2 and c3)


def _construction_order(spec: JordanSpec):
    """Block-instance order used by the witness construction: sizes
    descending, and in the all-singleton case the first two blocks carry
    different eigenvalues."""
    blocks = list(spec.blocks)
    order = sorted(range(len(blocks)), key=lambda b: (-blocks[b][1], b))
    if blocks[order[0]][1] == 1:
        first_ev = blocks[order[0]][0]
        other = next((k for k in range(1, len(order))
                      if blocks[order[k]][0] != first_ev), None)
        if other is None:
            raise ValueError("witness construction needs a non-scalar operator")
        order.insert(1, order.pop(other))
    return order


def witness_flag(spec: JordanSpec, i: int, j: int) -> Matrix:
    """Invertible flag matrix satisfying check_lemma for (X, i, j), where
    X = jordan_matrix(spec). Entries are 0/1 (one column may be a sum of
    two basis vectors in the diagonalizable case), so the same matrix
    certifies over any field containing the eigenvalues."""
    return build_witness(spec, i, j)[0]


def build_witness(spec: JordanSpec, i: int, j: int):
    """(matrix, its flag, lemma checks) of the witness for (X, i, j); the
    checks are evaluated once and must all hold, else RuntimeError."""
    n = spec.n
    if spec.is_scalar():
        raise ValueError("no witness exists for a scalar operator")
    if not 1 <= i < j <= n:
        raise ValueError("need 1 <= i < j <= n")
    blocks = list(spec.blocks)
    order = _construction_order(spec)
    starts = []
    pos = 0
    for _, size in blocks:
        starts.append(pos)
        pos += size
    # pos_of[t] = 0-based original index of construction basis vector c_{t+1}.
    pos_of = []
    for b in order:
        pos_of.extend(range(starts[b], starts[b] + blocks[b][1]))
    mu1 = blocks[order[0]][1]

    def basis_vec(t):  # construction index t (1-based) -> original e-vector
        v = [0] * n
        v[pos_of[t - 1]] = 1
        return v

    cols = []
    if mu1 > 1:
        if i <= n - mu1:
            tail = list(range(mu1 + 1, n + 1))        # c_{mu1+1} .. c_n
            middle = list(range(3, mu1 + 1))          # c_3 .. c_mu1
            vseq = tail + middle + [2, 1]             # v_1 .. v_n
            for k in range(1, n + 1):
                if k < i:
                    cols.append(basis_vec(vseq[k - 1]))
                elif k == i:
                    cols.append(basis_vec(2))
                elif k < j:
                    cols.append(basis_vec(vseq[k - 2]))
                elif k == j:
                    cols.append(basis_vec(1))
                else:
                    cols.append(basis_vec(vseq[k - 3]))
        else:
            for k in range(1, n + 1):
                if k <= n - mu1:
                    cols.append(basis_vec(k + mu1))
                elif k < i:
                    cols.append(basis_vec(k - n + mu1))
                elif k < j:
                    cols.append(basis_vec(k - n + mu1 + 1))
                elif k == j:
                    cols.append(basis_vec(i - n + mu1))
                else:
                    cols.append(basis_vec(k - n + mu1))
    else:
        for k in range(1, n + 1):
            if k < i:
                cols.append(basis_vec(k + 2))
            elif k == i:
                v = [(a + b) % spec.p for a, b in zip(basis_vec(1), basis_vec(2))]
                cols.append(v)
            elif k < j:
                cols.append(basis_vec(k + 1))
            elif k == j:
                cols.append(basis_vec(1))
            else:
                cols.append(basis_vec(k))
    a = Matrix.from_columns(cols, spec.p)
    f = canonical_form(a)
    checks, verdict = check_lemma(jordan_matrix(spec), f, i, j)
    if not verdict:
        raise RuntimeError("witness construction failed its own checks")
    return a, f, checks


@lru_cache(maxsize=None)
def _strict_shapes(n: int):
    """(shape_text, shape) for every strict shape of rank n, in
    enumerate_shapes order."""
    return tuple((shape_text(s), s)
                 for s in enumerate_shapes(n, strict_only=True))


def strict_memberships(x: Matrix, f: Flag) -> dict:
    """shape_text -> membership of f in Hess(X, s), over every strict shape
    s, read from the profile of f."""
    m = profile(x, f)
    return {text: all(a <= b for a, b in zip(m, s.t))
            for text, s in _strict_shapes(f.n)}


# Bounds of the per-session memos below. Each holds work that depends only
# on the operator, on (n, p) or on (X, i, j); the checks that use it run on
# every call. Worst-case memory, measured with tracemalloc on full memos
# at n = 6, p = 7 (about 4 MB in all):
# - the transform, 2.3 KB an operator: 64 operators, 0.15 MB;
# - the involution index map, 0.25 KB an index: 4,096 indices, 1.0 MB;
# - the composed index map, 0.2 KB an index: 4,096 indices, 0.8 MB;
# - the witness with its memberships, 7.8 KB an (X, i, j): 256, 2.0 MB.
TRANSFORM_MEMO_SIZE = 64
INDEX_MEMO_SIZE = 4096
WITNESS_MEMO_SIZE = 256


@lru_cache(maxsize=WITNESS_MEMO_SIZE)
def _witness_entry(spec: JordanSpec, i: int, j: int):
    """(witness flag, its memberships over every strict shape) for
    (X, i, j). Callers copy the memberships before handing them out."""
    f = build_witness(spec, i, j)[1]
    return f, strict_memberships(jordan_matrix(spec), f)


@dataclass(frozen=True)
class WitnessCertificate:
    operator: JordanSpec
    pair: tuple
    flag: Flag
    checks: tuple        # the three lemma condition results
    memberships: dict    # shape_text -> bool, over all strict shapes
    in_first: bool
    in_second: bool


def certify_distinct(spec: JordanSpec, s1: HessShape,
                     s2: HessShape) -> WitnessCertificate:
    """Witness that Hess(X, s1) != Hess(X, s2) for distinct strict shapes
    and non-scalar X: a flag lying in exactly one of the two varieties."""
    n = spec.n
    if s1.n != n or s2.n != n:
        raise ValueError("shape rank != operator rank")
    if not (is_strict(s1) and is_strict(s2)):
        raise ValueError("both shapes must be strict")
    if s1.t == s2.t:
        raise ValueError("shapes are equal; nothing to separate")
    if spec.is_scalar():
        raise ValueError("scalar operators do not separate strict shapes")
    pair = next((i, j)
                for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if (s1.t[i - 1] >= j) != (s2.t[i - 1] >= j))
    i, j = pair
    f, memberships = _witness_entry(spec, i, j)
    memberships = dict(memberships)
    # The witness is shared between calls. Its chain images are computed
    # afresh on every call, and the lemma and the two memberships the
    # certificate rests on are re-checked from them.
    images = chain_images(jordan_matrix(spec), f)
    checks, verdict = lemma_conditions(images, f, i, j)
    if not verdict:
        raise RuntimeError("witness for (%d, %d) fails the lemma at flag %s"
                           % (i, j, flag_text(f)))
    for s in (s1, s2):
        if chain_member(images, s, f) != memberships[shape_text(s)]:
            raise RuntimeError(
                "profile and chain membership disagree on %s at flag %s"
                % (shape_text(s), flag_text(f)))
    in1 = memberships[shape_text(s1)]
    in2 = memberships[shape_text(s2)]
    if in1 == in2:
        raise RuntimeError("witness does not separate the varieties")
    return WitnessCertificate(spec, pair, f, checks, memberships, in1, in2)


# ---------------------------------------------------------------------------
# The antidiagonal involution.
# ---------------------------------------------------------------------------

def involution_image(f: Flag) -> Flag:
    """gB -> w0 (g^T)^{-1} w0 B; an involution on the flag set."""
    return flag_at(_involution_index(f.index, f.n, f.p), f.n, f.p)


@lru_cache(maxsize=INDEX_MEMO_SIZE)
def _involution_index(index: int, n: int, p: int) -> int:
    """Index of w0 (g^T)^{-1} w0 for the canonical representative g of
    the flag at an index. Its entry (i, j) is entry (n-1-j, n-1-i) of
    g^{-1}, so column j is row n-1-j of g^{-1} reversed."""
    inv = inverse_rows(_rep_rows(*flag_cell(index, n, p)), p)
    return canonical_columns([inv[n - 1 - j][::-1] for j in range(n)], p)[2]


@lru_cache(maxsize=TRANSFORM_MEMO_SIZE)
def _involution_transform(x: Matrix):
    """(Y, P): Y = w0 X^T w0, and P with P Y P^{-1} = X, or None if there
    is no such P."""
    ym = antitranspose(x)
    return ym, similarity_transform(ym, x)


@lru_cache(maxsize=INDEX_MEMO_SIZE)
def _composed_index(x: Matrix, index: int, n: int, p: int) -> int:
    """Index of P g' for the flag at an index, where g' is the canonical
    representative of its involution image and P comes from
    _involution_transform(X). P g' spans the same flag as P times any
    other representative of the image."""
    prows = _involution_transform(x)[1].rows
    g = _rep_rows(*flag_cell(_involution_index(index, n, p), n, p))
    return canonical_columns(
        [[sum(a * b for a, b in zip(r, c)) % p for r in prows]
         for c in zip(*g)], p)[2]


@dataclass(frozen=True)
class InvolutionReport:
    shape: HessShape
    partner: HessShape
    p: int
    count: int
    partner_count: int
    intermediate_bijection: bool  # onto Hess(w0 X^T w0, transposed shape)
    composed_bijection: bool      # onto Hess(X, transposed shape)
    ok: bool


def verify_involution(x: OperatorSpec, s: HessShape, p: int) -> InvolutionReport:
    n = s.n
    xm = x.matrix(p)
    ym, pmat = _involution_transform(xm)  # ym = w0 * X^T * w0
    if pmat is None:
        raise RuntimeError("X and w0 X^T w0 must be similar")
    if pmat * ym != xm * pmat or not pmat.is_invertible():
        raise RuntimeError("similarity transform fails P Y = X P "
                           "with P invertible")
    s_t = transpose_shape(s)
    v1, v3 = variety_bitmaps(xm, [s, s_t], n, p)
    v2 = variety_bitmaps(ym, [s_t], n, p)[0]
    points = v1.indices()
    inter_ok = ({_involution_index(i, n, p) for i in points}
                == set(v2.indices()))
    comp_ok = ({_composed_index(xm, i, n, p) for i in points}
               == set(v3.indices()))
    counts_ok = v1.count == v3.count
    return InvolutionReport(s, s_t, p, v1.count, v3.count, inter_ok, comp_ok,
                            inter_ok and comp_ok and counts_ok)


# ---------------------------------------------------------------------------
# Product decomposition of regular nilpotent varieties.
# ---------------------------------------------------------------------------

def _cell_flag(cell: tuple, values: tuple, p: int) -> Flag:
    n = len(cell)
    return Flag(n, p, cell, values, _flag_index(cell, values, n, p))


def product_flag(f1: Flag, f2: Flag) -> Flag:
    """Block-diagonal combination of a flag on [j] and a flag on [n-j]. The
    block diagonal of two canonical representatives is canonical: rows
    1..j are pivot rows of the first block, so no free entry lies right of
    column j, and the free values are those of f1, then those of f2."""
    if f1.p != f2.p:
        raise ValueError("modulus mismatch")
    return _cell_flag(f1.cell + tuple(w + f1.n for w in f2.cell),
                      f1.values + f2.values, f1.p)


def split_flag(f: Flag, j: int):
    """Inverse of product_flag: the second factor is the quotient by
    span{e_1..e_j}. Requires chain(f, j) = span{e_1..e_j}, which holds iff
    the first j pivots lie in rows 1..j; the representative is then block
    diagonal."""
    if not 1 <= j < f.n:
        raise ValueError("split index out of range")
    top = f.cell[:j]
    if sorted(top) != list(range(1, j + 1)):
        raise ValueError("F_j is not the span of the first j basis vectors")
    k = inversions(top)
    return (_cell_flag(top, f.values[:k], f.p),
            _cell_flag(tuple(w - j for w in f.cell[j:]), f.values[k:], f.p))


@dataclass(frozen=True)
class DecompositionReport:
    shape: HessShape
    split_index: int
    sub_shapes: tuple
    p: int
    count: int
    count1: int
    count2: int
    pairs_checked: int
    ok: bool


def verify_decomposition(s: HessShape, p: int,
                         j: int | None = None) -> DecompositionReport:
    """Check that Hess(N, s) over F_p is exactly the product of the two
    split varieties: counts multiply and split/product are inverse
    bijections on every point."""
    n = s.n
    if j is None:
        points = split_points(s)
        if not points:
            raise ValueError("shape has no split index t_j = j with j < n")
        j = points[0]
    h1, h2 = split_shape(s, j)
    v = variety_bitmaps(regular_nilpotent(n, p), [s], n, p)[0]
    v1 = variety_bitmaps(regular_nilpotent(j, p), [h1], j, p)[0]
    v2 = variety_bitmaps(regular_nilpotent(n - j, p), [h2], n - j, p)[0]
    flags1 = [flag_at(i, j, p) for i in v1.indices()]
    flags2 = [flag_at(i, n - j, p) for i in v2.indices()]
    target = set(v.indices())
    seen = set()
    pairs = 0
    ok = True
    for f1 in flags1:
        for f2 in flags2:
            prod = product_flag(f1, f2)
            pairs += 1
            if prod.index not in target or prod.index in seen:
                ok = False
            seen.add(prod.index)
            back = split_flag(prod, j)
            if back != (f1, f2):
                ok = False
    ok = ok and seen == target and v.count == v1.count * v2.count
    return DecompositionReport(s, j, (h1, h2), p, v.count, v1.count, v2.count,
                               pairs, ok)


@dataclass(frozen=True)
class IntervalReport:
    n: int
    decomposable: tuple
    indecomposable: tuple
    bottom: HessShape  # Peterson shape
    top: HessShape     # full gl_n
    ok: bool


def indecomposable_interval(n: int) -> IntervalReport:
    """Partition strict shapes by decomposability and verify that the
    indecomposable ones form the interval [Peterson shape, full space]."""
    if n < 2:
        raise ValueError("need n >= 2")
    strict = enumerate_shapes(n, strict_only=True)
    dec = tuple(s for s in strict if split_points(s))
    indec = tuple(s for s in strict if not split_points(s))
    bottom = peterson_shape(n)
    top = full_shape(n)
    interval = tuple(s for s in strict
                     if shape_le(bottom, s) and shape_le(s, top))
    return IntervalReport(n, dec, indec, bottom, top, indec == interval)
