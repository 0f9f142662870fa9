"""Constructive certificates: witness flags separating strict shapes, the
antidiagonal involution, and the regular-nilpotent product decomposition.

The witness construction builds, for a non-scalar Jordan operator and a
pair i < j, an explicit flag that lies in Hess(X, H) exactly when the
shape allows entry (i, j) below the diagonal (t_i >= j). The three
defining conditions are re-verified at runtime on every construction, so
a returned witness is always a checked certificate.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .field import (JordanSpec, Matrix, Value, antitranspose, inverse_rows,
                    jordan_matrix, regular_nilpotent, similarity_transform)
from .flags import (Flag, _flag_index, _rep_rows, canonical_columns,
                    canonical_form, chain_contains, chain_images,
                    chain_levels, chain_member, flag_at, flag_cell,
                    flag_text, inversions, profile)
from .shapes import (HessShape, enumerate_shapes, full_shape, is_strict,
                     peterson_shape, shape_le, shape_text, split_points,
                     split_shape, transpose_shape)
from .varieties import OperatorSpec, variety_indices


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
    return lemma_conditions(chain_levels(chain_images(x, f), f), i, j)


def lemma_conditions(levels, i: int, j: int):
    """check_lemma's conditions and verdict, read from the chain levels
    of the flag (flags.chain_levels)."""
    c1 = chain_contains(levels, ((k, k) for k in range(1, len(levels) + 1)
                                 if not i <= k <= j))
    c2 = chain_contains(levels, [(i, j)])
    c3 = not chain_contains(levels, [(i, j - 1)])
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
# at n = 6, p = 7 (about 3.3 MB in all):
# - the transform with its inverse, 2.2 KB an operator: 64, 0.14 MB;
# - the index maps, 0.11 KB an index: 8,192 indices, 0.9 MB;
# - the witness with its memberships and X, 8.5 KB an (X, i, j): 256,
#   2.2 MB.
TRANSFORM_MEMO_SIZE = 64
INDEX_MEMO_SIZE = 8192
INDEX_MEMO_MAPS = 64
WITNESS_MEMO_SIZE = 256


@lru_cache(maxsize=WITNESS_MEMO_SIZE)
def _witness_entry(spec: JordanSpec, i: int, j: int):
    """(witness flag, its memberships over every strict shape, X) for
    (X, i, j). Callers copy the memberships before handing them out."""
    x = jordan_matrix(spec)
    f = build_witness(spec, i, j)[1]
    return f, strict_memberships(x, f), x


class WitnessCertificate(Value):
    __slots__ = ("operator", "pair", "flag",
                 "checks",       # the three lemma condition results
                 "memberships",  # shape_text -> bool, over all strict shapes
                 "in_first", "in_second")


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
    f, memberships, x = _witness_entry(spec, i, j)
    memberships = dict(memberships)
    # The witness is shared between calls. Its chain images and their
    # levels are computed afresh on every call, and the lemma and the two
    # memberships the certificate rests on are re-checked from them.
    levels = chain_levels(chain_images(x, f), f)
    checks, verdict = lemma_conditions(levels, i, j)
    if not verdict:
        raise RuntimeError("witness for (%d, %d) fails the lemma at flag %s"
                           % (i, j, flag_text(f)))
    in1, in2 = (memberships[shape_text(s)] for s in (s1, s2))
    for s, held in ((s1, in1), (s2, in2)):
        if chain_member(levels, s) != held:
            raise RuntimeError(
                "profile and chain membership disagree on %s at flag %s"
                % (shape_text(s), flag_text(f)))
    if in1 == in2:
        raise RuntimeError("witness does not separate the varieties")
    return WitnessCertificate(spec, pair, f, checks, memberships, in1, in2)


# ---------------------------------------------------------------------------
# The antidiagonal involution.
# ---------------------------------------------------------------------------

def involution_image(f: Flag) -> Flag:
    """gB -> w0 (g^T)^{-1} w0 B; an involution on the flag set."""
    return flag_at(_involution_index(f.index, f.n, f.p), f.n, f.p)


def _involution_index(index: int, n: int, p: int) -> int:
    """Index of w0 (g^T)^{-1} w0 for the canonical representative g of
    the flag at an index. Its entry (i, j) is entry (n-1-j, n-1-i) of
    g^{-1}, so column j is row n-1-j of g^{-1} reversed."""
    inv = inverse_rows(_rep_rows(*flag_cell(index, n, p)), p)
    return canonical_columns([inv[n - 1 - j][::-1] for j in range(n)], p)[2]


def _composed_index(prows, index: int, n: int, p: int) -> int:
    """Index of P g for the canonical representative g of the flag at an
    index, where P has the given rows. P g spans the same flag as P times
    any other representative of it."""
    g = _rep_rows(*flag_cell(index, n, p))
    return canonical_columns(
        [[sum(map(mul, r, c)) % p for r in prows] for c in zip(*g)], p)[2]


@lru_cache(maxsize=TRANSFORM_MEMO_SIZE)
def _involution_transform(x: Matrix):
    """(Y, P, Q): Y = w0 X^T w0, P with P Y P^{-1} = X and Q = P^{-1}, or
    (Y, None, None) if there is no such P."""
    ym = antitranspose(x)
    pmat = similarity_transform(ym, x)
    return ym, pmat, (None if pmat is None else pmat.inverse())


# The involution's index maps, least recently used first: (n, p) -> {flag
# index: its involution image's index}, X -> {flag index: P g's index}.
_index_maps = {}


def _mapped(context, indices, image) -> set:
    """{image(i) for i in indices}, read from the context's index map, which
    stores what it lacked. Then the oldest maps go until both bounds hold,
    so a call that maps more points than INDEX_MEMO_SIZE keeps none."""
    _index_maps[context] = memo = _index_maps.pop(context, None) or {}
    out = {memo[i] if i in memo else memo.setdefault(i, image(i))
           for i in indices}
    while (len(_index_maps) > INDEX_MEMO_MAPS
           or sum(map(len, _index_maps.values())) > INDEX_MEMO_SIZE):
        del _index_maps[next(iter(_index_maps))]
    return out


class InvolutionReport(Value):
    __slots__ = ("shape", "partner", "p", "count", "partner_count",
                 # onto Hess(w0 X^T w0, transposed shape)
                 "intermediate_bijection",
                 "composed_bijection",  # onto Hess(X, transposed shape)
                 "ok")


def verify_involution(x: OperatorSpec, s: HessShape, p: int) -> InvolutionReport:
    n = s.n
    xm = x.matrix(p)
    ym, pmat, qmat = _involution_transform(xm)  # ym = w0 * X^T * w0
    if pmat is None:
        raise RuntimeError("X and w0 X^T w0 must be similar")
    # The memoized P is re-checked on every call: P Q = I makes it
    # invertible.
    if pmat * ym != xm * pmat or pmat * qmat != Matrix.identity(n, p):
        raise RuntimeError("similarity transform fails P Y = X P "
                           "with P invertible")
    s_t = transpose_shape(s)
    v1, v3 = variety_indices(xm, [s, s_t], n, p)
    (v2,) = variety_indices(ym, [s_t], n, p)
    images = _mapped((n, p), v1, lambda i: _involution_index(i, n, p))
    composed = _mapped(xm, images,
                       lambda i: _composed_index(pmat.rows, i, n, p))
    inter_ok = images == set(v2)
    comp_ok = composed == set(v3)
    return InvolutionReport(s, s_t, p, len(v1), len(v3), inter_ok, comp_ok,
                            inter_ok and comp_ok and len(v1) == len(v3))


# ---------------------------------------------------------------------------
# Product decomposition of regular nilpotent varieties.
# ---------------------------------------------------------------------------

def _cell_flag(cell: tuple, values: tuple, p: int) -> Flag:
    return Flag(len(cell), p, cell, values, _flag_index(cell, values, p))


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


class DecompositionReport(Value):
    __slots__ = ("shape", "split_index", "sub_shapes", "p", "count",
                 "count1", "count2", "pairs_checked", "ok")


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
    v, v1, v2 = (variety_indices(regular_nilpotent(m, p), [h], m, p)[0]
                 for m, h in ((n, s), (j, h1), (n - j, h2)))
    flags1 = [flag_at(i, j, p) for i in v1]
    flags2 = [flag_at(i, n - j, p) for i in v2]
    target = set(v)
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
    ok = ok and seen == target and len(v) == len(v1) * len(v2)
    return DecompositionReport(s, j, (h1, h2), p, len(v), len(v1), len(v2),
                               pairs, ok)


class IntervalReport(Value):
    __slots__ = ("n", "decomposable", "indecomposable",
                 "bottom",  # Peterson shape
                 "top",     # full gl_n
                 "ok")


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
