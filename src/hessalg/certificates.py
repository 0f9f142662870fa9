"""Constructive certificates: witness flags separating strict shapes, the
antidiagonal involution, and the regular-nilpotent product decomposition.

The witness construction builds, for a non-scalar Jordan operator and a
pair i < j, an explicit flag that lies in Hess(X, H) exactly when the
shape allows entry (i, j) below the diagonal (t_i >= j). The three
defining conditions are re-verified at runtime on every call, so a
returned witness is always a checked certificate: the levels of the
witness's chain images come from one forward reduction against its
packed canonical columns, as in flags.profile, and the lemma and both
memberships are read from their prefix maxima.

The involution maps gB to w0 (g^T)^{-1} w0 B. The canonical representative
of a flag in cell w is g = M w, with M unit upper triangular and nonzero
off the diagonal only on the inversions of w (M[i][w(k)] = g[i][k]). Then
w0 (g^T)^{-1} w0 = (w0 M^{-T} w0)(w0 w w0), and the first factor is the
unit upper triangular factor of a canonical representative of the cell
w0 w w0. So the image needs only M^{-1}, by back-substitution: its entry
(i, k), 1-based, is M^{-1}[w(n+1-k)][n+1-i]. The composed image P g is
built from that image's cell and free values, with P from the operator's
memoized involution context, re-checked on every call.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from operator import le

from .field import (JordanSpec, Matrix, Value, antitranspose, jordan_matrix,
                    lanes, regular_nilpotent, similarity_transform)
from .flags import (Flag, _flag_index, _free_positions, canonical_form,
                    chain_images, chain_levels, flag_cell, flag_text,
                    inversions, packed_form)
from .shapes import (HessShape, enumerate_shapes, full_shape, is_strict,
                     peterson_shape, shape_le, shape_text, split_points,
                     split_shape, transpose_shape)
from .varieties import OperatorSpec, _bound_lanes, _pack, variety_indices


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
    levels = chain_levels(chain_images(x, f), f)
    return lemma_conditions(tuple(accumulate(levels, max)), i, j)


def lemma_conditions(hull, i: int, j: int):
    """check_lemma's conditions and verdict, read from the prefix maxima
    of the flag's chain levels (flags.chain_levels): X F_k lies in F_m iff
    hull[k - 1] <= m."""
    n = len(hull)
    c1 = (all(map(le, hull[:i - 1], range(1, i)))
          and all(map(le, hull[j:], range(j + 1, n + 1))))
    c2 = hull[i - 1] <= j
    c3 = hull[i - 1] >= j
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
    certifies over any field containing the eigenvalues. Unchecked here:
    build_witness and checked_witness check it."""
    return Matrix.from_columns(_witness_columns(spec, i, j), spec.p)


def build_witness(spec: JordanSpec, i: int, j: int):
    """(matrix, its flag, lemma checks) of the witness for (X, i, j) by the
    list-based route; the checks are evaluated once and must all hold, else
    RuntimeError."""
    a = witness_flag(spec, i, j)
    f = canonical_form(a)
    checks, verdict = check_lemma(jordan_matrix(spec), f, i, j)
    if not verdict:
        raise RuntimeError("witness construction failed its own checks")
    return a, f, checks


def _witness_columns(spec: JordanSpec, i: int, j: int) -> list:
    """The columns of the witness matrix for (X, i, j)."""
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
    return cols


@lru_cache(maxsize=None)
def _strict_shapes(n: int):
    """(shape_text, varieties._bound_lanes(t)) of each strict shape of
    rank n, in enumerate_shapes order."""
    return tuple((shape_text(s), _bound_lanes(s.t))
                 for s in enumerate_shapes(n, strict_only=True))


def strict_memberships(levels, n: int) -> dict:
    """shape_text -> membership of a flag in Hess(X, s), over every strict
    shape s of rank n, read from its profile (flags.profile)."""
    shapes = _strict_shapes(n)
    b, tops, _ = shapes[0][1]
    h = _pack(levels, b)
    return {text: bound - h & tops == tops for text, (_, _, bound) in shapes}


# Bounds of the per-session memos below. Each holds work that depends only
# on the operator, on (n, p) or on (X, i, j); the checks that use it run on
# every call. The README gives their memory, measured with tracemalloc.
# INDEX_MEMO_SIZE bounds the two index maps of the involution together.
CONTEXT_MEMO_SIZE = 64
INDEX_MEMO_SIZE = 8192
WITNESS_MEMO_SIZE = 256


def _lane_columns(m: Matrix):
    """The multiples of each column of a square matrix, packed
    (field.Lanes): entry r, c is c times column r."""
    ln = lanes(m.nrows, m.p)
    return tuple(ln.multiples(ln.pack(col)) for col in zip(*m.rows))


def _levels(images, basis, ln) -> tuple:
    """flags.chain_levels of packed images, by flags.profile's reduction:
    how many canonical columns (flags.packed_form) each takes to vanish."""
    add, lane, p = ln.add, ln.lane, ln.p
    out = []
    for v in images:
        m = 0
        for sh, mults in basis:
            if not v:
                break
            y = v >> sh & lane
            if y:
                v = add(v, mults[p - y])
            m += 1
        out.append(m + 1 if v else m)
    return tuple(out)


@lru_cache(maxsize=WITNESS_MEMO_SIZE)
def _witness_entry(spec: JordanSpec, i: int, j: int):
    """(flag, memberships, multiples of X's packed columns, columns of the
    flag's representative, basis for _levels) of the witness for (X, i, j)."""
    n, ln = spec.n, lanes(spec.n, spec.p)
    w, values, index, basis = packed_form(
        [ln.pack(c) for c in _witness_columns(spec, i, j)], ln)
    f = Flag(n, spec.p, w, values, index)
    cols = tuple(zip(*f.rep.rows))
    xmul = _lane_columns(jordan_matrix(spec))
    levels = _levels(ln.product(xmul, cols), basis, ln)
    return f, strict_memberships(levels, n), xmul, cols, basis


def checked_witness(spec: JordanSpec, i: int, j: int):
    """(flag, lemma checks, memberships over every strict shape, prefix
    maxima of the chain levels) of the shared witness for (X, i, j). Every
    call computes its chain images, their levels and the lemma afresh; a
    failed lemma raises RuntimeError."""
    f, memberships, xmul, cols, basis = _witness_entry(spec, i, j)
    ln = lanes(spec.n, spec.p)
    hull = tuple(accumulate(_levels(ln.product(xmul, cols), basis, ln), max))
    checks, verdict = lemma_conditions(hull, i, j)
    if not verdict:
        raise RuntimeError("witness for (%d, %d) fails the lemma at flag %s"
                           % (i, j, flag_text(f)))
    return f, checks, dict(memberships), hull


class WitnessCertificate(Value):
    __slots__ = ("operator", "pair", "flag",
                 "checks",       # the three lemma condition results
                 "memberships",  # shape_text -> bool, over all strict shapes
                 "in_first", "in_second")


def certify_distinct(spec: JordanSpec, s1: HessShape,
                     s2: HessShape) -> WitnessCertificate:
    """Witness that Hess(X, s1) != Hess(X, s2) for distinct strict shapes
    and non-scalar X: a flag lying in exactly one of the two varieties,
    each membership re-checked against the levels checked_witness gives."""
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
    f, checks, memberships, hull = checked_witness(spec, *pair)
    in1, in2 = (memberships[shape_text(s)] for s in (s1, s2))
    for s, held in ((s1, in1), (s2, in2)):
        if all(map(le, hull, s.t)) != held:
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
    return Flag(f.n, f.p, *_involution_cell(f.index, f.n, f.p))


@lru_cache(maxsize=INDEX_MEMO_SIZE // 2)
def _involution_cell(index: int, n: int, p: int):
    """(cell, free values, index) of w0 (g^T)^{-1} w0 for the canonical
    representative g of the flag at an index, by cell arithmetic (module
    docstring): entry (i, k) of the image, 1-based, is entry
    (w(n+1-k), n+1-i) of M^{-1}."""
    w, values = flag_cell(index, n, p)
    # Row r of M^{-1} is e_r minus M[r][c] times row c, over the entries
    # right of the diagonal in row r of M, where M[i][w(k)] = g[i][k].
    above = [[] for _ in range(n)]
    for (i, k), v in zip(_free_positions(w), values):
        if v:
            above[i - 1].append((w[k - 1] - 1, p - v))
    inv = [None] * n
    for r in range(n - 1, -1, -1):
        row = [0] * n
        row[r] = 1
        for c, m in above[r]:
            row = [(a + m * e) % p for a, e in zip(row, inv[c])]
        inv[r] = row
    w2 = tuple(n + 1 - w[n - k] for k in range(1, n + 1))  # w0 w w0
    values = tuple(inv[w[n - k] - 1][n - i] for i, k in _free_positions(w2))
    return w2, values, _flag_index(w2, values, p)


def _composed_index(pmul, w, values, ln) -> int:
    """Index of P g for the canonical representative g of cell w with the
    free values, from the multiples of P's packed columns."""
    add = ln.add
    cols = [pmul[wk - 1][1] for wk in w]
    for (i, k), v in zip(_free_positions(w), values):
        if v:
            cols[k - 1] = add(cols[k - 1], pmul[i - 1][v])
    return packed_form(cols, ln)[2]


def _involution_transform(x: Matrix):
    """(Y, P, Q): Y = w0 X^T w0, P with P Y P^{-1} = X and Q = P^{-1}, or
    (Y, None, None) if there is no such P."""
    ym = antitranspose(x)
    pmat = similarity_transform(ym, x)
    return ym, pmat, (None if pmat is None else pmat.inverse())


class _InvolutionContext:
    """What verify_involution needs of the operator X: Y, field.Lanes, the
    multiples of X's and P's packed columns, the columns of P, those of Y
    then Q, and the packed identity. It hashes by identity, in C, as the
    key of the composed map."""
    __slots__ = ("ym", "ln", "xmul", "pmul", "pcols", "yqcols", "identity")

    def __init__(self, x: Matrix, ym: Matrix, pmat: Matrix, qmat: Matrix):
        self.ym, self.ln = ym, lanes(x.nrows, x.p)
        self.xmul, self.pmul = _lane_columns(x), _lane_columns(pmat)
        self.pcols = tuple(zip(*pmat.rows))
        self.yqcols = (*zip(*ym.rows), *zip(*qmat.rows))
        self.identity = tuple(1 << self.ln.b * j for j in range(x.nrows))


@lru_cache(maxsize=CONTEXT_MEMO_SIZE)
def _involution_context(x: Matrix):
    """X's _InvolutionContext, or None if there is no P."""
    ym, pmat, qmat = _involution_transform(x)
    return None if pmat is None else _InvolutionContext(x, ym, pmat, qmat)


@lru_cache(maxsize=INDEX_MEMO_SIZE // 2)
def _composed(context: _InvolutionContext, index: int) -> int:
    """Index of P g for the involution image g of the flag at an index,
    with P from the context."""
    ln = context.ln
    w, values, _ = _involution_cell(index, ln.n, ln.p)
    return _composed_index(context.pmul, w, values, ln)


class InvolutionReport(Value):
    __slots__ = ("shape", "partner", "p", "count", "partner_count",
                 # onto Hess(w0 X^T w0, transposed shape)
                 "intermediate_bijection",
                 "composed_bijection",  # onto Hess(X, transposed shape)
                 "ok")


def verify_involution(x: OperatorSpec, s: HessShape, p: int) -> InvolutionReport:
    n = s.n
    xm = x.matrix(p)
    context = _involution_context(xm)
    if context is None:
        raise RuntimeError("X and w0 X^T w0 must be similar")
    # The memoized P is re-checked on every call, by packed column products:
    # P Y = X P, and P Q = I, which makes P invertible.
    ln = context.ln
    pyq = ln.product(context.pmul, context.yqcols)
    if (pyq[:ln.n] != ln.product(context.xmul, context.pcols)
            or pyq[ln.n:] != context.identity):
        raise RuntimeError("similarity transform fails P Y = X P "
                           "with P invertible")
    s_t = transpose_shape(s)
    v1, v3 = variety_indices(xm, [s, s_t], n, p)
    (v2,) = variety_indices(context.ym, [s_t], n, p)  # Y = w0 X^T w0
    # One pass, so that a point's image is still in its map when the
    # composed map reads it, even in a call that maps more points than
    # the maps hold.
    images, composed = set(), set()
    for i in v1:
        images.add(_involution_cell(i, n, p)[2])
        composed.add(_composed(context, i))
    inter_ok = images == set(v2)
    comp_ok = composed == set(v3)
    return InvolutionReport(s, s_t, p, len(v1), len(v3), inter_ok, comp_ok,
                            inter_ok and comp_ok and len(v1) == len(v3))


# ---------------------------------------------------------------------------
# Product decomposition of regular nilpotent varieties.
# ---------------------------------------------------------------------------

def product_flag(f1: Flag, f2: Flag) -> Flag:
    """Block-diagonal combination of a flag on [j] and a flag on [n-j]."""
    if f1.p != f2.p:
        raise ValueError("modulus mismatch")
    return Flag(f1.n + f2.n, f1.p, *_product_cell(
        (f1.cell, f1.values), (f2.cell, f2.values), f1.n, f1.p))


def split_flag(f: Flag, j: int):
    """Inverse of product_flag: the second factor is the quotient by
    span{e_1..e_j}."""
    if not 1 <= j < f.n:
        raise ValueError("split index out of range")
    return tuple(Flag(len(cell[0]), f.p, *cell)
                 for cell in _split_cell(f.cell, f.values, j, f.p))


def _product_cell(a, b, j: int, p: int):
    """(cell, free values, index) of the product of (cell, free values) a
    on [j] and b on [n-j]: their block diagonal is already canonical."""
    cell, values = a[0] + tuple(w + j for w in b[0]), a[1] + b[1]
    return cell, values, _flag_index(cell, values, p)


def _split_cell(cell, values, j: int, p: int):
    """The factors (cell, free values, index) of a flag whose first j
    pivots lie in rows 1..j, that is, F_j = span{e_1..e_j}."""
    top = cell[:j]
    if sorted(top) != list(range(1, j + 1)):
        raise ValueError("F_j is not the span of the first j basis vectors")
    k = inversions(top)
    bottom = tuple(w - j for w in cell[j:])
    return ((top, values[:k], _flag_index(top, values[:k], p)),
            (bottom, values[k:], _flag_index(bottom, values[k:], p)))


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
    # The factors' points and their products as (cell, free values,
    # index); a split is checked by ranking both factors afresh.
    cells1 = [(*flag_cell(i, j, p), i) for i in v1]
    cells2 = [(*flag_cell(i, n - j, p), i) for i in v2]
    target, seen, ok = set(v), set(), True
    for a in cells1:
        for b in cells2:
            cell, values, index = _product_cell(a, b, j, p)
            back = _split_cell(cell, values, j, p)
            ok &= index in target and index not in seen and back == (a, b)
            seen.add(index)
    ok = ok and seen == target and len(v) == len(v1) * len(v2)
    return DecompositionReport(s, j, (h1, h2), p, len(v), len(v1), len(v2),
                               len(cells1) * len(cells2), ok)


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
