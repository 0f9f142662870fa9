"""Exact enumeration of GL_n(F_p)/B via canonical Bruhat-cell representatives.

Each coset gB has a unique representative whose column k has its lowest
nonzero entry (the pivot, value 1) in row w(k), with zeros to the right of
every pivot in its row. The free entries of a cell are the positions
(i, k) with i < w(k) and i not a pivot row of an earlier column; there are
l(w) of them, so the total flag count is the q-factorial [n]_p!.

Enumeration order: permutations in lexicographic order on the image
tuple, then lexicographic on the free-parameter vector (first free
position most significant). This order is the index space of FlagSet
bitmaps and is stable across runs. A flag's index is its cell's start
plus its free values read in base p. With [a]_p = (p^a - 1)/(p - 1), the
cells before w that first differ from it at position k hold
p^(a_1+...+a_{k-1}) [a_k]_p [n-k]_p! flags, a_k being the unused values
below w_k, and w starts at the sum of these blocks. The inverse reads the
sum back: with k positions left and u = p^(a_1+...+a_{k-1}) [k-1]_p!, the
next value is the a-th unused one for the largest a with [a]_p u at most
the index left. No table of the n! cells is kept.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache

from .field import Matrix, Subspace, Value, inv_mod, span_of
from .shapes import HessShape

GUARD_MAX_N = 6
GUARD_PRIMES = (2, 3, 5, 7)
# Largest flag count [n]_p! admitted without override: (6, 3) has 91.6M
# flags, (5, 7) has 510M.
GUARD_MAX_FLAGS = 10 ** 8
# Largest flag count admitted even under override. A bitmap holds one bit
# per flag, so the cap bounds one bitmap at 512 MiB; (6, 7) with 1.0e13
# flags would need 1.25 TB.
BITMAP_MAX_FLAGS = 1 << 32


def check_guards(n: int, p: int, override: bool = False) -> None:
    size = q_factorial(n, p)
    if size > BITMAP_MAX_FLAGS:
        raise ValueError(
            "size guard: n=%d, p=%d has %d flags, more than the bitmap cap "
            "of %d flags (2^32); override does not lift it"
            % (n, p, size, BITMAP_MAX_FLAGS))
    if override:
        return
    if n > GUARD_MAX_N or p not in GUARD_PRIMES:
        raise ValueError(
            "size guard: need n <= %d and p in %r (got n=%d, p=%d); "
            "pass override to force" % (GUARD_MAX_N, GUARD_PRIMES, n, p))
    if size > GUARD_MAX_FLAGS:
        raise ValueError(
            "size guard: n=%d, p=%d has %d flags, more than %d; "
            "pass override to force" % (n, p, size, GUARD_MAX_FLAGS))


@lru_cache(maxsize=256)
def q_factorial(n: int, q: int) -> int:
    total = 1
    for k in range(1, n + 1):
        total *= sum(q ** i for i in range(k))
    return total


def inversions(w) -> int:
    return sum(1 for a, b in itertools.combinations(w, 2) if a > b)


def free_positions(w):
    """Free entry positions (row, col), 1-based, in scan order: columns left
    to right, rows top to bottom."""
    return list(_free_positions(tuple(w)))


@lru_cache(maxsize=4096)  # every cell of n <= 6 (873 in all)
def _free_positions(w: tuple) -> tuple:
    seen = set()
    out = []
    for k, wk in enumerate(w, start=1):
        for i in range(1, wk):
            if i not in seen:
                out.append((i, k))
        seen.add(wk)
    return tuple(out)


class Flag(Value):
    __slots__ = ("n", "p",
                 "cell",    # pivot permutation w, 1-based images
                 "values",  # free entries, in free_positions(cell) order
                 "index",   # position in the global enumeration order
                 "_rep", "_spans")  # caches of rep and spans

    @property
    def rep(self) -> Matrix:
        """The canonical representative, built on first use."""
        try:
            return self._rep
        except AttributeError:
            rows = _rep_rows(self.cell, self.values)
            rep = Matrix(self.p, tuple(map(tuple, rows)))
            object.__setattr__(self, "_rep", rep)
            return rep

    @property
    def spans(self) -> tuple:
        """The chain F_0, ..., F_n: F_k is spanned by the first k columns
        of the representative. Built on first use."""
        try:
            return self._spans
        except AttributeError:
            cols = list(zip(*self.rep.rows))
            spans = tuple(span_of(cols[:k], self.n, self.p)
                          for k in range(self.n + 1))
            object.__setattr__(self, "_spans", spans)
            return spans


class FlagSet(Value):
    __slots__ = ("n", "p",
                 "size",  # total number of flags = [n]_p!
                 "bits")  # membership bitmap over the enumeration order

    @property
    def count(self) -> int:
        return self.bits.bit_count()

    def contains(self, index: int) -> bool:
        return bool(self.bits >> index & 1)

    def iter_indices(self):
        """Yield the member indices in ascending order, one at a time."""
        data = self.bits.to_bytes((self.size + 7) // 8, "little")
        for k, byte in enumerate(data):
            if byte:
                base = 8 * k
                for b in _BYTE_BITS[byte]:
                    yield base + b

    def indices(self):
        """Member indices in ascending order."""
        return list(self.iter_indices())

    @staticmethod
    def from_indices(indices, n: int, p: int) -> "FlagSet":
        size = q_factorial(n, p)
        return FlagSet(n, p, size, bits_from_indices(indices, size))


# Bit positions set in each byte value, ascending.
_BYTE_BITS = tuple(tuple(b for b in range(8) if v >> b & 1)
                   for v in range(256))


def bits_from_indices(indices, size: int) -> int:
    """Bitmap with the given indices set, built in one pass."""
    buf = bytearray((size + 7) // 8)
    for i in indices:
        if not 0 <= i < size:
            raise ValueError("flag index %d out of range" % i)
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _cell_block(a: int, k: int, p: int) -> int:
    """[a]_p [k]_p!, a block of the index (module docstring)."""
    return (p ** a - 1) // (p - 1) * q_factorial(k, p)


@lru_cache(maxsize=4096)  # every cell of n <= 6 at the four guard primes
def _cell_offset(w: tuple, p: int) -> int:
    """Start index of cell w: the sum of its blocks (module docstring)."""
    n = len(w)
    unused = list(range(1, n + 1))
    offset, power = 0, 1
    for k, wk in enumerate(w, start=1):
        a = bisect_left(unused, wk)
        del unused[a]
        offset += power * _cell_block(a, n - k, p)
        power *= p ** a
    return offset


def _cells(n: int, p: int):
    """(cell, start index, number of free values) of every cell, in order."""
    start = 0
    for w in itertools.permutations(range(1, n + 1)):
        length = inversions(w)
        yield w, start, length
        start += p ** length


def _digits(rank: int, length: int, p: int) -> list:
    """The free values of a cell with length of them, from their rank."""
    values = [0] * length
    for k in range(length - 1, -1, -1):
        rank, values[k] = divmod(rank, p)
    return values


def _rep_rows(w, values):
    """Rows of the canonical representative of cell w with the given free
    values, as lists."""
    n = len(w)
    rows = [[0] * n for _ in range(n)]
    for k, wk in enumerate(w):
        rows[wk - 1][k] = 1
    for (i, k), v in zip(_free_positions(tuple(w)), values):
        rows[i - 1][k - 1] = v
    return rows


def iter_flags(n: int, p: int, override: bool = False):
    """Yield all flags in enumeration order without storing them."""
    check_guards(n, p, override)
    for w, start, length in _cells(n, p):
        for idx, values in enumerate(
                itertools.product(range(p), repeat=length), start):
            yield Flag(n, p, w, values, idx)


def canonical_form(g: Matrix) -> Flag:
    """Unique canonical representative of the coset gB; preserves every
    prefix column span."""
    if g.nrows != g.ncols:
        raise ValueError("not square")
    return Flag(g.nrows, g.p, *canonical_columns(g.columns(), g.p))


def canonical_columns(cols, p: int):
    """(cell, free values, index) of the flag spanned by the columns of an
    invertible n x n matrix, given as n column vectors over F_p."""
    n = len(cols)
    cols = [list(c) for c in cols]
    pivots = []  # (0-based pivot row, column index)
    w = [0] * n
    for k in range(n):
        v = cols[k]
        for r, m in pivots:
            c = v[r]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, cols[m])]
        piv = max((i for i, x in enumerate(v) if x), default=None)
        if piv is None:
            raise ValueError("matrix is singular")
        inv = inv_mod(v[piv], p)
        cols[k] = [x * inv % p for x in v]
        pivots.append((piv, k))
        w[k] = piv + 1
    w = tuple(w)
    values = tuple(cols[k - 1][i - 1] for (i, k) in _free_positions(w))
    return w, values, _flag_index(w, values, p)


def packed_form(cols, ln):
    """canonical_columns of n packed columns (field.Lanes ln), and a basis
    for ln.reduce of the canonical columns but the last, which has no free
    entries and is not scaled to a unit pivot."""
    p, b, lane = ln.p, ln.b, ln.lane
    basis, canon, w = [], [], []
    last = len(cols) - 1
    for v in cols:
        v = ln.reduce(v, basis)
        if not v:
            raise ValueError("matrix is singular")
        r = (v.bit_length() - 1) // b
        w.append(r + 1)
        if len(basis) == last:
            break
        mults = ln.multiples(v)
        y = v >> b * r & lane
        if y != 1:
            inv = pow(y, -1, p)
            mults = [mults[c * inv % p] for c in range(p)]
        basis.append((b * r, mults))
        canon.append(mults[1])
    w = tuple(w)
    values = tuple(canon[j - 1] >> b * (i - 1) & lane
                   for i, j in _free_positions(w))
    return w, values, _flag_index(w, values, p), basis


def _flag_index(w: tuple, values, p: int) -> int:
    rank = 0
    for v in values:
        rank = rank * p + v
    return _cell_offset(w, p) + rank


def flag_cell(index: int, n: int, p: int):
    """(cell, free values) of the flag at a position of the enumeration
    order; inverse of the index that canonical_columns assigns."""
    if not 0 <= index < q_factorial(n, p):
        raise ValueError("flag index %d out of range" % index)
    unused, w, length = list(range(1, n + 1)), [], 0
    for k in range(n - 1, -1, -1):
        # Take off [a]_p u = u + p u + ... for the largest a that fits.
        a, u = 0, p ** length * q_factorial(k, p)
        while a < k and index >= u:
            index, u, a = index - u, u * p, a + 1
        length += a
        w.append(unused.pop(a))
    return tuple(w), tuple(_digits(index, length, p))


def flag_at(index: int, n: int, p: int) -> Flag:
    """The flag at a position of the enumeration order; inverse of the
    index that iter_flags and canonical_form assign."""
    return Flag(n, p, *flag_cell(index, n, p), index)


def permutation_flag(w, p: int) -> Flag:
    return canonical_form(Matrix.permutation(w, p))


def identity_flag(n: int, p: int) -> Flag:
    return canonical_form(Matrix.identity(n, p))


def chain(f: Flag, k: int) -> Subspace:
    """The subspace F_k spanned by the first k columns (F_0 = 0)."""
    if not 0 <= k <= f.n:
        raise ValueError("k out of range")
    return f.spans[k]


def chain_images(x: Matrix, f: Flag) -> tuple:
    """The images X c_1, ..., X c_n of the columns of the representative
    of f, read by 0-based position. X F_k is the span of the first k, so a
    chain containment is tested on them and X F_k itself is never built."""
    if x.p != f.p or x.nrows != f.n:
        raise ValueError("size or modulus mismatch")
    return tuple(x.apply(c) for c in zip(*f.rep.rows))


def chain_levels(images, f: Flag) -> tuple:
    """The least m with X c_j in F_m for each chain image, by bisection on
    the nested spans (F_n holds every vector): at most ceil(log2(n + 1))
    Subspace.contains tests an image."""
    spans = f.spans
    return tuple(bisect_left(range(f.n), True,
                             key=lambda m: spans[m].contains(v))
                 for v in images)


def chain_contains(levels, pairs) -> bool:
    """Whether X F_k lies in F_m for every (k, m) in pairs, read from the
    chain levels: X c_1, ..., X c_k must all lie in F_m, that is, their
    levels are at most m."""
    return all(max(levels[:k], default=0) <= m for k, m in pairs)


def member(x: Matrix, s: HessShape, f: Flag) -> bool:
    """Flag-chain membership test: X F_j contained in F_{t_j} for all j."""
    return chain_contains(chain_levels(chain_images(x, f), f),
                          enumerate(s.t, start=1))


def profile(x: Matrix, f: Flag) -> tuple:
    """The profile (m_1, ..., m_n) of f under X: m_j is the lowest nonzero
    row of column j of g^{-1} X g (0 for a zero column), i.e. the least m
    with X c_j in F_m. f lies in Hess(X, t) iff m <= t componentwise.

    Reducing X c_j against the columns of the canonical representative in
    order is exact: column k vanishes on the pivot rows of earlier columns,
    so the entry of the residual at the pivot row of column k is its
    coordinate on c_k."""
    if x.p != f.p or x.nrows != f.n:
        raise ValueError("size or modulus mismatch")
    p = f.p
    cols = list(zip(*f.rep.rows))
    pivots = [wk - 1 for wk in f.cell]
    out = []
    for c in cols:
        v = [sum(a * b for a, b in zip(row, c)) % p for row in x.rows]
        m = 0
        while any(v):
            y = v[pivots[m]]
            if y:
                v = [(a - y * b) % p for a, b in zip(v, cols[m])]
            m += 1
        out.append(m)
    return tuple(out)


def _label_parts(w: tuple):
    """The fixed parts of the labels of cell w: the '[e..]' head and the
    'r<i>c<k>=' prefix of each free position."""
    return ("[" + ",".join("e%d" % wk for wk in w) + "]",
            tuple("r%dc%d=" % pos for pos in _free_positions(w)))


def _label(head, prefixes, values) -> str:
    """A flag's label from its cell's label parts and its free values: the
    column list plus the nonzero free-parameter assignments."""
    parts = [pre + str(v) for pre, v in zip(prefixes, values) if v]
    if parts:
        return head + " {" + ",".join(parts) + "}"
    return head


def flag_text(f: Flag) -> str:
    """Column list like '[e4,e2,e5]' plus nonzero free-parameter
    assignments, e.g. '[e2,e1] {r1c1=1}'."""
    return _label(*_label_parts(tuple(f.cell)), f.values)


def point_labels(points: FlagSet):
    """Yield the label of each member of a FlagSet, in index order,
    without building its Flag: the cells are walked alongside. Members of
    one cell come in ascending rank, so each one's free values are the
    previous member's plus the rank step, carried in base p."""
    p, end = points.p, 0
    cells = _cells(points.n, p)
    for index in points.iter_indices():
        if index >= end:
            while index >= end:
                w, start, length = next(cells)
                end = start + p ** length
            parts = _label_parts(w)
            values = _digits(index - start, length, p)
        else:
            step, k = index - last, length - 1
            while step:
                step, values[k] = divmod(values[k] + step, p)
                k -= 1
        last = index
        yield _label(*parts, values)
