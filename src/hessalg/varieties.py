"""Hessenberg varieties over F_p as explicit point sets, and the poset P_X.

A Variety is a membership bitmap over the fixed flag enumeration order.
Every point set is read from one table of hull groups per context: the
flags grouped by the running maximum of their profile, packed into an int.
Hess(X, s) is the disjoint union of the groups whose hull lies below s, a
mask over the table (_downset), so two shapes give the same variety iff
they have the same mask, and containment of varieties is inclusion of
masks. Equality and containment over F_p are per-prime evidence; with
several primes a shape's key is its tuple of masks, one per prime, which
reduces accidental coincidences.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache
from operator import le, lshift

from .field import (JordanSpec, Matrix, Value, is_prime, jordan_matrix,
                    jordan_spec, lanes)
from .flags import FlagSet, _cell_block, check_guards, q_factorial
from .shapes import HessShape, diagram_text, enumerate_shapes


class OperatorSpec(Value):
    """An operator given as Jordan data (eigenvalues may be integers or
    symbols resolved per prime) or as a raw integer matrix reduced mod p."""

    __slots__ = ("name", "n",
                 "blocks",   # tuple of (eigenvalue int|symbol str, size)
                 "entries")  # raw matrix rows

    def __init__(self, name: str, n: int, blocks: tuple | None = None,
                 entries: tuple | None = None):
        if (blocks is None) == (entries is None):
            raise ValueError("need exactly one of Jordan blocks / raw matrix")
        if blocks is not None and sum(s for _, s in blocks) != n:
            raise ValueError("block sizes must sum to n")
        if entries is not None and (
                len(entries) != n or any(len(r) != n for r in entries)):
            raise ValueError("raw matrix must be n x n")
        Value.__init__(self, name, n, blocks, entries)

    def jordan(self, p: int) -> JordanSpec | None:
        # Checked first: the residues below are taken mod p.
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        if self.blocks is None:
            return None
        syms = sorted({ev for ev, _ in self.blocks if isinstance(ev, str)})
        taken = {int(ev) % p for ev, _ in self.blocks
                 if not isinstance(ev, str)}
        # Each symbol takes the largest residue left. zip stops after the
        # last symbol, so at most len(syms) + len(taken) residues are read.
        values = dict(zip(syms, (v for v in range(p - 1, -1, -1)
                                 if v not in taken)))
        if len(values) < len(syms):
            raise ValueError(
                "p=%d too small for %d distinct symbolic eigenvalues"
                % (p, len(syms)))
        resolved = [(values[ev] if isinstance(ev, str) else int(ev) % p, size)
                    for ev, size in self.blocks]
        return jordan_spec(resolved, p)

    @lru_cache(maxsize=256)
    def matrix(self, p: int) -> Matrix:
        """The operator over F_p, memoized per (operator, p)."""
        if self.blocks is not None:
            return jordan_matrix(self.jordan(p))
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        return Matrix.from_rows(self.entries, p)

    def is_scalar(self, p: int) -> bool:
        m = self.matrix(p)
        n = self.n
        diag = {m.entry(i, i) for i in range(1, n + 1)}
        if len(diag) != 1:
            return False
        return all(m.entry(i, j) == 0
                   for i in range(1, n + 1) for j in range(1, n + 1) if i != j)


def jordan_operator(blocks, n: int | None = None, name: str | None = None) -> OperatorSpec:
    blocks = tuple((ev, int(size)) for ev, size in blocks)
    total = sum(size for _, size in blocks)
    if n is None:
        n = total
    if name is None:
        name = "jordan:" + ",".join("%s^%d" % (ev, size) for ev, size in blocks)
    return OperatorSpec(name=name, n=n, blocks=blocks)


def matrix_operator(rows, name: str | None = None) -> OperatorSpec:
    rows = tuple(tuple(int(x) for x in r) for r in rows)
    if name is None:
        name = "matrix:" + ";".join(",".join(str(x) for x in r) for r in rows)
    return OperatorSpec(name=name, n=len(rows), entries=rows)


class Variety(Value):
    __slots__ = ("operator", "shape", "p", "points")


def _profile_groups(x: Matrix, n: int, p: int, bound):
    """Indices of the flags whose hull is <= bound, grouped by profile
    (up to the last coordinate, see below).

    The profile of gB is (m_1, ..., m_n), where m_j is the lowest nonzero
    row of column j of g^{-1} X g (0 for a zero column), i.e. the least m
    with X c_j in F_m. A flag lies in Hess(X, t) iff m <= t componentwise.
    The bound is non-decreasing, as every hull is.

    The search places the columns of the canonical representative depth
    first. For each placed column j it carries the residual of X c_j
    reduced against the columns placed so far: column k is reduced out by
    its pivot row, which is exact because every later column vanishes on
    the pivot rows of earlier ones. The residual dies at the column m_j,
    so a residual still alive at depth >= bound_j cuts the subtree; one
    that must die at the column being placed determines that column.

    A vector over F_p is one int with b-bit lanes (field.Lanes), whose
    arithmetic the loops below inline.

    The last column is the unit vector at the one row left, placed inside
    its parent's loop. A residual still alive there dies at m = n, so the
    hull ends in n and the last column's own reduction is skipped: such a
    flag is keyed with m_n = n. The key is then not its profile, but it
    has the profile's hull.
    """
    ln = lanes(n, p)
    b, top, lane, ones, k, add = ln.b, ln.top, ln.lane, ln.ones, ln.k, ln.add

    # The images X e_r, and their multiples c * X e_r.
    ximg = [ln.pack(col) for col in zip(*x.rows)]
    xmul = [ln.multiples(v) for v in ximg]

    # One table per tuple of free rows, over its value vectors u in
    # product order (first row most significant): the packed part u, its
    # local rank, the packed image part sum u_i X e_i, and the multiples
    # of u as a line and a scale. The line of a vector u0 whose first
    # nonzero value is 1 lists c * u0 for c in F_p, and u = c0 * u0 reads
    # its multiple c * u at line[c * c0 % p]. Lines are shared by the
    # p - 1 nonzero multiples of u0, so a table holds O(p^|rows|) ints at
    # every p. Each table is built from the one without its last row the
    # first time a node chooses among those free rows.
    tables = {(): ((0, 0, 0, (0,), 0),)}

    def extend(head, row):
        """The table of head's free rows followed by one more row."""
        sh = b * row
        mul = xmul[row]
        lines = {}
        entries = []
        for part, local, img, line, c0 in head:
            if not c0:
                # u = (0, ..., 0, c): u0 is the unit vector at row.
                unit = tuple(c << sh for c in range(p))
                entries.extend((c << sh, c, mul[c], unit if c else (0,), c)
                               for c in range(p))
                continue
            inv = pow(c0, -1, p)
            for c in range(p):
                ratio = c * inv % p  # the entry of u0 at row
                key = line[1] | ratio << sh
                new = lines.get(key)
                if new is None:
                    new = lines[key] = tuple(line[a] | a * ratio % p << sh
                                             for a in range(p))
                entries.append((part | c << sh, local * p + c,
                                add(img, mul[c]), new, c0))
        return tuple(entries)

    choice_memo = {}

    def choices(unused):
        """For each pivot row r of the next column, in order: r, its lane,
        the rows left, the table of the free rows above r, p^(free rows),
        and the flags in the cells with an earlier pivot here, per unit of
        scale: the block of the flag order before the pos-th unused row
        (flags._cell_block)."""
        opts = choice_memo.get(unused)
        if opts is None:
            left = len(unused) - 1
            opts = choice_memo[unused] = []
            entries = tables[()]
            for pos, r in enumerate(unused):
                if pos:
                    free = unused[:pos]
                    head, entries = entries, tables.get(free)
                    if entries is None:
                        entries = tables[free] = extend(head, free[-1])
                opts.append((r, b * r, unused[:pos] + unused[pos + 1:],
                             entries, p ** pos, _cell_block(pos, left, p)))
        return opts

    def reduce(v, cols):
        """(m, 0) for the least m with v in the span of the first m
        columns, or (None, v reduced against all of them)."""
        if not v:
            return 0, 0
        for m, (sh, line, c0) in enumerate(cols, 1):
            y = v >> sh & lane
            if y:
                c = p - y
                v += line[c * c0 % p] | c << sh
                v -= p * ((v + k) >> top & ones)
                if not v:
                    return m, 0
        return None, v

    groups = {}
    prof = [0] * n

    # A node holds the rows not yet pivots, the placed columns as (pivot
    # lane, line, scale), the partial cell start off and free-value rank
    # (at a leaf, the flag's index is off + rank), p^(free values so
    # far), and the residuals still alive as (column, residual).
    def place(unused, cols, off, rank, scale, alive):
        depth = len(cols) + 1
        opts = choices(unused)
        forced = next((res for j, res in alive if bound[j] <= depth), None)
        if forced is not None:
            # This residual must die at the column being placed, so that
            # column is the residual scaled to a unit pivot.
            r = (forced.bit_length() - 1) // b
            inv = pow(forced >> b * r & lane, -1, p)
            pos = unused.index(r)
            local = 0
            for i in unused[:pos]:
                local = local * p + (forced >> b * i & lane) * inv % p
            r, sh, rest, entries, pp, skip = opts[pos]
            opts = ((r, sh, rest, (entries[local],), pp, skip),)
        last = depth == n - 1
        for r, sh, rest, entries, pp, skip in opts:
            coff = off + skip * scale
            crank = rank * pp
            cscale = scale * pp
            xr = ximg[r]
            for part, local, img, line, c0 in entries:
                nxt = []
                for j, res in alive:
                    y = res >> sh & lane
                    if y:
                        c = p - y
                        res += line[c * c0 % p] | c << sh
                        res -= p * ((res + k) >> top & ones)
                        if not res:
                            prof[j] = depth
                            continue
                    if bound[j] <= depth:
                        break
                    nxt.append((j, res))
                else:
                    ccols = cols + [(sh, line, c0)]
                    m, res = reduce(add(xr, img), ccols)
                    d = depth - 1
                    if m is None:
                        if bound[d] <= depth:
                            continue
                        nxt.append((d, res))
                    elif m > bound[d]:
                        continue
                    else:
                        prof[d] = m
                    if not last:
                        place(rest, ccols, coff, crank + local, cscale, nxt)
                        continue
                    # The leaf: column n is the unit vector at the row left.
                    if nxt:
                        for j, _ in nxt:
                            prof[j] = n
                        prof[depth] = n
                    else:
                        m = reduce(ximg[rest[0]], ccols)[0]
                        if m is None:
                            m = n
                        if m > bound[depth]:
                            continue
                        prof[depth] = m
                    key = tuple(prof)
                    group = groups.get(key)
                    if group is None:
                        group = groups[key] = array("q")
                    group.append(coff + crank + local)

    if n == 1:
        # One flag; its profile is that of the unit vector e_1.
        m = 0 if not ximg[0] else 1
        if m <= bound[0]:
            groups[(m,)] = array("q", [0])
    else:
        place(tuple(range(n)), [], 0, 0, 1, [])
    # place refers to itself through its closure cell; emptying the cell
    # frees the search's environment now rather than at the next cyclic
    # garbage collection.
    del place
    return groups


class HullTable(dict):
    """packed hull (_pack) -> array of the indices of the flags with that
    hull, for the flags whose hull lies below `bound`; `size` counts the
    indices. The shape memo `below` maps shape thresholds to the table's
    groups below the shape, for at most SHAPE_MEMO_SIZE shapes."""

    __slots__ = ("bound", "size", "below")

    def __init__(self, bound):
        super().__init__()
        self.bound = bound
        self.size = 0
        self.below = {}


# The hull table of each context (X, n, p), kept across calls. A table
# searched under bound B holds exactly the flags whose hull is <= B, so it
# serves every request whose bound is <= B; callers must not change the
# table. A table's shape memo holds up to 64 shapes (every shape at n <= 3,
# every strict shape at n <= 5). The README gives the memory of a full
# memo, measured with tracemalloc.
HULL_MEMO_SIZE = 32
HULL_MEMO_INDICES = 1 << 16
SHAPE_MEMO_SIZE = 64
# A search of a small context costs little more under the full bound than
# under a partial one, which must still build the first levels of the
# tree (65-110 us at n = 3 for a bound that admits no flag, 0.2-0.7 ms for
# every flag at (3, 3) and (3, 5)). So such a context is searched in full
# once a request outgrows its table, in place of up to n - 1 more searches.
FULL_SEARCH_FLAGS = 1 << 10
# (X, n, p) -> HullTable, least recently used first.
_hull_memo = {}


def _hull_groups(x: Matrix, n: int, p: int, shapes) -> HullTable:
    """The hull table of the context (X, n, p) for the componentwise
    maximum of the shapes: the flags whose profile lies below it, grouped
    by the hull (m_1, max(m_1, m_2), ...) of their profile. A shape is
    non-decreasing, so a profile lies below it iff its hull does.

    The one read of the memo: the stored table is popped, and put back as
    the most recently used if its bound covers the request. Otherwise the
    context is searched again: in full if it has at most FULL_SEARCH_FLAGS
    flags (so at most twice), else with every coordinate of the bound that
    grew jumped to n (at most n + 1 times), or under the requested bound
    alone if it has more flags than HULL_MEMO_INDICES, as a cold call is.
    The new table is stored unless it holds more indices than that, and
    the least recently used tables go until both memo bounds hold."""
    key = (x, n, p)
    table = _hull_memo.pop(key, None)
    # The shapes in the table's shape memo need no bound.
    if table is None or any(s.t not in table.below for s in shapes):
        bound = list(map(max, zip(*(s.t for s in shapes))))
        if table is None or not all(map(le, bound, table.bound)):
            table = _search(x, n, p, bound, table)
            if table.size > HULL_MEMO_INDICES:
                return table
            held = sum(t.size for t in _hull_memo.values())
            while _hull_memo and (len(_hull_memo) >= HULL_MEMO_SIZE
                                  or held + table.size > HULL_MEMO_INDICES):
                held -= _hull_memo.pop(next(iter(_hull_memo))).size
    _hull_memo[key] = table
    return table


def _search(x: Matrix, n: int, p: int, bound, old) -> HullTable:
    """A hull table under the bound, widened when `old` was outgrown."""
    if old is not None:
        if q_factorial(n, p) <= FULL_SEARCH_FLAGS:
            bound = [n] * n
        elif q_factorial(n, p) <= HULL_MEMO_INDICES:
            bound = list(itertools.accumulate(
                (n if a > b else b for a, b in zip(bound, old.bound)), max))
    # Profiles are merged by hull first, so that each hull is packed once.
    hulls = {}
    for prof, idx in _profile_groups(x, n, p, bound).items():
        hull = tuple(itertools.accumulate(prof, max))
        if hull in hulls:
            hulls[hull].extend(idx)
        else:
            hulls[hull] = idx
    table = HullTable(tuple(bound))
    b = n.bit_length() + 1
    table.update((_pack(hull, b), idx) for hull, idx in hulls.items())
    table.size = sum(map(len, table.values()))
    return table


def _pack(v, b: int) -> int:  # b-bit lanes, the first entry lowest
    return sum(map(lshift, v, range(0, b * len(v), b)))


@lru_cache(maxsize=256)
def _bound_lanes(t):
    """(b, tops, bound): h in 0..n lies below t iff bound - _pack(h, b),
    with bound = tops + _pack(t, b), keeps every lane's top bit (tops)."""
    b = len(t).bit_length() + 1
    tops = _pack([1 << b - 1] * len(t), b)
    return b, tops, tops + _pack(t, b)


def _downset(table: HullTable, t):
    """The down-set of t in the table, as the mask of the hulls lying below
    t (bit k for the k-th hull) and as their groups. Each hull is tested by
    one subtraction of packed lanes (_bound_lanes)."""
    _, tops, bound = _bound_lanes(t)
    mask, groups = 0, []
    for k, (hull, group) in enumerate(table.items()):
        if bound - hull & tops == tops:
            mask |= 1 << k
            groups.append(group)
    return mask, tuple(groups)


def variety_indices(x: Matrix, shapes, n: int, p: int,
                    override: bool = False):
    """For each of several shapes sharing one operator, the member indices
    of Hess(X, s): an array of the hull groups lying below s, unsorted,
    read from the table's shape memo or else by _downset."""
    check_guards(n, p, override)
    if x.p != p or x.nrows != n:
        raise ValueError("operator size or modulus mismatch")
    if any(s.n != n for s in shapes):
        raise ValueError("shape rank != operator rank")
    if not shapes:
        return []
    table = _hull_groups(x, n, p, shapes)
    out = []
    for s in shapes:
        groups = table.below.get(s.t)
        if groups is None:
            groups = _downset(table, s.t)[1]
            if len(table.below) < SHAPE_MEMO_SIZE:
                table.below[s.t] = groups
        idx = array("q")
        for group in groups:
            idx.extend(group)
        out.append(idx)
    return out


def variety_bitmaps(x: Matrix, shapes, n: int, p: int,
                    override: bool = False):
    """Membership bitmaps of variety_indices."""
    return [FlagSet.from_indices(idx, n, p)
            for idx in variety_indices(x, shapes, n, p, override)]


def compute_variety(x: OperatorSpec, s: HessShape, p: int,
                    override: bool = False) -> Variety:
    if x.n != s.n:
        raise ValueError("operator rank != shape rank")
    points = variety_bitmaps(x.matrix(p), [s], s.n, p, override)[0]
    return Variety(x, s, p, points)


class EqClass(Value):
    __slots__ = ("name",     # diagram text of the lex-least member shape
                 "shapes",   # member HessShapes, lex order on thresholds
                 "counts")   # point count per prime, in the primes order

    @property
    def representative(self) -> HessShape:
        return self.shapes[0]


class PosetPX(Value):
    __slots__ = ("operator", "primes", "strict_only",
                 "classes",  # EqClass, sorted by representative thresholds
                 "hasse")    # (sub_name, super_name) covering edges


def build_poset(x: OperatorSpec, primes,
                strict_only: bool = False) -> PosetPX:
    """P_X over the primes: the shapes (all, or the strict ones) in classes
    keyed by their per-prime down-set masks (_downset), so two shapes share
    a class iff they give the same variety at every prime, and a < b iff
    a's mask is a proper subset of b's at every prime. A class's count at a
    prime sums its disjoint hull groups there; its points are those of
    compute_variety of its representative."""
    if isinstance(primes, int):
        primes = (primes,)
    primes = tuple(primes)
    if not primes:
        raise ValueError("need at least one prime")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    n = x.n
    # Check every prime before listing the shapes, which grow like 4^n.
    for p in primes:
        x.matrix(p)  # refuses a modulus that is not prime
        check_guards(n, p)
    shapes = enumerate_shapes(n, strict_only)
    tables = [_hull_groups(x.matrix(p), n, p, shapes) for p in primes]
    # Shapes come in lex order, so classes come out sorted by representative.
    members_of = {}
    for s in shapes:
        downs = [_downset(table, s.t) for table in tables]
        key = tuple(mask for mask, _ in downs)
        members_of.setdefault(key, (downs, []))[1].append(s)
    keys = list(members_of)
    classes = tuple(
        EqClass(diagram_text(members[0]), tuple(members),
                tuple(sum(map(len, groups)) for _, groups in downs))
        for downs, members in members_of.values())
    up = [{j for j, kb in enumerate(keys)
           if all(a & b == a != b for a, b in zip(ka, kb))} for ka in keys]
    hasse = tuple((a.name, classes[j].name) for a, ups in zip(classes, up)
                  for j in sorted(ups) if not any(j in up[k] for k in ups))
    return PosetPX(x, primes, strict_only, classes, hasse)


# ---------------------------------------------------------------------------
# Point counts across primes and integer polynomial fits.
# ---------------------------------------------------------------------------

def point_counts(x: OperatorSpec, s: HessShape, primes):
    return [compute_variety(x, s, p).points.count for p in primes]


def interpolate(primes, counts, max_degree: int | None = None):
    """The minimal-degree polynomial through (p, count) pairs, returned as
    integer coefficients (ascending), or None when the interpolant has
    non-integer coefficients or exceeds the degree bound."""
    if len(primes) != len(counts) or not primes:
        raise ValueError("need matching non-empty primes and counts")
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    # Imported here: fractions loads decimal, which nothing else needs.
    from fractions import Fraction
    # Lagrange form: the sum of c_i prod_{j != i} (q - p_j) / (p_i - p_j),
    # each product expanded into ascending coefficients.
    coeffs = [Fraction(0)] * len(primes)
    for pi, ci in zip(primes, counts):
        term = [Fraction(ci)]
        for pj in primes:
            if pj != pi:
                term = [(a - pj * b) / (pi - pj)
                        for a, b in zip([0] + term, term + [0])]
        coeffs = [c + t for c, t in zip(coeffs, term)]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if any(c.denominator != 1 for c in coeffs):
        return None
    out = [int(c) for c in coeffs]
    if max_degree is not None and len(out) - 1 > max_degree:
        return None
    return out


def poly_text(coeffs) -> str:
    """Render ascending integer coefficients as e.g. 'q^2+2q+1'."""
    if not coeffs or all(c == 0 for c in coeffs):
        return "0"
    terms = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if c == 0:
            continue
        if d == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            body = mag + ("q" if d == 1 else "q^%d" % d)
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(sign + body)
    return "".join(terms)
