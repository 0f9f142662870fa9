"""Hessenberg varieties over F_p as explicit point sets, and the poset P_X.

A Variety is a membership bitmap over the fixed flag enumeration order.
Every point set is read from one table of hull groups: the flags grouped
by the running maximum of their profile. Hess(X, s) is the disjoint union
of the groups whose hull lies below s, so two shapes give the same variety
iff they have the same down-set of hulls, and containment of varieties is
inclusion of down-sets. Equality and containment over F_p are per-prime
evidence; with several primes a shape's key is its tuple of down-sets,
one per prime, which reduces accidental coincidences.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache
from operator import le

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

    def _symbols(self):
        return sorted({ev for ev, _ in (self.blocks or ()) if isinstance(ev, str)})

    def jordan(self, p: int) -> JordanSpec | None:
        # Checked first: the residues below are taken mod p.
        if not is_prime(p):
            raise ValueError("modulus %r is not prime" % (p,))
        if self.blocks is None:
            return None
        syms = self._symbols()
        taken = {int(ev) % p for ev, _ in self.blocks
                 if not isinstance(ev, str)}
        free = [v for v in range(p - 1, -1, -1) if v not in taken]
        if len(syms) > len(free):
            raise ValueError(
                "p=%d too small for %d distinct symbolic eigenvalues"
                % (p, len(syms)))
        values = dict(zip(syms, free))
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
    """hull -> array of the indices of the flags with that hull, and the
    table's shape memo `below`: shape thresholds -> the table's groups
    below the shape, for at most SHAPE_MEMO_SIZE shapes. The memo holds
    references to the groups, not indices, and goes with its table."""

    __slots__ = ("below",)

    def __init__(self):
        super().__init__()
        self.below = {}


# The hull table of each context (X, n, p), kept across calls together with
# the bound it was searched under. A table searched under bound B holds
# exactly the flags whose hull is <= B, so it serves every request whose
# bound is <= B; callers pick the hulls below each shape with _below and
# must not change the table. Memory, measured with tracemalloc: 8.6 B a
# stored index and 0.22 KB a hull group, so the index cap holds 0.56 MB.
# A table at n <= 6 has at most C(2n, n) = 924 groups, and at most 327 in
# the tables under the cap tried at (6, 2): a full memo takes about 3 MB,
# and 7 MB if every table had all 924 groups. A table's shape memo holds
# up to 64 shapes (every shape at n <= 3, every strict shape at n <= 5),
# a tuple of references to groups each: 86 KB measured for the 64 shapes
# with the most groups below them on a table of 200 groups at (6, 2), so
# about 0.14 MB on a table of 327 groups, and 4.5 MB if all 32 tables had
# 327 groups. The 24 tables of a benchmark certify round hold 297 shapes
# in under 35 KB.
HULL_MEMO_SIZE = 32
HULL_MEMO_INDICES = 1 << 16
SHAPE_MEMO_SIZE = 64
# (X, n, p) -> (bound, hulls, stored indices), least recently used first.
_hull_memo = {}


def _hull_groups(x: Matrix, n: int, p: int, shapes) -> HullTable:
    """Indices of the flags whose profile lies below the componentwise
    maximum of the shapes, grouped by the hull (m_1, max(m_1, m_2), ...)
    of their profile. A shape is non-decreasing, so a profile lies below
    it iff its hull does.

    The table may hold more flags than asked for: it comes from the memo
    when a search of the context under a larger bound is stored there. A
    request the stored table does not cover searches again, and every
    coordinate of the bound that grew jumps to n (then the running max
    keeps it non-decreasing), so a context is searched at most n + 1 times.
    A context with more flags than the memo can hold is searched under the
    requested bound alone, as a cold call is."""
    bound = [max(col) for col in zip(*(s.t for s in shapes))]
    key = (x, n, p)
    entry = _hull_memo.get(key)
    if entry is not None:
        if all(a <= b for a, b in zip(bound, entry[0])):
            _hull_memo[key] = _hull_memo.pop(key)
            return entry[1]
        if q_factorial(n, p) <= HULL_MEMO_INDICES:
            bound = list(itertools.accumulate(
                (n if a > b else b for a, b in zip(bound, entry[0])), max))
    hulls = HullTable()
    for prof, idx in _profile_groups(x, n, p, bound).items():
        hull = tuple(itertools.accumulate(prof, max))
        if hull in hulls:
            hulls[hull].extend(idx)
        else:
            hulls[hull] = idx
    _remember(key, tuple(bound), hulls)
    return hulls


def _remember(key, bound, hulls):
    """Store a hull table in the memo unless it holds more indices than
    HULL_MEMO_INDICES, evicting the least recently used tables to keep
    within both bounds."""
    _hull_memo.pop(key, None)
    size = sum(len(idx) for idx in hulls.values())
    if size > HULL_MEMO_INDICES:
        return
    held = sum(entry[2] for entry in _hull_memo.values())
    while _hull_memo and (len(_hull_memo) >= HULL_MEMO_SIZE
                          or held + size > HULL_MEMO_INDICES):
        held -= _hull_memo.pop(next(iter(_hull_memo)))[2]
    _hull_memo[key] = (bound, hulls, size)


def _below(hull, t) -> bool:
    return all(map(le, hull, t))


def variety_indices(x: Matrix, shapes, n: int, p: int,
                    override: bool = False):
    """For each of several shapes sharing one operator, the member indices
    of Hess(X, s): an array of the hull groups lying below s, unsorted. The
    one reader of the hull table. A shape's groups come from the table's
    shape memo, or from a _below scan over every hull, stored there."""
    check_guards(n, p, override)
    if x.p != p or x.nrows != n:
        raise ValueError("operator size or modulus mismatch")
    if any(s.n != n for s in shapes):
        raise ValueError("shape rank != operator rank")
    if not shapes:
        return []
    hulls = _hull_groups(x, n, p, shapes)
    below = hulls.below
    out = []
    for s in shapes:
        groups = below.get(s.t)
        if groups is None:
            groups = tuple(g for h, g in hulls.items() if _below(h, s.t))
            if len(below) < SHAPE_MEMO_SIZE:
                below[s.t] = groups
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
                 "bitmaps")  # one FlagSet per prime, in the primes order

    @property
    def representative(self) -> HessShape:
        return self.shapes[0]


class PosetPX(Value):
    __slots__ = ("operator", "primes", "strict_only",
                 "classes",  # EqClass, sorted by representative thresholds
                 "hasse")    # (sub_name, super_name) covering edges


def build_poset(x: OperatorSpec, primes,
                strict_only: bool = False) -> PosetPX:
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
    # A shape's key is its down-set of hulls at each prime. The shapes come
    # in lex order, so the classes come out sorted by representative.
    members_of = {}
    for s in shapes:
        key = tuple(frozenset(h for h in hulls if _below(h, s.t))
                    for hulls in tables)
        members_of.setdefault(key, []).append(s)
    keys = list(members_of)
    classes = tuple(
        EqClass(diagram_text(members[0]), tuple(members),
                tuple(FlagSet.from_indices(
                    itertools.chain.from_iterable(hulls[h] for h in down),
                    n, p) for p, hulls, down in zip(primes, tables, key)))
        for key, members in members_of.items())
    # a < b iff a's down-set is a proper subset of b's at every prime.
    up = [{j for j, kb in enumerate(keys)
           if all(da < db for da, db in zip(ka, kb))} for ka in keys]
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
