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
from dataclasses import dataclass

from .field import JordanSpec, Matrix, is_prime, jordan_matrix, jordan_spec
from .flags import FlagSet, _cell_offsets, check_guards, q_factorial
from .shapes import HessShape, diagram_text, enumerate_shapes


@dataclass(frozen=True)
class OperatorSpec:
    """An operator given as Jordan data (eigenvalues may be integers or
    symbols resolved per prime) or as a raw integer matrix reduced mod p."""

    name: str
    n: int
    blocks: tuple | None = None   # tuple of (eigenvalue int|symbol str, size)
    entries: tuple | None = None  # raw matrix rows

    def __post_init__(self):
        if (self.blocks is None) == (self.entries is None):
            raise ValueError("need exactly one of Jordan blocks / raw matrix")
        if self.blocks is not None and sum(s for _, s in self.blocks) != self.n:
            raise ValueError("block sizes must sum to n")
        if self.entries is not None and (
                len(self.entries) != self.n
                or any(len(r) != self.n for r in self.entries)):
            raise ValueError("raw matrix must be n x n")

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

    def matrix(self, p: int) -> Matrix:
        if self.blocks is not None:
            return jordan_matrix(self.jordan(p))
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


@dataclass(frozen=True)
class Variety:
    operator: OperatorSpec
    shape: HessShape
    p: int
    points: FlagSet


def _profile_groups(x: Matrix, n: int, p: int, bound):
    """Indices of the flags whose profile is <= bound, grouped by profile.

    The profile of gB is (m_1, ..., m_n), where m_j is the lowest nonzero
    row of column j of g^{-1} X g (0 for a zero column), i.e. the least m
    with X c_j in F_m. A flag lies in Hess(X, t) iff m <= t componentwise.

    The search places the columns of the canonical representative depth
    first. For each placed column j it carries the residual of X c_j
    reduced against the columns placed so far: column k is reduced out by
    its pivot row, which is exact because every later column vanishes on
    the pivot rows of earlier ones. The residual dies at the column m_j,
    so a residual still alive at depth >= bound_j cuts the subtree; one
    that must die at the column being placed determines that column.
    """
    xcols = [list(col) for col in zip(*x.rows)]
    offsets = {tuple(i - 1 for i in cell): start
               for cell, start in _cell_offsets(n, p).items()}
    groups = {}
    w = [0] * n       # 0-based pivot rows of the placed columns
    cols = [None] * n
    prof = [0] * n

    def reduce_new(v, d):
        """(m, None) for the image v of column d if it lies in F_{d+1},
        else (None, its residual against columns 0..d)."""
        if not any(v):
            return 0, None
        for k in range(d + 1):
            y = v[w[k]]
            if y:
                v = [(a - y * b) % p for a, b in zip(v, cols[k])]
                if not any(v):
                    return k + 1, None
        return None, v

    def place(d, unused, rank, alive):
        depth = d + 1
        if depth == n:
            # The last column is the unit vector at the last free row; every
            # residual still alive is a multiple of it and dies here.
            r = unused[0]
            w[d] = r
            m = reduce_new(xcols[r], d - 1)[0]
            if m is None:
                m = n
            if m > bound[d]:
                return
            for j, _ in alive:
                prof[j] = n
            prof[d] = m
            idx = offsets[tuple(w)] + rank
            key = tuple(prof)
            group = groups.get(key)
            if group is None:
                group = groups[key] = array("q")
            group.append(idx)
            return
        forced = next((res for j, res in alive if bound[j] <= depth), None)
        if forced is None:
            children = [(pos, r, vals) for pos, r in enumerate(unused)
                        for vals in itertools.product(range(p), repeat=pos)]
        else:
            # This residual must die at the column being placed, so that
            # column is the residual scaled to a unit pivot.
            r = max(i for i in range(n) if forced[i])
            inv = pow(forced[r], -1, p)
            pos = unused.index(r)
            children = [(pos, r, tuple(forced[i] * inv % p
                                       for i in unused[:pos]))]
        for pos, r, vals in children:
            free = unused[:pos]
            col = [0] * n
            col[r] = 1
            local = 0
            for i, v in zip(free, vals):
                col[i] = v
                local = local * p + v
            nxt = []
            for j, res in alive:
                y = res[r]
                if y:
                    res = [(a - y * b) % p for a, b in zip(res, col)]
                    if not any(res):
                        prof[j] = depth
                        continue
                if bound[j] <= depth:
                    break
                nxt.append((j, res))
            else:
                img = list(xcols[r])
                for i, v in zip(free, vals):
                    if v:
                        img = [(a + v * b) % p for a, b in zip(img, xcols[i])]
                w[d] = r
                cols[d] = col
                m, res = reduce_new(img, d)
                if m is not None:
                    prof[d] = m
                elif bound[d] <= depth:
                    continue
                else:
                    nxt.append((d, res))
                place(d + 1, unused[:pos] + unused[pos + 1:],
                      rank * p ** pos + local, nxt)

    place(0, list(range(n)), 0, [])
    # place refers to itself through its closure cell; emptying the cell
    # frees the search's environment now rather than at the next cyclic
    # garbage collection.
    del place
    return groups


# The hull table of each context (X, n, p), kept across calls together with
# the bound it was searched under. A table searched under bound B holds
# exactly the flags whose hull is <= B, so it serves every request whose
# bound is <= B; callers pick the hulls below each shape with _below and
# must not change the table. Memory, measured with tracemalloc: 8.6 B a
# stored index and 0.22 KB a hull group, so the index cap holds 0.56 MB.
# A table at n <= 6 has at most C(2n, n) = 924 groups, and at most 327 in
# the tables under the cap tried at (6, 2): a full memo takes about 3 MB,
# and 7 MB if every table had all 924 groups.
HULL_MEMO_SIZE = 32
HULL_MEMO_INDICES = 1 << 16
# (X, n, p) -> (bound, hulls, stored indices), least recently used first.
_hull_memo = {}


def _hull_groups(x: Matrix, n: int, p: int, shapes):
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
    hulls = {}
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
    return all(m <= b for m, b in zip(hull, t))


def variety_bitmaps(x: Matrix, shapes, n: int, p: int,
                    override: bool = False):
    """Membership bitmaps for several shapes sharing one operator, from one
    table of hull groups. Each bitmap is the union of the hull groups lying
    below its shape."""
    check_guards(n, p, override)
    if x.p != p or x.nrows != n:
        raise ValueError("operator size or modulus mismatch")
    if any(s.n != n for s in shapes):
        raise ValueError("shape rank != operator rank")
    if not shapes:
        return []
    hulls = _hull_groups(x, n, p, shapes)
    return [FlagSet.from_indices(
        itertools.chain.from_iterable(idx for h, idx in hulls.items()
                                      if _below(h, s.t)), n, p)
        for s in shapes]


def compute_variety(x: OperatorSpec, s: HessShape, p: int,
                    override: bool = False) -> Variety:
    if x.n != s.n:
        raise ValueError("operator rank != shape rank")
    points = variety_bitmaps(x.matrix(p), [s], s.n, p, override)[0]
    return Variety(x, s, p, points)


@dataclass(frozen=True)
class EqClass:
    name: str          # diagram text of the lex-least member shape
    shapes: tuple      # member HessShapes, lex order on thresholds
    bitmaps: tuple     # one FlagSet per prime, in the primes order

    @property
    def representative(self) -> HessShape:
        return self.shapes[0]


@dataclass(frozen=True)
class PosetPX:
    operator: OperatorSpec
    primes: tuple
    strict_only: bool
    classes: tuple  # EqClass, sorted by representative thresholds
    hasse: tuple    # (sub_name, super_name) covering edges


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
    shapes = enumerate_shapes(n, strict_only)
    tables = []
    for p in primes:
        xm = x.matrix(p)
        check_guards(n, p)
        tables.append(_hull_groups(xm, n, p, shapes))
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
