"""Reference computations that the benchmark checks hessalg's outputs against.

Nothing here imports hessalg. Point counts come from closed forms, shape
operations from their definitions on the staircase mask, and membership
from the flag-chain condition X F_j <= F_{t_j}, all in plain integer
arithmetic mod p.

Conventions shared with the program's documented interfaces:
- a shape is its threshold vector t (entry (i, j) allowed iff i <= t_j);
- a flag label is '[e_w1,...,e_wn]' plus the nonzero free entries
  '{r<i>c<k>=<v>,...}' of the canonical representative, whose column k has
  its lowest nonzero entry 1 in row w(k) and zeros in the pivot rows of
  earlier columns;
- a Jordan operator lists its blocks by descending eigenvalue, then by
  descending size, and symbolic eigenvalues in sorted order resolve to
  p-1, p-2, ... .
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction


# ---------------------------------------------------------------------------
# Closed-form point counts.
# ---------------------------------------------------------------------------

def q_int(k: int, q: int) -> int:
    """[k]_q = 1 + q + ... + q^(k-1)."""
    return sum(q ** i for i in range(k))


def q_factorial(n: int, q: int) -> int:
    """[n]_q!, the number of full flags in F_q^n."""
    out = 1
    for k in range(1, n + 1):
        out *= q_int(k, q)
    return out


def nilpotent_count(t, p: int) -> int:
    """Points of Hess(N, t)(F_p) for the regular nilpotent N and a strict t:
    prod_j [t_j - j + 1]_p (Abe-Harada-Horiguchi-Masuda, via Tymoczko's
    paving)."""
    out = 1
    for j, tj in enumerate(t, start=1):
        out *= q_int(tj - j + 1, p)
    return out


def semisimple_count(t, p: int) -> int:
    """Points of Hess(S, t)(F_p) for a regular semisimple S split over F_p
    and a strict t: sum over permutations w of p^inv_t(w), where inv_t
    counts inversions i < j with j <= t_i (De Mari-Procesi-Shayman)."""
    n = len(t)
    total = 0
    for w in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if w[i] > w[j] and j + 1 <= t[i])
        total += p ** inv
    return total


# ---------------------------------------------------------------------------
# Shapes.
# ---------------------------------------------------------------------------

def is_strict(t) -> bool:
    return all(tj >= j for j, tj in enumerate(t, start=1))


def all_shapes(n: int, strict_only: bool = False):
    """Every non-decreasing threshold vector in [0, n]^n (C(2n, n) of them),
    or only the strict ones (a Catalan number of them)."""
    out = []
    for t in itertools.combinations_with_replacement(range(n + 1), n):
        if not strict_only or is_strict(t):
            out.append(tuple(t))
    return out


def transpose(t):
    """Threshold vector of the mask flipped across the antidiagonal:
    (i, j) is allowed in the result iff (n+1-j, n+1-i) is allowed in t."""
    n = len(t)
    return tuple(sum(1 for i in range(1, n + 1) if n + 1 - j <= t[n - i])
                 for j in range(1, n + 1))


def one_cell_covers(shapes):
    """Pairs (a, b) where b adds exactly one allowed entry to a."""
    return {(a, b) for a in shapes for b in shapes
            if sum(b) == sum(a) + 1 and all(x <= y for x, y in zip(a, b))}


def diagram_parts(t):
    """Row lengths of the forbidden-entry Young diagram of t."""
    n = len(t)
    cols = [n - tj for tj in t]
    return [sum(1 for c in cols if c >= i) for i in range(1, max(cols) + 1)]


def diagram_text(t) -> str:
    return "yd:" + ",".join(str(x) for x in diagram_parts(t))


def shape_text(t) -> str:
    return "h:" + ",".join(str(x) for x in t)


def parse_shape_text(text: str):
    if not text.startswith("h:"):
        raise ValueError("not an h: shape: %r" % text)
    return tuple(int(x) for x in text[2:].split(","))


# ---------------------------------------------------------------------------
# Operators.
# ---------------------------------------------------------------------------

def jordan_matrix(blocks, p: int | None = None):
    """Rows of the Jordan matrix over F_p for blocks [(eigenvalue, size)],
    eigenvalues given as integers or one-letter symbols. With p None the
    rows are integers and the symbols are -1, -2, ..., which reduce to the
    symbols' values mod every p."""
    syms = sorted({ev for ev, _ in blocks if isinstance(ev, str)})
    value = {s: (-1 if p is None else p - 1) - i for i, s in enumerate(syms)}
    resolved = sorted(((value[ev] if isinstance(ev, str)
                        else ev if p is None else ev % p, size)
                       for ev, size in blocks), key=lambda b: (-b[0], -b[1]))
    n = sum(size for _, size in resolved)
    rows = [[0] * n for _ in range(n)]
    pos = 0
    for ev, size in resolved:
        for k in range(size):
            rows[pos + k][pos + k] = ev
            if k + 1 < size:
                rows[pos + k][pos + k + 1] = 1
        pos += size
    return rows


def int_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def unimodular(rng, n: int):
    """A random g in GL_n(Z) with det +-1 and its exact inverse, built from
    elementary row operations and a row permutation, so that g X g^-1 is an
    integer matrix similar to X over every F_p."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    ginv = [row[:] for row in g]
    for _ in range(3 * n):
        a, b = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        # g <- E g with E = I + c e_b e_a^T; ginv <- ginv E^-1.
        g[b] = [x + c * y for x, y in zip(g[b], g[a])]
        for row in ginv:
            row[a] -= c * row[b]
    perm = list(range(n))
    rng.shuffle(perm)
    g = [g[perm[i]] for i in range(n)]
    ginv = [[row[perm[j]] for j in range(n)] for row in ginv]
    if int_matmul(g, ginv) != [[int(i == j) for j in range(n)]
                               for i in range(n)]:
        raise AssertionError("unimodular inverse is wrong")
    return g, ginv


def conjugate(x, rng):
    """A random integer conjugate g x g^-1."""
    g, ginv = unimodular(rng, len(x))
    return int_matmul(int_matmul(g, x), ginv)


def matrix_text(rows) -> str:
    return "matrix:" + ";".join(",".join(str(v) for v in r) for r in rows)


def is_scalar(rows, p: int) -> bool:
    n = len(rows)
    return all(rows[i][j] % p == (rows[0][0] % p if i == j else 0)
               for i in range(n) for j in range(n))


# ---------------------------------------------------------------------------
# Flags: labels, random flags and membership.
# ---------------------------------------------------------------------------

_LABEL = re.compile(r"^\[([^\]]*)\](?: \{([^}]*)\})?$")
_ENTRY = re.compile(r"^r(\d+)c(\d+)=(\d+)$")


def free_positions(w):
    """Free (row, column) positions, 1-based, of the cell of pivot rows w."""
    seen = set()
    out = []
    for k, wk in enumerate(w, start=1):
        out.extend((i, k) for i in range(1, wk) if i not in seen)
        seen.add(wk)
    return out


def parse_label(text: str, n: int, p: int):
    """(w, {(i, k): v}) from a flag label, rejecting non-canonical ones."""
    m = _LABEL.match(text)
    if not m:
        raise ValueError("bad flag label %r" % text)
    w = tuple(int(tok[1:]) for tok in m.group(1).split(","))
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError("label %r: pivots are not a permutation" % text)
    free = set(free_positions(w))
    values = {}
    for tok in (m.group(2).split(",") if m.group(2) else ()):
        e = _ENTRY.match(tok)
        if not e:
            raise ValueError("label %r: bad entry %r" % (text, tok))
        i, k, v = (int(x) for x in e.groups())
        if (i, k) not in free or (i, k) in values or not 0 < v < p:
            raise ValueError("label %r: entry %r not canonical" % (text, tok))
        values[(i, k)] = v
    return w, values


def label(w, values) -> str:
    base = "[" + ",".join("e%d" % x for x in w) + "]"
    parts = ["r%dc%d=%d" % (i, k, values[(i, k)])
             for (i, k) in free_positions(w) if values.get((i, k))]
    return base + (" {" + ",".join(parts) + "}" if parts else "")


def random_flag(rng, n: int, p: int):
    w = list(range(1, n + 1))
    rng.shuffle(w)
    w = tuple(w)
    return w, {pos: rng.randrange(p) for pos in free_positions(w)}


def flag_columns(w, values, n: int):
    cols = [[0] * n for _ in range(n)]
    for k, wk in enumerate(w, start=1):
        cols[k - 1][wk - 1] = 1
    for (i, k), v in values.items():
        cols[k - 1][i - 1] = v
    return cols


def _reduce(vec, basis, p):
    """Residual of vec against an echelon basis [(pivot, vector)] whose
    vectors vanish at the pivots of the ones before them."""
    v = list(vec)
    for piv, b in basis:
        c = v[piv]
        if c:
            v = [(x - c * y) % p for x, y in zip(v, b)]
    return v


def member(x, cols, t, p: int) -> bool:
    """Does the flag with columns cols satisfy X F_j <= F_{t_j} for every j,
    where F_m is the span of the first m columns?"""
    n = len(cols)
    need = max((tj for tj in t if tj < n), default=0)  # F_n is everything
    prefixes = [[]]  # prefixes[m] is an echelon basis of F_m
    for c in cols[:need]:
        basis = list(prefixes[-1])
        r = _reduce(c, basis, p)
        piv = next((i for i, v in enumerate(r) if v), None)
        if piv is None:
            raise ValueError("columns are linearly dependent: not a flag")
        inv = pow(r[piv], -1, p)
        basis.append((piv, [v * inv % p for v in r]))
        prefixes.append(basis)
    images = [[sum(a * b for a, b in zip(row, c)) % p for row in x]
              for c in cols]
    for j in range(1, n + 1):
        tj = t[j - 1]
        if tj == n:
            continue
        for k in range(j):
            if any(_reduce(images[k], prefixes[tj], p)):
                return False
    return True


# ---------------------------------------------------------------------------
# Polynomial fits.
# ---------------------------------------------------------------------------

def interpolate(xs, ys):
    """Ascending coefficients of the minimal-degree interpolant through the
    points, as Fractions, with trailing zeros removed."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = 1
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for d in range(len(basis) - 1):
                basis[d] -= xj * basis[d + 1]
            denom *= xi - xj
        for d, b in enumerate(basis):
            coeffs[d] += Fraction(yi) * b / denom
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


_TERM = re.compile(r"([+-]?)(\d*)(q(?:\^(\d+))?)?")


def parse_poly(text: str):
    """Ascending integer coefficients of a fit such as 'q^2+2q+1'."""
    coeffs = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError("bad polynomial %r" % text)
        sign, mag, var, deg = m.groups()
        if not mag and not var:
            raise ValueError("bad polynomial %r" % text)
        c = int(mag) if mag else 1
        d = (int(deg) if deg else 1) if var else 0
        coeffs[d] = coeffs.get(d, 0) + (-c if sign == "-" else c)
        pos = m.end()
    top = max(coeffs, default=0)
    return [coeffs.get(d, 0) for d in range(top + 1)]
