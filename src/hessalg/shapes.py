"""Hessenberg space shapes.

A shape is stored as a non-decreasing vector of column thresholds
t = (t_1, ..., t_n) with 0 <= t_j <= n: matrix entry (i, j) is allowed iff
i <= t_j. The forbidden entries form a bottom-left-justified (French)
Young diagram inside the n x n box. A shape is strict when t_j >= j for
all j, i.e. the mask contains the upper triangle; strict shapes are
exactly the classical Hessenberg functions.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache
from operator import ge, le

from .field import Value


class HessShape(Value):
    __slots__ = ("n", "t")

    def __init__(self, n: int, t: tuple):
        if n < 1:
            raise ValueError("rank must be positive")
        if len(t) != n:
            raise ValueError("threshold vector length != n")
        if not (0 <= t[0] and t[-1] <= n and all(map(le, t, t[1:]))):
            for j, tj in enumerate(t):  # name the first fault
                if not 0 <= tj <= n:
                    raise ValueError("threshold %d out of range" % tj)
                if j and tj < t[j - 1]:
                    raise ValueError("thresholds must be non-decreasing")
        Value.__init__(self, n, t)

    def allowed(self, i: int, j: int) -> bool:
        """1-based: is matrix entry (i, j) inside the space?"""
        return i <= self.t[j - 1]

    def mask(self) -> tuple:
        """0/1 grid, 1 = allowed entry."""
        return tuple(tuple(1 if self.allowed(i, j) else 0
                           for j in range(1, self.n + 1))
                     for i in range(1, self.n + 1))

    def cells(self) -> int:
        """Number of allowed entries."""
        return sum(self.t)


class YoungDiagram(Value):
    __slots__ = ("parts",)  # non-increasing positive row lengths

    def __init__(self, parts: tuple):
        for k, part in enumerate(parts):
            if part < 1:
                raise ValueError("parts must be positive")
            if k and part > parts[k - 1]:
                raise ValueError("parts must be non-increasing")
        Value.__init__(self, parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def conjugate(self) -> "YoungDiagram":
        if not self.parts:
            return self
        return YoungDiagram(tuple(
            sum(1 for part in self.parts if part >= i)
            for i in range(1, self.parts[0] + 1)))


def shape_from_function(h) -> HessShape:
    """Build a shape from a threshold/Hessenberg-function vector. Raises on
    decreasing or out-of-range input; strictness is h(i) >= max(i, h(i-1))."""
    t = tuple(map(int, h))
    return HessShape(len(t), t)


def is_strict(s: HessShape) -> bool:
    return all(map(ge, s.t, range(1, s.n + 1)))


def shape_to_diagram(s: HessShape) -> YoungDiagram:
    """The forbidden-entry Young diagram; its conjugate has parts n - t_j."""
    conj = tuple(s.n - tj for tj in s.t)
    return YoungDiagram(tuple(x for x in conj if x)).conjugate()


def shape_from_diagram(diagram, n: int) -> HessShape:
    if isinstance(diagram, YoungDiagram):
        parts = diagram.parts
    else:
        parts = tuple(int(x) for x in diagram if int(x) != 0)
    lam = YoungDiagram(parts)
    if len(lam.parts) > n or (lam.parts and lam.parts[0] > n):
        raise ValueError("diagram does not fit in the %dx%d box" % (n, n))
    conj = lam.conjugate().parts
    return HessShape(n, tuple(n - (conj[j] if j < len(conj) else 0)
                              for j in range(n)))


def enumerate_shapes(n: int, strict_only: bool = False):
    """All shapes of rank n in lexicographic order on the threshold vector."""
    if n < 1:
        raise ValueError("rank must be positive")
    out = []
    for t in itertools.combinations_with_replacement(range(n + 1), n):
        s = HessShape(n, t)
        if strict_only and not is_strict(s):
            continue
        out.append(s)
    return out


def shape_le(s1: HessShape, s2: HessShape) -> bool:
    if s1.n != s2.n:
        raise ValueError("rank mismatch")
    return all(a <= b for a, b in zip(s1.t, s2.t))


@lru_cache(maxsize=256)
def transpose_shape(s: HessShape) -> HessShape:
    """The shape whose mask is the antidiagonal flip of s's mask; its
    diagram is the conjugate of s's diagram. An involution. Threshold j
    counts the columns with t_c >= n + 1 - j."""
    n = s.n
    return HessShape(n, tuple(n - bisect_left(s.t, n + 1 - j)
                              for j in range(1, n + 1)))


def negative_root_set(s: HessShape):
    """Pairs (i, j), i < j, with t_i >= j; (i, j) stands for the negative
    root -a_i - ... - a_{j-1}. Strict shapes only."""
    if not is_strict(s):
        raise ValueError("negative roots are defined for strict shapes only")
    return {(i, j) for i in range(1, s.n + 1)
            for j in range(i + 1, s.n + 1) if s.t[i - 1] >= j}


def shape_hasse(n: int, strict_only: bool = False):
    """Covering edges (smaller, larger) of the containment order. Both the
    full box and the strict staircase interval are order-convex in Young's
    lattice, so covers are exactly the one-cell extensions."""
    shapes = enumerate_shapes(n, strict_only)
    return [(a, b) for a in shapes for b in shapes
            if b.cells() == a.cells() + 1 and shape_le(a, b)]


def split_shape(s: HessShape, j: int):
    """Split a strict shape with t_j = j (j < n) into the two strict shapes
    of its diagonal blocks: h1 on [j] and h2(i) = t(i+j) - j on [n-j]."""
    if not is_strict(s):
        raise ValueError("split requires a strict shape")
    if not 1 <= j < s.n:
        raise ValueError("split index out of range")
    if s.t[j - 1] != j:
        raise ValueError("t_%d = %d != %d: no split here" % (j, s.t[j - 1], j))
    h1 = HessShape(j, s.t[:j])
    h2 = HessShape(s.n - j, tuple(s.t[j + i] - j for i in range(s.n - j)))
    return h1, h2


def split_points(s: HessShape):
    """All valid split indices j < n with t_j = j."""
    return [j for j in range(1, s.n) if s.t[j - 1] == j]


def full_shape(n: int) -> HessShape:
    return HessShape(n, (n,) * n)


def borel_shape(n: int) -> HessShape:
    return HessShape(n, tuple(range(1, n + 1)))


def peterson_shape(n: int) -> HessShape:
    """h(i) = i + 1 for i < n, h(n) = n."""
    return HessShape(n, tuple(min(i + 1, n) for i in range(1, n + 1)))


# Text forms used by the CLI: "h:2,3,3" and "yd:2,1" (empty diagram "yd:").

def shape_text(s: HessShape) -> str:
    return "h:" + ",".join(str(x) for x in s.t)


def diagram_text(s: HessShape) -> str:
    return "yd:" + ",".join(str(x) for x in shape_to_diagram(s).parts)


def parse_ints(body: str, text: str, name: str, items: str = "integers"):
    """The integers in body, a comma-separated part of text; a field that is
    not one raises ValueError naming it, name and text."""
    out = []
    for field in body.split(","):
        try:
            out.append(int(field))
        except ValueError:
            what = ("a non-integer field %r" % field if field
                    else "an empty field")
            raise ValueError("%s has %s in %r; give %s separated by commas"
                             % (name, what, text, items)) from None
    return out


def parse_shape(text: str, n: int | None = None) -> HessShape:
    if text.startswith("h:"):
        body = text[2:]
        if not body:
            raise ValueError("empty Hessenberg function")
        s = shape_from_function(parse_ints(body, text, "the shape"))
        if n is not None and s.n != n:
            raise ValueError("shape rank %d != n = %d" % (s.n, n))
        return s
    if text.startswith("yd:"):
        if n is None:
            raise ValueError("diagram form needs the rank n")
        body = text[3:]
        parts = parse_ints(body, text, "the shape") if body else []
        return shape_from_diagram(parts, n)
    raise ValueError("shape must look like 'h:2,3,3' or 'yd:2,1': %r" % text)


def mask_text(s: HessShape) -> str:
    """ASCII mask, rows joined by '/': '*' allowed, '0' forbidden."""
    return "/".join("".join("*" if cell else "0" for cell in row)
                    for row in s.mask())
