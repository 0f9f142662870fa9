"""Exact linear algebra over prime fields.

Scalars are plain Python ints in ``range(p)``; the modulus travels with
every Matrix and Subspace value. Matrices are immutable (tuples of row
tuples) and all operations return new values.

Public matrix indices are 1-based (``entry(i, j)`` with i the row),
matching the usual matrix-display convention. Internal storage is
0-based.
"""

from __future__ import annotations

import random
from functools import lru_cache
from operator import attrgetter, mul


class Value:
    """Base of the immutable value types. A subclass declares its fields in
    __slots__, and the one constructor here takes them by position or by
    name; a slot whose name starts with an underscore is a cache, not a
    field. A subclass that checks its arguments or has defaults defines
    __init__ and ends it with Value.__init__. Instances compare and hash by
    their field values, only with instances of the same class, and refuse
    assignment and deletion. The hash is cached in the slot _hash."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        # The field values: a tuple, or the value itself for one field.
        cls._key = attrgetter(*cls._fields)
        # The slot descriptors' setters, which bypass __setattr__.
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *args, **kw):
        fields, k = self._fields, len(args)
        if kw or k != len(fields):
            # Put the values in field order, or name what is wrong.
            for problem, names in (
                    ("extra positional values", args[len(fields):]),
                    ("fields given twice", [f for f in fields[:k] if f in kw]),
                    ("unknown fields", [f for f in kw if f not in fields]),
                    ("missing fields", [f for f in fields[k:] if f not in kw])):
                if names:
                    raise TypeError("%s(%s): %s %s" % (
                        type(self).__name__, ", ".join(fields), problem,
                        ", ".join(map(repr, names))))
            args += tuple(kw[f] for f in fields[k:])
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        _set_hash(self, None)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        if self._hash is None:
            _set_hash(self, hash(self._key(self)))
        return self._hash

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __reduce__(self):
        # Pickling and copying rebuild through __init__, since the state
        # cannot be assigned.
        return self.__class__, tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


_set_hash = Value._hash.__set__


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def inv_mod(a: int, p: int) -> int:
    """Multiplicative inverse of a nonzero residue mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse mod %d" % p)
    return pow(a, -1, p)


class Matrix(Value):
    __slots__ = ("p", "rows")

    @staticmethod
    def from_rows(rows, p: int) -> "Matrix":
        """The rows reduced mod p. p is not checked: jordan_spec, span_of
        and OperatorSpec.matrix check user input for primality."""
        data = tuple(tuple(int(x) % p for x in row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        widths = {len(row) for row in data}
        if len(widths) != 1 or 0 in widths:
            raise ValueError("ragged or empty rows")
        return Matrix(p, data)

    @staticmethod
    def from_columns(cols, p: int) -> "Matrix":
        cols = [tuple(c) for c in cols]
        return Matrix.from_rows(list(zip(*cols)), p)

    @staticmethod
    def identity(n: int, p: int) -> "Matrix":
        return Matrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)], p)

    @staticmethod
    def zero(nrows: int, ncols: int, p: int) -> "Matrix":
        return Matrix.from_rows([[0] * ncols for _ in range(nrows)], p)

    @staticmethod
    def diagonal(values, p: int) -> "Matrix":
        values = list(values)
        n = len(values)
        return Matrix.from_rows(
            [[values[i] if i == j else 0 for j in range(n)] for i in range(n)], p)

    @staticmethod
    def permutation(w, p: int) -> "Matrix":
        """Permutation matrix sending e_k to e_{w(k)}; w is 1-based images."""
        w = tuple(w)
        n = len(w)
        if sorted(w) != list(range(1, n + 1)):
            raise ValueError("not a permutation of [n]: %r" % (w,))
        rows = [[0] * n for _ in range(n)]
        for k in range(n):
            rows[w[k] - 1][k] = 1
        return Matrix.from_rows(rows, p)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def entry(self, i: int, j: int) -> int:
        """1-based access, i = row, j = column."""
        return self.rows[i - 1][j - 1]

    def column(self, j: int) -> tuple:
        """1-based column as a vector."""
        return tuple(row[j - 1] for row in self.rows)

    def columns(self):
        return [self.column(j) for j in range(1, self.ncols + 1)]

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        vec = tuple(vec)
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        p = self.p
        return tuple(sum(map(mul, r, vec)) % p for r in self.rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        p = self.p
        cols = list(zip(*other.rows))
        rows = tuple(tuple(sum(map(mul, r, c)) % p for c in cols)
                     for r in self.rows)
        return Matrix(p, rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.p != other.p or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape or modulus mismatch")
        p = self.p
        return Matrix(p, tuple(tuple((a + b) % p for a, b in zip(r, s))
                               for r, s in zip(self.rows, other.rows)))

    def scale(self, c: int) -> "Matrix":
        p = self.p
        c %= p
        return Matrix(p, tuple(tuple(a * c % p for a in r) for r in self.rows))

    def transpose(self) -> "Matrix":
        return Matrix(self.p, tuple(zip(*self.rows)))

    def is_invertible(self) -> bool:
        try:
            self.inverse()
            return True
        except ValueError:
            return False

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("not square")
        return Matrix(self.p, tuple(map(tuple,
                                        inverse_rows(self.rows, self.p))))


def _rref(rows, ncols: int, p: int):
    """Gauss-Jordan over F_p: bring the rows (lists, changed in place) to
    reduced row echelon form, pivoting on their first ncols entries.
    Returns the pivot columns; row k holds the pivot of column pivots[k]."""
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = inv_mod(rows[r][col], p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col]
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def inverse_rows(rows, p: int):
    """Inverse of a square matrix over F_p given as a list of rows; returns
    a list of row lists. Raises ValueError if the matrix is singular."""
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)]
           for i, r in enumerate(rows)]
    if len(_rref(aug, n, p)) < n:
        raise ValueError("matrix is singular")
    return [r[n:] for r in aug]


def antitranspose(m: Matrix) -> Matrix:
    """Flip a square matrix across its antidiagonal (equals w0 * M^T * w0)."""
    if m.nrows != m.ncols:
        raise ValueError("not square")
    n = m.nrows
    return Matrix(m.p, tuple(
        tuple(m.rows[n - 1 - j][n - 1 - i] for j in range(n))
        for i in range(n)))


# ---------------------------------------------------------------------------
# Packed vectors.
# ---------------------------------------------------------------------------

class Lanes:
    """Vectors of length n over F_p packed in one int with b-bit lanes, row
    i in the bits from b*i, where p <= 2^(b-1).

    The sum s of two reduced vectors has lanes below 2p, and
    s - p*(((s + k) >> top) & ones) reduces every lane at once: adding
    2^(b-1) - p to a lane sets its top bit iff the lane is >= p, and no
    lane carries into the next. So a - y*c is a plus the negated multiple
    (p - y)*c, reduced. A vector is zero iff its int is 0, and its lowest
    nonzero row is (v.bit_length() - 1) // b.

    The membership search inlines this arithmetic; the certificates and
    flags.packed_form call the methods. A basis for reduce is a sequence
    of (shift, multiples of a vector): each vector has entry 1 at row
    shift // b, where every later vector of the sequence is 0."""

    __slots__ = ("n", "p", "b", "top", "lane", "ones", "k", "add")

    def __init__(self, n: int, p: int):
        b = (p - 1).bit_length() + 1
        top = b - 1
        ones = sum(1 << b * i for i in range(n))
        k = ((1 << top) - p) * ones
        self.n, self.p, self.b, self.top = n, p, b, top
        self.lane, self.ones, self.k = (1 << b) - 1, ones, k

        def add(u, v):
            """The reduced sum of two reduced vectors."""
            s = u + v
            return s - p * ((s + k) >> top & ones)
        self.add = add

    def pack(self, vec) -> int:
        b, p = self.b, self.p
        return sum(a % p << b * i for i, a in enumerate(vec))

    def multiples(self, v) -> list:
        """[0, v, 2v, ..., (p-1)v]."""
        p, top, ones, k = self.p, self.top, self.ones, self.k
        out, u = [0, v], v
        for _ in range(p - 2):
            u += v
            u -= p * ((u + k) >> top & ones)
            out.append(u)
        return out

    def product(self, mults, cols) -> tuple:
        """The packed columns of A B, given the multiples of each packed
        column of A, in order, and the columns of B as residues."""
        p, top, ones, k = self.p, self.top, self.ones, self.k
        out = []
        for col in cols:
            v = 0
            for m, c in zip(mults, col):
                if c:
                    v += m[c]
                    v -= p * ((v + k) >> top & ones)
            out.append(v)
        return tuple(out)

    def reduce(self, v, basis) -> int:
        """The residual of v after reduction against a basis."""
        p, lane, top, ones, k = self.p, self.lane, self.top, self.ones, self.k
        for sh, mults in basis:
            y = v >> sh & lane
            if y:
                v += mults[p - y]
                v -= p * ((v + k) >> top & ones)
        return v


@lru_cache(maxsize=64)
def lanes(n: int, p: int) -> Lanes:
    """The packed arithmetic for length n over F_p, one object per (n, p)."""
    return Lanes(n, p)


# ---------------------------------------------------------------------------
# Subspaces in canonical reduced column-echelon form.
# ---------------------------------------------------------------------------

class Subspace(Value):
    """Canonical basis: pivot rows strictly increasing, pivots 1, pivot rows
    otherwise zero, so two values are equal iff they are the same subspace."""

    __slots__ = ("p", "ambient",
                 # tuple of column vectors, each of length `ambient`
                 "basis",
                 # 0-based row index of the leading 1 in each basis column,
                 # kept from the reduction that built the basis. The basis
                 # alone determines it, so it does not change which
                 # subspaces are equal.
                 "pivot_rows")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, vec) -> tuple:
        """Residual of vec after reduction against the basis."""
        v = [int(x) % self.p for x in vec]
        if len(v) != self.ambient:
            raise ValueError("ambient mismatch")
        p = self.p
        for col, r in zip(self.basis, self.pivot_rows):
            c = v[r]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, col)]
        return tuple(v)

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))


def span_of(vectors, ambient: int, p: int) -> Subspace:
    """Canonical subspace spanned by the given vectors (possibly none)."""
    if not is_prime(p):
        raise ValueError("modulus %r is not prime" % (p,))
    rows = [[int(x) % p for x in v] for v in vectors]
    for v in rows:
        if len(v) != ambient:
            raise ValueError("vector length != ambient dimension")
    # Reduced row echelon on the spanning vectors, then read rows as columns.
    pivots = tuple(_rref(rows, ambient, p))
    return Subspace(p, ambient, tuple(tuple(r) for r in rows[:len(pivots)]),
                    pivots)


def zero_subspace(ambient: int, p: int) -> Subspace:
    return span_of([], ambient, p)


def subspace_le(a: Subspace, b: Subspace) -> bool:
    """True iff a is contained in b."""
    if a.p != b.p or a.ambient != b.ambient:
        raise ValueError("ambient or modulus mismatch")
    return all(b.contains(col) for col in a.basis)


def image_subspace(x: Matrix, v: Subspace) -> Subspace:
    """The canonical subspace X*V."""
    if x.p != v.p or x.ncols != v.ambient:
        raise ValueError("dimension mismatch")
    return span_of([x.apply(col) for col in v.basis], x.nrows, x.p)


def conjugate(x: Matrix, g: Matrix) -> Matrix:
    """g^{-1} X g."""
    return g.inverse() * x * g


# ---------------------------------------------------------------------------
# Jordan data.
# ---------------------------------------------------------------------------

class JordanSpec(Value):
    """Jordan block data (eigenvalue residue, block size), canonically
    ordered by descending eigenvalue then descending block size, so specs
    of the same operator are equal."""

    __slots__ = ("p", "blocks")  # blocks: tuple of (eigenvalue, size)

    @property
    def n(self) -> int:
        return sum(size for _, size in self.blocks)

    def is_scalar(self) -> bool:
        return (all(size == 1 for _, size in self.blocks)
                and len({ev for ev, _ in self.blocks}) == 1)


def jordan_spec(blocks, p: int) -> JordanSpec:
    if not is_prime(p):
        raise ValueError("modulus %r is not prime" % (p,))
    blocks = [(int(ev), int(size)) for ev, size in blocks]
    if not blocks:
        raise ValueError("need at least one block")
    for ev, size in blocks:
        if not 0 <= ev < p:
            raise ValueError("eigenvalue %d not in F_%d" % (ev, p))
        if size < 1:
            raise ValueError("block size must be positive")
    blocks.sort(key=lambda b: (-b[0], -b[1]))
    return JordanSpec(p, tuple(blocks))


@lru_cache(maxsize=256)
def jordan_matrix(spec: JordanSpec) -> Matrix:
    """Block-diagonal Jordan matrix in the spec's canonical block order."""
    n = spec.n
    rows = [[0] * n for _ in range(n)]
    pos = 0
    for ev, size in spec.blocks:
        for k in range(size):
            rows[pos + k][pos + k] = ev
            if k + 1 < size:
                rows[pos + k][pos + k + 1] = 1
        pos += size
    return Matrix.from_rows(rows, spec.p)


def regular_nilpotent(n: int, p: int) -> Matrix:
    """The one-block nilpotent (ones on the superdiagonal)."""
    return jordan_matrix(jordan_spec([(0, n)], p))


# ---------------------------------------------------------------------------
# Similarity over F_p.
#
# Write C(A, B) for the intertwiners {P : P A = B P}, a subspace of the
# n x n matrices. Over any field, A and B are similar iff
# dim C(A, A) = dim C(A, B) = dim C(B, B) (Byrnes and Gauger, Linear and
# Multilinear Algebra 1977); one equality alone does not suffice. Each
# dimension is n^2 minus the rank of one linear system, and when A and B
# are similar the transform is found inside C(A, B), which then contains
# an invertible element.
# ---------------------------------------------------------------------------

def _intertwiner_rref(a: Matrix, b: Matrix):
    """The system P A = B P in the n^2 entries of P (row-major), in reduced
    row echelon form: (rows, pivot columns)."""
    n = a.nrows
    p = a.p
    size = n * n
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * size
            for k in range(n):
                row[i * n + k] = (row[i * n + k] + a.rows[k][j]) % p
                row[k * n + j] = (row[k * n + j] - b.rows[i][k]) % p
            rows.append(row)
    return rows, _rref(rows, size, p)


def _intertwiner_dim(a: Matrix, b: Matrix) -> int:
    """dim C(A, B)."""
    return a.nrows ** 2 - len(_intertwiner_rref(a, b)[1])


def _intertwiner_basis(a: Matrix, b: Matrix):
    """Basis of C(A, B) = {P : P A = B P} as matrices."""
    n = a.nrows
    p = a.p
    size = n * n
    rows, pivots = _intertwiner_rref(a, b)
    free = [c for c in range(size) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * size
        vec[fc] = 1
        for ri, pc in enumerate(pivots):
            vec[pc] = (-rows[ri][fc]) % p
        basis.append(Matrix.from_rows(
            [vec[i * n:(i + 1) * n] for i in range(n)], p))
    return basis


def similarity_transform(a: Matrix, b: Matrix):
    """An invertible P with P A P^{-1} = B, or None if A and B are not
    similar over F_p."""
    if a.p != b.p:
        raise ValueError("modulus mismatch")
    if a.nrows != a.ncols or a.nrows != b.nrows or b.nrows != b.ncols:
        raise ValueError("need square matrices of equal size")
    basis = _intertwiner_basis(a, b)
    if not _intertwiner_dim(a, a) == len(basis) == _intertwiner_dim(b, b):
        return None
    for cand in basis:
        if cand.is_invertible():
            return cand
    rng = random.Random(0x5E55)
    p = a.p
    n = a.nrows
    for _ in range(20000):
        cand = Matrix.zero(n, n, p)
        for mat in basis:
            cand = cand + mat.scale(rng.randrange(p))
        if cand.is_invertible():
            return cand
    raise RuntimeError("similar matrices but no invertible intertwiner found")
