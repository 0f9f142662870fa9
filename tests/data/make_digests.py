"""The exactness corpus: SHA-256 digests of point sets and of certificate
reports, written to digests.json next to this script.

    PYTHONPATH=src python tests/data/make_digests.py

regenerates the file; tests/test_digests.py recomputes every digest and
compares. The file may change only when an output is meant to change
(the flag order, the shape order or a report), and the change log must
say so: regenerating it to make a failing test pass hides the very
change it exists to catch.

- "bitmaps": for every nilpotent Jordan type at (4, 2), (4, 3) and
  (5, 2), one digest over the bitmaps of every shape in enumerate_shapes
  order, each as ceil([n]_p! / 8) little-endian bytes.
- "involution": for each operator and prime, one digest over the reports
  of verify_involution on every shape (n = 3) or every strict shape
  (n = 4), in enumerate_shapes order.
- "distinct": for every non-scalar Jordan type at (4, 2) and (4, 3), one
  digest over the certify_distinct certificates of every pair of strict
  shapes s1 < s2 in enumerate_shapes order.
- "poset": for every Jordan type at (4, 2) and (4, 3), every nilpotent
  type at (5, 2), and every type of jordan_types(4, 3) at p = (2, 3)
  (where 2 = 0 mod 2), over all shapes and over strict shapes: one digest
  over build_poset's class names, member shapes, per-prime counts and
  Hasse edges.
- "stdout": for each CLI query in STDOUT_QUERIES (the six README examples
  and two variety queries that label every flag), one digest over its
  stdout, as UTF-8, followed by its exit code, run in process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys

from hessalg import cli
from hessalg import (build_poset, certify_distinct, enumerate_shapes,
                     jordan_operator, jordan_spec, matrix_operator,
                     q_factorial, variety_bitmaps, verify_involution)

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "digests.json")

# Integer conjugates E X E^-1 of [[1,1,0],[0,1,0],[0,0,0]] and of the 4 x 4
# regular nilpotent, by fixed products E of integer elementary matrices.
CONJ_3 = ((-32, -11, -34), (13, 4, 14), (28, 9, 30))
CONJ_4 = ((-6, 1, -2, 0), (-14, 2, -3, 2), (10, -2, 4, 1), (-12, 2, -4, 0))


def partitions(k, largest=None):
    if k == 0:
        yield ()
        return
    for part in range(min(k, largest or k), 0, -1):
        for rest in partitions(k - part, part):
            yield (part,) + rest


def jordan_types(n, p):
    """Every Jordan type of rank n with eigenvalues in F_p, as block lists:
    a partition for each eigenvalue p-1, ..., 0, summing to n."""
    def split(total, evs):
        if not evs:
            if total == 0:
                yield []
            return
        for k in range(total + 1):
            for part in partitions(k):
                for rest in split(total - k, evs[1:]):
                    yield [(evs[0], size) for size in part] + rest
    return list(split(n, list(range(p - 1, -1, -1))))


def _sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def bitmap_digests():
    out = {}
    for n, p in ((4, 2), (4, 3), (5, 2)):
        shapes = enumerate_shapes(n)
        width = (q_factorial(n, p) + 7) // 8
        for part in partitions(n):
            op = jordan_operator([(0, size) for size in part])
            bitmaps = variety_bitmaps(op.matrix(p), shapes, n, p)
            out["%s n=%d p=%d" % (op.name, n, p)] = _sha(
                b.bits.to_bytes(width, "little") for b in bitmaps)
    return out


def _json(data):
    return json.dumps(data, sort_keys=True).encode() + b"\n"


def involution_digests():
    cases = []
    for op in (jordan_operator([(0, 3)]), jordan_operator([(1, 2), (0, 1)]),
               matrix_operator(CONJ_3)):
        for p in (3, 5):
            cases.append((op, p, enumerate_shapes(3)))
    for op in (jordan_operator([(0, 4)]), jordan_operator([(1, 2), (0, 2)]),
               matrix_operator(CONJ_4)):
        cases.append((op, 2, enumerate_shapes(4, strict_only=True)))
    out = {}
    for op, p, shapes in cases:
        reports = (verify_involution(op, s, p) for s in shapes)
        out["%s p=%d" % (op.name, p)] = _sha(_json(
            [r.shape.t, r.partner.t, r.count, r.partner_count,
             r.intermediate_bijection, r.composed_bijection, r.ok])
            for r in reports)
    return out


def distinct_digests():
    out = {}
    for n, p in ((4, 2), (4, 3)):
        strict = enumerate_shapes(n, strict_only=True)
        for blocks in jordan_types(n, p):
            spec = jordan_spec(blocks, p)
            if spec.is_scalar():
                continue
            certs = (certify_distinct(spec, s1, s2)
                     for s1, s2 in itertools.combinations(strict, 2))
            key = "%s n=%d p=%d" % (
                ",".join("%d^%d" % b for b in spec.blocks), n, p)
            out[key] = _sha(_json(
                [c.pair, c.checks, list(c.memberships.items()), c.in_first,
                 c.in_second, c.flag.index, c.flag.rep.rows])
                for c in certs)
    return out


def poset_digests():
    cases = [(blocks, (p,)) for p in (2, 3) for blocks in jordan_types(4, p)]
    cases += [([(0, size) for size in part], (2,)) for part in partitions(5)]
    cases += [(blocks, (2, 3)) for blocks in jordan_types(4, 3)]
    out = {}
    for blocks, primes in cases:
        op = jordan_operator(blocks)
        for strict_only in (False, True):
            poset = build_poset(op, primes, strict_only)
            key = "%s n=%d p=%s%s" % (
                op.name, op.n, ",".join(map(str, primes)),
                " strict" if strict_only else "")
            out[key] = _sha([_json(
                [[[c.name, [s.t for s in c.shapes],
                   list(c.counts)] for c in poset.classes],
                 poset.hasse])])
    return out


# The README examples, then every flag of (5, 2) (9,765 labels) and of
# (4, 5) (29,016 labels) under a full shape.
STDOUT_QUERIES = (
    "shapes --n 3 --strict",
    "variety --n 3 --x jordan:0^3 --h h:2,3,3 --p 2,3,5",
    "poset --n 2 --x jordan:1^1,0^1 --p 2,3,5",
    "witness --n 6 --x jordan:a^3,b^2,c^1 --i 2 --j 4",
    "involution --n 3 --x jordan:0^3 --h h:1,3,3 --p 2",
    "decompose --h h:3,3,3,5,5 --p 2",
    "variety --n 5 --x jordan:0^5 --h h:5,5,5,5,5 --p 2",
    "variety --n 4 --x jordan:a^1,b^1,c^1,d^1 --h h:4,4,4,4 --p 5",
)


def stdout_digests():
    out = {}
    for query in STDOUT_QUERIES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(query.split())
        out[query] = _sha((buf.getvalue().encode(), b"exit %d\n" % code))
    return out


def digests():
    return {"bitmaps": bitmap_digests(), "involution": involution_digests(),
            "distinct": distinct_digests(), "poset": poset_digests(),
            "stdout": stdout_digests()}


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        json.dump(digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
