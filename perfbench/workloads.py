"""The fixed operation lists of the three workloads, made from a seed.

The seed chooses the random integer conjugates g J g^-1 passed as
`matrix:` operators, and the pairs sampled for `certify_distinct` at
n = 6. Every other input is fixed, so that the cost of a round, and the
operation its median latency falls on, depend little on the seed.
Each operator carries what the checks need: its kind (which closed form
applies), its Jordan blocks and its integer rows.
"""

from __future__ import annotations

import random

import oracles as O

NILPOTENT, SEMISIMPLE, MIXED, SCALAR = "nilpotent", "semisimple", "mixed", "scalar"


def jordan_op(kind, blocks):
    """An operator given in Jordan form; symbolic eigenvalues a, b, c, ...
    resolve to p-1, p-2, ... over F_p."""
    text = "jordan:" + ",".join("%s^%d" % (ev, size) for ev, size in blocks)
    return {"kind": kind, "text": text, "n": sum(s for _, s in blocks),
            "blocks": blocks, "rows": O.jordan_matrix(blocks)}


def conjugate_op(op, rng):
    rows = O.conjugate(op["rows"], rng)
    return {"kind": op["kind"], "text": O.matrix_text(rows), "n": op["n"],
            "blocks": None, "rows": rows}


def matrix_at(op, p):
    """The operator's matrix over F_p, as the program builds it."""
    if op["blocks"] is not None:
        return O.jordan_matrix(op["blocks"], p)
    return [[v % p for v in row] for row in op["rows"]]


def _variety(op, t, primes, extra=()):
    argv = ["variety", "--n", str(op["n"]), "--x", op["text"],
            "--h", O.shape_text(t), "--p", ",".join(map(str, primes)),
            *extra]
    return {"argv": argv, "op": op, "t": tuple(t), "primes": tuple(primes)}


def _poset(op, primes, strict, fmt="json"):
    argv = ["poset", "--n", str(op["n"]), "--x", op["text"],
            "--p", ",".join(map(str, primes))]
    if strict:
        argv.append("--strict")
    if fmt != "json":
        argv += ["--format", fmt]
    return {"argv": argv, "op": op, "primes": tuple(primes), "strict": strict,
            "format": fmt}


def variety_ops(seed: int):
    """Cold single-shape queries, one process each: two on (4,5) with
    29,016 flags, four on (5,2) with 9,765 flags, and the --force query."""
    rng = random.Random(seed)
    s4 = jordan_op(SEMISIMPLE, [("a", 1), ("b", 1), ("c", 1), ("d", 1)])
    n5 = jordan_op(NILPOTENT, [(0, 5)])
    m5 = jordan_op(MIXED, [(1, 2), (0, 3)])
    nonstrict = (0, 3, 4, 5, 5)
    return [
        _variety(s4, (2, 3, 4, 4), (5,)),
        # Two primes, so the output has a fit.
        _variety(conjugate_op(s4, rng), (2, 4, 4, 4), (3, 5)),
        # Every flag is a point, so every flag is labelled and printed.
        _variety(n5, (5, 5, 5, 5, 5), (2,)),
        _variety(conjugate_op(n5, rng), (2, 3, 4, 5, 5), (2,)),
        _variety(m5, nonstrict, (2,)),
        dict(_variety(conjugate_op(m5, rng), nonstrict, (2,)),
             same_counts_as=4),
        # Fails today: the labels come from a flag cache that ignores
        # --force, so the size guard rejects p = 11.
        _variety(jordan_op(NILPOTENT, [(0, 2)]), (2, 2), (11,), ["--force"]),
    ]


def poset_ops(seed: int):
    """Cold posets, one process per operator. Two large posets at n = 5;
    the rest are n = 4 posets over p = 2, 3 of similar cost, so that the
    median latency falls among many like operations."""
    rng = random.Random(seed)
    n4 = jordan_op(NILPOTENT, [(0, 4)])
    n4c = conjugate_op(n4, rng)
    ops = [
        # 252 shapes and many classes.
        _poset(jordan_op(MIXED, [(1, 2), (0, 3)]), (2,), strict=False),
        _poset(jordan_op(NILPOTENT, [(0, 5)]), (2,), strict=True, fmt="dot"),
        _poset(n4, (2, 3), strict=True),
        _poset(n4c, (2, 3), strict=True),
        _poset(jordan_op(SCALAR, [(1, 1)] * 4), (2, 3), strict=False),
    ]
    for op in (n4, jordan_op(MIXED, [(1, 2), (0, 2)]),
               jordan_op(MIXED, [(1, 1), (0, 3)])):
        ops.append(_poset(op, (2, 3), strict=False))
        ops.append(dict(_poset(conjugate_op(op, rng), (2, 3), strict=False),
                        same_structure_as=len(ops) - 1))
    return ops


def certify_calls(seed: int):
    """One library session: the certificate calls in a fixed order."""
    rng = random.Random(seed)
    calls = []
    # Every split point at n = 4; at n = 5 (0.8 s a call) only the five
    # shapes with t_1 = t_2 = 2, split at j = 2.
    for p in (2, 3):
        for t in O.all_shapes(4, strict_only=True):
            for j in range(1, 4):
                if t[j - 1] == j:
                    calls.append({"kind": "decomposition", "t": t, "p": p,
                                  "j": j})
    for t in O.all_shapes(5, strict_only=True):
        if t[:2] == (2, 2):
            calls.append({"kind": "decomposition", "t": t, "p": 2, "j": 2})
    inv_ops = []
    m3 = jordan_op(MIXED, [(1, 2), (0, 1)])
    for p in (3, 5):
        for op in (jordan_op(NILPOTENT, [(0, 3)]), m3,
                   jordan_op(SEMISIMPLE, [("a", 1), ("b", 1), ("c", 1)])):
            inv_ops.append((op, p, O.all_shapes(3)))
    inv_ops.append((conjugate_op(m3, rng), 3, O.all_shapes(3)))
    n4 = jordan_op(NILPOTENT, [(0, 4)])
    for op in (n4, jordan_op(MIXED, [(1, 2), (0, 2)]), conjugate_op(n4, rng)):
        inv_ops.append((op, 2, O.all_shapes(4, strict_only=True)))
    for op, p, shapes in inv_ops:
        for t in shapes:
            calls.append({"kind": "involution", "op": op, "t": t, "p": p})
    # At n = 5 every 29th of the 861 strict pairs (30 pairs per Jordan
    # type), the same for every seed: the median call latency falls among
    # these calls, and their cost depends on the pair. At n = 6 a seeded
    # sample; these calls are slower than the median whatever the pairs.
    for n, blocks, p in ((5, [(0, 5)], 2), (5, [(1, 2), (0, 3)], 2),
                         (5, [(1, 3), (0, 2)], 2),
                         (5, [(2, 1), (1, 1), (0, 3)], 3),
                         (6, [(0, 6)], 2), (6, [(1, 3), (0, 3)], 2)):
        strict = O.all_shapes(n, strict_only=True)
        pairs = [(a, b) for a in strict for b in strict if a < b]
        for a, b in (pairs[::29] if n == 5 else rng.sample(pairs, 8)):
            calls.append({"kind": "distinct", "blocks": blocks, "p": p,
                          "t1": a, "t2": b})
    return calls
