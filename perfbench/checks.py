"""Checks of hessalg's outputs against the oracles, and a self-test of them.

Each check returns a list of error strings; an empty list means the output
passed. The self-test feeds each check a corrupted copy of an output that
passed and requires the check to reject it.
"""

from __future__ import annotations

import copy
import re

import oracles as O
from workloads import NILPOTENT, SCALAR, SEMISIMPLE, matrix_at

ABSENT_SAMPLES = 40  # random flags per result that must be absent


def closed_form(op, t, p):
    """The point count of Hess(X, t)(F_p) where a closed form applies,
    else None."""
    n = len(t)
    if all(tj == n for tj in t):
        return O.q_factorial(n, p)
    strict = O.is_strict(t)
    kind = op["kind"]
    if kind == NILPOTENT and strict:
        return O.nilpotent_count(t, p)
    if kind == SEMISIMPLE and strict and p >= n:
        return O.semisimple_count(t, p)
    if kind == SCALAR:
        # X = cI: X F_j = F_j when c != 0, so t_j >= j is needed for every j.
        everything = strict or matrix_at(op, p)[0][0] == 0
        return O.q_factorial(n, p) if everything else 0
    return None


# ---------------------------------------------------------------------------
# variety
# ---------------------------------------------------------------------------

def check_variety(op, doc, rng):
    """Header, point labels, counts, membership of every point and of a
    sample of absent flags, and the fit. Returns (errors, counts)."""
    errs = []
    x_op, t, primes = op["op"], op["t"], op["primes"]
    n = x_op["n"]
    head = (doc.get("command"), doc.get("operator"), doc.get("n"),
            doc.get("shape"))
    want = ("variety", x_op["text"], n,
            {"h": O.shape_text(t), "yd": O.diagram_text(t)})
    if head != want:
        errs.append("header %r != %r" % (head, want))
    results = doc.get("results", [])
    if [r.get("p") for r in results] != list(primes):
        return errs + ["primes %r != %r" % ([r.get("p") for r in results],
                                            list(primes))], []
    counts = []
    for res, p in zip(results, primes):
        pts = res["points"]
        counts.append(res["count"])
        if res["count"] != len(pts) or len(set(pts)) != len(pts):
            errs.append("p=%d: count %d but %d labels, %d distinct"
                        % (p, res["count"], len(pts), len(set(pts))))
        expected = closed_form(x_op, t, p)
        if expected is not None and res["count"] != expected:
            errs.append("p=%d: count %d != closed form %d"
                        % (p, res["count"], expected))
        x = matrix_at(x_op, p)
        for text in pts:
            try:
                w, values = O.parse_label(text, n, p)
            except ValueError as exc:
                errs.append("p=%d: %s" % (p, exc))
                break
            if not O.member(x, O.flag_columns(w, values, n), t, p):
                errs.append("p=%d: point %s is not in the variety" % (p, text))
                break
        present = set(pts)
        for _ in range(ABSENT_SAMPLES):
            w, values = O.random_flag(rng, n, p)
            if O.label(w, values) in present:
                continue
            if O.member(x, O.flag_columns(w, values, n), t, p):
                errs.append("p=%d: flag %s is in the variety but missing"
                            % (p, O.label(w, values)))
                break
    expected_fit = None
    if len(primes) >= 2:
        coeffs = O.interpolate(primes, counts)
        if (all(c.denominator == 1 for c in coeffs)
                and len(coeffs) - 1 <= n * (n - 1) // 2):
            expected_fit = [int(c) for c in coeffs]
    fit = doc.get("fit")
    try:
        got_fit = O.parse_poly(fit) if fit is not None else None
    except ValueError as exc:
        got_fit = str(exc)
    if got_fit != expected_fit:
        errs.append("fit %r != interpolant %r" % (fit, expected_fit))
    return errs, counts


# ---------------------------------------------------------------------------
# poset
# ---------------------------------------------------------------------------

def poset_from_json(doc):
    """(classes, hasse): classes maps a name to (member shapes, counts)."""
    classes = {c["name"]: ([O.parse_shape_text(h) for h in c["shapes"]],
                           list(c["counts"]))
               for c in doc["classes"]}
    return classes, [tuple(e) for e in doc["hasse"]]


_NODE = re.compile(r'^  "([^"]+)" \[label="([^"]*)"\];$')
_EDGE = re.compile(r'^  "([^"]+)" -> "([^"]+)";$')
_LABEL = re.compile(r"^λ=([0-9,∅]+) \| h=([0-9,]+) \| (\d+)$")


def poset_from_dot(text):
    """(classes, hasse) from DOT output, where each node gives only its
    representative shape and its count at the first prime."""
    classes, hasse = {}, []
    lines = text.strip().split("\n")
    if lines[:2] != ["digraph P_X {", "  rankdir=BT;"] or lines[-1] != "}":
        raise ValueError("not a P_X digraph")
    for line in lines[2:-1]:
        node, edge = _NODE.match(line), _EDGE.match(line)
        if node:
            lab = _LABEL.match(node.group(2))
            if not lab:
                raise ValueError("bad node label %r" % node.group(2))
            t = tuple(int(v) for v in lab.group(2).split(","))
            parts = [] if lab.group(1) == "∅" else [
                int(v) for v in lab.group(1).split(",")]
            if parts != O.diagram_parts(t):
                raise ValueError("node %r: λ does not match h" % line)
            classes[node.group(1)] = ([t], [int(lab.group(3))])
        elif edge:
            hasse.append(edge.groups())
        else:
            raise ValueError("bad DOT line %r" % line)
    return classes, hasse


def check_poset(op, classes, hasse, primes, complete=True):
    """Checks of P_X. With complete=False (DOT), classes list only their
    representatives and the check needs one strict class per shape."""
    errs = []
    x_op, n = op["op"], op["op"]["n"]
    shapes = O.all_shapes(n, strict_only=op["strict"])
    scalar = [O.is_scalar(matrix_at(x_op, p), p) for p in primes]
    where = {}
    for name, (members, counts) in classes.items():
        if members != sorted(members) or name != O.diagram_text(members[0]):
            errs.append("class %s: name or member order wrong" % name)
        if len(counts) != len(primes):
            errs.append("class %s: %d counts for %d primes"
                        % (name, len(counts), len(primes)))
        for t in members:
            if t in where:
                errs.append("shape %s in two classes" % O.shape_text(t))
            where[t] = name
            for p, c in zip(primes, counts):
                expected = closed_form(x_op, t, p)
                if expected is not None and c != expected:
                    errs.append("%s at p=%d: count %d != closed form %d"
                                % (O.shape_text(t), p, c, expected))
    if not complete and any(scalar):
        return errs + ["a DOT poset is checked only for non-scalar X"]
    if sorted(where) != shapes:
        errs.append("classes cover %d shapes, want %d"
                    % (len(where), len(shapes)))
        return errs
    strict_classes = {where[t] for t in shapes if O.is_strict(t)}
    n_strict = sum(1 for t in shapes if O.is_strict(t))
    if all(scalar) and len(strict_classes) != 1:
        errs.append("scalar X: %d strict classes, want 1" % len(strict_classes))
    if not any(scalar) and len(strict_classes) != n_strict:
        errs.append("non-scalar X: %d strict classes for %d strict shapes"
                    % (len(strict_classes), n_strict))
    for t in shapes:
        tt = O.transpose(t)
        if tt in where and classes[where[t]][1] != classes[where[tt]][1]:
            errs.append("count(%s) != count(transpose)" % O.shape_text(t))
    # Hasse edges: strictly growing counts, acyclic, transitively reduced.
    succ = {name: set() for name in classes}
    for a, b in hasse:
        if a not in classes or b not in classes or a == b or b in succ[a]:
            errs.append("bad Hasse edge %s -> %s" % (a, b))
            continue
        if not all(x < y for x, y in zip(classes[a][1], classes[b][1])):
            errs.append("edge %s -> %s: counts do not grow" % (a, b))
        succ[a].add(b)
    if errs:
        return errs
    reach = {}
    for name in classes:
        seen, stack = set(), list(succ[name])
        while stack:
            c = stack.pop()
            if c not in seen:
                seen.add(c)
                stack.extend(succ[c])
        reach[name] = seen
        if name in seen:
            errs.append("cycle through %s" % name)
    for a, b in hasse:
        if any(b in reach[c] for c in succ[a] if c != b):
            errs.append("edge %s -> %s is implied by a longer path" % (a, b))
    # s <= s2 gives Hess(s) <= Hess(s2); with fewer points at every prime
    # the containment is strict at every prime, so class(s) lies below.
    covers = O.one_cell_covers(shapes)
    for s, s2 in covers:
        a, b = where[s], where[s2]
        if a != b and b not in reach[a] and all(
                x < y for x, y in zip(classes[a][1], classes[b][1])):
            errs.append("%s <= %s but its class is not below"
                        % (O.shape_text(s), O.shape_text(s2)))
    if op["strict"] and not any(scalar):
        got = {(classes[a][0][0], classes[b][0][0]) for a, b in hasse}
        if got != covers:
            errs.append("strict Hasse edges are not the one-cell extensions: "
                        "%d edges, %d covers" % (len(got), len(covers)))
    return errs


def structure(classes, hasse):
    """The class partition with counts, and the edges, free of names."""
    key = {name: tuple(members) for name, (members, _) in classes.items()}
    return ({(key[k], tuple(c)) for k, (_, c) in classes.items()},
            {(key[a], key[b]) for a, b in hasse})


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def check_certificate(call, r):
    kind, p = call["kind"], call["p"]
    if kind == "decomposition":
        t, j = tuple(call["t"]), call["j"]
        h1, h2 = t[:j], tuple(x - j for x in t[j:])
        c, c1, c2 = (O.nilpotent_count(s, p) for s in (t, h1, h2))
        got = (r["ok"], r["split_index"], r["sub_shapes"], r["count"],
               r["count1"], r["count2"], r["pairs_checked"])
        want = (True, j, [list(h1), list(h2)], c, c1, c2, c1 * c2)
        return [] if got == want else ["decomposition %s p=%d: %r != %r"
                                        % (O.shape_text(t), p, got, want)]
    if kind == "involution":
        t = tuple(call["t"])
        expected = closed_form(call["op"], t, p)
        got = (r["ok"], r["intermediate_bijection"], r["composed_bijection"],
               tuple(r["partner"]), r["partner_count"])
        want = (True, True, True, O.transpose(t), r["count"])
        errs = [] if got == want else ["involution %s p=%d: %r != %r"
                                       % (O.shape_text(t), p, got, want)]
        if expected is not None and r["count"] != expected:
            errs.append("involution %s p=%d: count %d != closed form %d"
                        % (O.shape_text(t), p, r["count"], expected))
        return errs
    t1, t2 = tuple(call["t1"]), tuple(call["t2"])
    n = len(t1)
    i, j = next((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if (t1[i - 1] >= j) != (t2[i - 1] >= j))
    strict = O.all_shapes(n, strict_only=True)
    want_members = {O.shape_text(t): t[i - 1] >= j for t in strict}
    x = O.jordan_matrix(call["blocks"], p)
    cols = [list(c) for c in zip(*r["flag_rows"])]
    got = (r["pair"], r["checks"], r["memberships"], r["in_first"],
           r["in_second"], O.member(x, cols, t1, p), O.member(x, cols, t2, p))
    want = ([i, j], [True] * 3, want_members, t1[i - 1] >= j,
            t2[i - 1] >= j, t1[i - 1] >= j, t2[i - 1] >= j)
    if got != want:
        return ["witness %s vs %s: pair/checks/memberships/flag wrong"
                % (O.shape_text(t1), O.shape_text(t2))]
    return []


# ---------------------------------------------------------------------------
# Self-test: every check must reject a corrupted output.
# ---------------------------------------------------------------------------

def self_test_variety(items, rng):
    """Corruptions of a passing variety output that check_variety missed.
    items: [(op, doc)]."""
    op, doc = next(((op, doc) for op, doc in items
                    if closed_form(op["op"], op["t"], op["primes"][0])
                    and 0 < doc["results"][0]["count"]
                    < O.q_factorial(op["op"]["n"], op["primes"][0])),
                   (None, None))
    if op is None:
        return ["variety: no passing output with a closed form to corrupt"]
    n, p, t = op["op"]["n"], op["primes"][0], op["t"]
    missed = []
    bad = copy.deepcopy(doc)
    bad["results"][0]["points"].pop()
    bad["results"][0]["count"] -= 1
    if not check_variety(op, bad, rng)[0]:
        missed.append("variety: one point dropped")
    x = matrix_at(op["op"], p)
    while True:
        w, values = O.random_flag(rng, n, p)
        if not O.member(x, O.flag_columns(w, values, n), t, p):
            break
    bad = copy.deepcopy(doc)
    bad["results"][0]["points"].append(O.label(w, values))
    bad["results"][0]["count"] += 1
    if not check_variety(op, bad, rng)[0]:
        missed.append("variety: one point added")
    return missed


def self_test_poset(items):
    """Corruptions of a passing strict poset of a non-scalar operator that
    check_poset missed. items: [(op, classes, hasse)] from JSON outputs."""
    op, classes, hasse = next(
        (item for item in items if item[0]["strict"] and item[2]
         and not O.is_scalar(matrix_at(item[0]["op"], item[0]["primes"][0]),
                             item[0]["primes"][0])), (None, None, None))
    if op is None:
        return ["poset: no passing strict poset to corrupt"]
    missed = []
    a, b = hasse[0]
    merged = copy.deepcopy(classes)
    merged[a] = (sorted(merged[a][0] + merged.pop(b)[0]), merged[a][1])
    relinked = [(a if u == b else u, a if v == b else v) for u, v in hasse
                if (u, v) != (a, b)]
    if not check_poset(op, merged, relinked, op["primes"]):
        missed.append("poset: two classes merged")
    if not check_poset(op, classes, hasse[1:], op["primes"]):
        missed.append("poset: one Hasse edge removed")
    return missed


def self_test_certify(items):
    """Reports of each kind, with one field flipped, that
    check_certificate missed. items: [(call, report)]."""
    missed = []
    for kind, field in (("decomposition", "ok"),
                        ("involution", "composed_bijection"),
                        ("distinct", "in_first")):
        call, report = next((item for item in items
                             if item[0]["kind"] == kind), (None, None))
        if call is None:
            missed.append("certificate: no passing %s report" % kind)
            continue
        bad = dict(report, **{field: not report[field]})
        if not check_certificate(call, bad):
            missed.append("certificate: %s.%s flipped" % (kind, field))
    return missed
