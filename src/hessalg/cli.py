"""Command-line front end.

Subcommands: shapes, variety, poset, witness, involution, decompose.
Outputs are JSON (schema "hessalg/1"), Graphviz DOT for posets, or plain
text for the shape census. Exit codes: 0 success / all checks verified,
1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

# Module objects only, each named where it is used: the package registers
# them lazily, so a command runs just the modules it reads (parsing a
# command line runs none), and the benchmark's tracer, which imports cli
# alone, still finds each of them in sys.modules.
from . import certificates, flags, shapes, varieties

SCHEMA = "hessalg/1"

_JORDAN_TOKEN = re.compile(r"^(-?\d+|[a-z])\^(\d+)$")


def parse_operator(text: str, n: int) -> varieties.OperatorSpec:
    if text.startswith("jordan:"):
        blocks = []
        for tok in text[len("jordan:"):].split(","):
            m = _JORDAN_TOKEN.match(tok.strip())
            if not m:
                raise ValueError("bad Jordan block %r (want eig^size)" % tok)
            ev, size = m.groups()
            blocks.append((ev if ev.isalpha() else int(ev), int(size)))
        if sum(size for _, size in blocks) != n:
            raise ValueError("Jordan block sizes must sum to n=%d" % n)
        return varieties.OperatorSpec(name=text, n=n, blocks=tuple(blocks))
    if text.startswith("matrix:"):
        rows = tuple(tuple(shapes.parse_ints(row, text, "--x"))
                     for row in text[len("matrix:"):].split(";"))
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix must be %dx%d" % (n, n))
        return varieties.OperatorSpec(name=text, n=n, entries=rows)
    raise ValueError("operator must look like 'jordan:1^1,0^1' or "
                     "'matrix:1,0;0,0': %r" % text)


def parse_primes(text: str):
    primes = tuple(shapes.parse_ints(text, text, "--p", "primes"))
    if len(set(primes)) != len(primes):
        raise ValueError("primes must be distinct")
    return primes


def _column_text(mat, j: int) -> str:
    terms = []
    for i in range(1, mat.nrows + 1):
        v = mat.entry(i, j)
        if v:
            terms.append(("" if v == 1 else str(v)) + "e%d" % i)
    return "+".join(terms) if terms else "0"


def _shape_json(s):
    return {"h": shapes.shape_text(s), "yd": shapes.diagram_text(s)}


def _roots_text(s) -> str:
    roots = sorted(shapes.negative_root_set(s))
    return "{" + ",".join(
        "-" + "-".join("a%d" % k for k in range(i, j)) for i, j in roots) + "}"


def _emit(args, text) -> None:
    """Write the output and a final newline to --output or stdout. `text`
    is one string or an iterable of pieces, written as they come."""
    pieces = (text,) if isinstance(text, str) else text
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.writelines(pieces)
                fh.write("\n")
        except OSError as exc:
            raise ValueError("cannot write --output %r: %s"
                             % (args.output, exc.strerror or exc)) from None
    else:
        sys.stdout.writelines(pieces)
        sys.stdout.write("\n")
        # Flush here, so that a closed pipe raises inside main().
        sys.stdout.flush()


def cmd_shapes(args) -> int:
    if args.n < 1:
        raise ValueError("--n %d: rank must be positive" % args.n)
    census = shapes.enumerate_shapes(args.n, args.strict)
    if args.format == "json":
        rows = []
        for s in census:
            row = dict(_shape_json(s))
            row["mask"] = shapes.mask_text(s)
            row["strict"] = shapes.is_strict(s)
            if shapes.is_strict(s):
                row["roots"] = _roots_text(s)
            rows.append(row)
        _emit(args, json.dumps({"schema": SCHEMA, "command": "shapes",
                                "n": args.n, "strict_only": args.strict,
                                "shapes": rows}, indent=2))
    else:
        lines = []
        for s in census:
            cols = [shapes.shape_text(s), shapes.diagram_text(s),
                    "mask=" + shapes.mask_text(s)]
            if shapes.is_strict(s):
                cols.append("M_H=" + _roots_text(s))
            lines.append("  ".join(cols))
        _emit(args, "\n".join(lines))
    return 0


# Stands in for each point list in the laid-out variety document. No other
# string there can hold a NUL: the operator name has passed the parser.
_POINTS = "\0"


def _point_list(points):
    """The text json.dumps(..., indent=2) gives a variety's "points" list,
    in pieces. Labels need no escaping: they are made of e, r, c, digits,
    brackets, braces, commas, '=' and spaces."""
    labels = flags.point_labels(points)
    first = next(labels, None)
    if first is None:
        yield "[]"
        return
    yield '[\n        "' + first
    for label in labels:
        yield '",\n        "' + label
    yield '"\n      ]'


def _variety_text(doc, bitmaps):
    """The pieces of json.dumps(doc, indent=2), where doc holds _POINTS in
    place of each point list, with the lists streamed from the bitmaps."""
    parts = json.dumps(doc, indent=2).split(json.dumps(_POINTS))
    yield parts[0]
    for points, part in zip(bitmaps, parts[1:]):
        yield from _point_list(points)
        yield part


def cmd_variety(args) -> int:
    op = parse_operator(args.x, args.n)
    shape = shapes.parse_shape(args.h, args.n)
    primes = parse_primes(args.p)
    # Every search runs before any output: the counts and the fit need all
    # of them, and a refused prime leaves no partial document or file.
    bitmaps = [varieties.compute_variety(op, shape, p,
                                         override=args.force).points
               for p in primes]
    counts = [b.count for b in bitmaps]
    fit = None
    if len(primes) >= 2:
        coeffs = varieties.interpolate(primes, counts,
                                       args.n * (args.n - 1) // 2)
        fit = varieties.poly_text(coeffs) if coeffs is not None else None
    doc = {"schema": SCHEMA, "command": "variety", "operator": op.name,
           "n": args.n, "shape": _shape_json(shape),
           "results": [{"p": p, "count": c, "points": _POINTS}
                       for p, c in zip(primes, counts)],
           "fit": fit}
    _emit(args, _variety_text(doc, bitmaps))
    return 0


def _poset_dot(poset) -> str:
    lines = ["digraph P_X {", "  rankdir=BT;"]
    for c in poset.classes:
        rep = c.representative
        if not any(c.counts):
            label = "∅-variety"
        else:
            parts = shapes.shape_to_diagram(rep).parts
            label = "λ=%s | h=%s | %d" % (
                ",".join(str(x) for x in parts) if parts else "∅",
                ",".join(str(x) for x in rep.t), c.counts[0])
        lines.append('  "%s" [label="%s"];' % (c.name, label))
    for a, b in poset.hasse:
        lines.append('  "%s" -> "%s";' % (a, b))
    lines.append("}")
    return "\n".join(lines)


def cmd_poset(args) -> int:
    op = parse_operator(args.x, args.n)
    primes = parse_primes(args.p)
    poset = varieties.build_poset(op, primes, strict_only=args.strict)
    if args.format == "dot":
        _emit(args, _poset_dot(poset))
        return 0
    classes = [{"name": c.name,
                "shapes": [shapes.shape_text(s) for s in c.shapes],
                "counts": list(c.counts)}
               for c in poset.classes]
    _emit(args, json.dumps({"schema": SCHEMA, "command": "poset",
                            "operator": op.name, "n": args.n,
                            "p": list(primes), "strict_only": args.strict,
                            "classes": classes,
                            "hasse": [list(e) for e in poset.hasse]},
                           indent=2))
    return 0


def _pick_witness_prime(op, requested):
    """--p if given, else the least guard prime hosting X at which X is not
    scalar and distinct integer eigenvalues stay distinct; failing that,
    the least at which X is not scalar, then the least hosting X."""
    if requested is not None:
        return requested
    ints = {ev for ev, _ in op.blocks if not isinstance(ev, str)}
    hosts = []
    for p in flags.GUARD_PRIMES:
        try:
            scalar = op.jordan(p).is_scalar()
        except ValueError:
            continue
        hosts.append((scalar, len({ev % p for ev in ints}) < len(ints), p))
    if not hosts:
        raise ValueError("no supported prime can host the operator")
    return min(hosts)[2]


def cmd_witness(args) -> int:
    op = parse_operator(args.x, args.n)
    if op.blocks is None:
        raise ValueError("witness construction needs a Jordan operator")
    p = _pick_witness_prime(op, args.p)
    spec = op.jordan(p)
    a = certificates.witness_flag(spec, args.i, args.j)
    _, checks, memberships, _ = certificates.checked_witness(
        spec, args.i, args.j)
    _emit(args, json.dumps({
        "schema": SCHEMA, "command": "witness", "operator": op.name,
        "p": p, "pair": [args.i, args.j],
        "flag_columns": [_column_text(a, j) for j in range(1, args.n + 1)],
        "lemma_checks": list(checks),
        "memberships": memberships}, indent=2))
    return 0


def cmd_involution(args) -> int:
    op = parse_operator(args.x, args.n)
    shape = shapes.parse_shape(args.h, args.n)
    report = certificates.verify_involution(op, shape, args.p)
    _emit(args, json.dumps({
        "schema": SCHEMA, "command": "involution", "operator": op.name,
        "p": args.p, "shape": _shape_json(shape),
        "partner": _shape_json(report.partner),
        "count": report.count, "partner_count": report.partner_count,
        "intermediate_bijection": report.intermediate_bijection,
        "composed_bijection": report.composed_bijection,
        "verified": report.ok}, indent=2))
    return 0 if report.ok else 1


def cmd_decompose(args) -> int:
    shape = shapes.parse_shape(args.h, args.n)
    report = certificates.verify_decomposition(shape, args.p, args.j)
    h1, h2 = report.sub_shapes
    _emit(args, json.dumps({
        "schema": SCHEMA, "command": "decompose",
        "shape": _shape_json(shape), "p": args.p,
        "split_index": report.split_index,
        "factors": [_shape_json(h1), _shape_json(h2)],
        "count": report.count,
        "factor_counts": [report.count1, report.count2],
        "pairs_checked": report.pairs_checked,
        "verified": report.ok}, indent=2))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hessalg",
        description="Hessenberg varieties over prime fields: point sets, "
                    "posets, and theorem certificates.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--output", "-o", help="write output to a file")

    sp = sub.add_parser("shapes", help="census of Hessenberg shapes")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    add_common(sp)
    sp.set_defaults(func=cmd_shapes)

    sp = sub.add_parser("variety", help="point set of one Hessenberg variety")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--h", required=True)
    sp.add_argument("--p", required=True, help="comma-separated primes")
    sp.add_argument("--force", action="store_true",
                    help="override the n/p size guard")
    add_common(sp)
    sp.set_defaults(func=cmd_variety)

    sp = sub.add_parser("poset", help="the containment poset P_X")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--p", required=True, help="comma-separated primes")
    sp.add_argument("--strict", action="store_true")
    sp.add_argument("--format", choices=("json", "dot"), default="json")
    add_common(sp)
    sp.set_defaults(func=cmd_poset)

    sp = sub.add_parser("witness", help="separating witness flag for (i, j)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--i", type=int, required=True)
    sp.add_argument("--j", type=int, required=True)
    sp.add_argument("--p", type=int, default=None,
                    help="field for the membership table (default: smallest "
                         "supported prime at which X is not scalar and "
                         "distinct eigenvalues stay distinct)")
    add_common(sp)
    sp.set_defaults(func=cmd_witness)

    sp = sub.add_parser("involution", help="verify the antidiagonal involution")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--x", required=True)
    sp.add_argument("--h", required=True)
    sp.add_argument("--p", type=int, required=True)
    add_common(sp)
    sp.set_defaults(func=cmd_involution)

    sp = sub.add_parser("decompose",
                        help="verify the regular nilpotent product split")
    sp.add_argument("--n", type=int, default=None,
                    help="rank (inferred from an h: shape if omitted)")
    sp.add_argument("--h", required=True)
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--j", type=int, default=None, help="split index")
    add_common(sp)
    sp.set_defaults(func=cmd_decompose)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        error = str(exc)
        if error.startswith("size guard:"):
            # Name --force, which only `variety` has, for override.
            error, hint = error.rsplit("; ", 1)
            error += "; " + (hint.replace("override", "--force")
                             if args.command == "variety" else
                             "the %s subcommand cannot lift it" % args.command)
        print(json.dumps({"schema": SCHEMA, "error": error}), file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(json.dumps({"schema": SCHEMA, "failure": str(exc)}),
              file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader of stdout has gone, as with `| head`. Point stdout at
        # devnull so that the flush at exit does not fail again, and exit 1
        # as Python does on a broken pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
