"""Child process of the benchmark: one hessalg operation list, run cold.

    python3 perfbench/runner.py setup  TRACE -- <hessalg CLI arguments>
    python3 perfbench/runner.py cli    TRACE -- <hessalg CLI arguments>
    python3 perfbench/runner.py certify TRACE PLAN RESULTS

`setup` imports hessalg, parses the arguments and exits: what a user pays
before any computation starts. `cli` calls `hessalg.cli.main` as the
`hessalg` entry point does. `certify` makes the certificate calls listed
in PLAN in one library session and writes one JSON record per call to
RESULTS. TRACE is '-' for an untraced run, or the path prefix where the
spans are dumped at exit.

hessalg is imported from the `src` directory next to this one.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _shape(t):
    from hessalg import shape_from_function
    return shape_from_function(t)


def _operator(op):
    from hessalg import jordan_operator, matrix_operator
    if op["blocks"] is not None:
        return jordan_operator([tuple(b) for b in op["blocks"]],
                               name=op["text"])
    return matrix_operator(op["rows"], name=op["text"])


def _certify_call(call):
    """Run one certificate call; return its report as plain JSON data."""
    from hessalg import (certify_distinct, jordan_spec, verify_decomposition,
                         verify_involution)
    kind = call["kind"]
    if kind == "decomposition":
        r = verify_decomposition(_shape(call["t"]), call["p"], j=call["j"])
        return {"split_index": r.split_index,
                "sub_shapes": [list(s.t) for s in r.sub_shapes],
                "count": r.count, "count1": r.count1, "count2": r.count2,
                "pairs_checked": r.pairs_checked, "ok": r.ok}
    if kind == "involution":
        r = verify_involution(_operator(call["op"]), _shape(call["t"]),
                              call["p"])
        return {"partner": list(r.partner.t), "count": r.count,
                "partner_count": r.partner_count,
                "intermediate_bijection": r.intermediate_bijection,
                "composed_bijection": r.composed_bijection, "ok": r.ok}
    if kind == "distinct":
        spec = jordan_spec([tuple(b) for b in call["blocks"]], call["p"])
        r = certify_distinct(spec, _shape(call["t1"]), _shape(call["t2"]))
        return {"pair": list(r.pair), "checks": list(r.checks),
                "memberships": r.memberships, "in_first": r.in_first,
                "in_second": r.in_second,
                "flag_rows": [list(row) for row in r.flag.rep.rows]}
    raise ValueError("unknown certificate call %r" % kind)


def main(argv):
    mode, trace = argv[0], argv[1]
    rest = argv[3:] if len(argv) > 2 and argv[2] == "--" else argv[2:]
    import hessalg
    src = os.path.join(ROOT, "src", "hessalg")
    if os.path.dirname(os.path.abspath(hessalg.__file__)) != src:
        print("hessalg was not imported from %s" % src, file=sys.stderr)
        return 3
    tracer = None
    if trace != "-":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        if mode == "setup":
            import hessalg.cli
            hessalg.cli.build_parser().parse_args(rest)
            return 0
        if mode == "cli":
            import hessalg.cli
            return hessalg.cli.main(rest)
        if mode == "certify":
            plan_path, results_path = rest
            with open(plan_path) as fh:
                calls = json.load(fh)
            records = []
            for call in calls:
                t0 = time.perf_counter()
                try:
                    report = _certify_call(call)
                    error = None
                except (ValueError, RuntimeError) as exc:
                    report, error = None, "%s: %s" % (type(exc).__name__, exc)
                records.append({"seconds": time.perf_counter() - t0,
                                "report": report, "error": error})
            with open(results_path, "w") as fh:
                json.dump(records, fh)
            return 0
        print("unknown mode %r" % mode, file=sys.stderr)
        return 3
    finally:
        if tracer is not None:
            tracer.dump(trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
