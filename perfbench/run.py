"""Benchmark of hessalg: cold CLI queries and a warm certificate sweep.

    python3 perfbench/run.py --workload variety --seed 1 --seconds 15 --trace 0

Run from the root of a source tree; hessalg is imported from ./src and
nothing is installed. This process starts one single-threaded child
at a time. A run starts whole rounds of the workload's fixed operation
list until --seconds have passed, checks every output
against the oracles in oracles.py, and prints a summary, then one JSON line
with `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json. With
--trace 1 the rounds are traced and the run reports the per-layer
metrics; each child then runs twice, untraced and traced, and the ratio
of the two times gives the tracing overhead.
Outputs, logs and span dumps of the last run of each workload stay in
perfbench/out/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUNNER = os.path.join(HERE, "runner.py")
WORKLOADS = ("variety", "poset", "certify")
SETUP_SAMPLES = 11
DEADLINE_S = 170  # a hung run is stopped before three minutes


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline("run exceeded %d s" % DEADLINE_S)


def spawn(args, log_path):
    """Run `python3 runner.py ARGS` to completion, with stdout and stderr
    in log_path. Returns (seconds, exit code, peak RSS in KB, CPU seconds)."""
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, RUNNER, *args], os.environ,
            file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                          (os.POSIX_SPAWN_DUP2, fd, 2)])
    finally:
        os.close(fd)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return (time.perf_counter() - t0, os.waitstatus_to_exitcode(status),
            usage.ru_maxrss, usage.ru_utime + usage.ru_stime)


class Workload:
    """One workload's operation list, rounds, checks and metrics."""

    def __init__(self, name, seed, outdir):
        self.name, self.seed, self.outdir = name, seed, outdir
        self.rss_kb = []  # peak RSS of every program process
        if name == "certify":
            self.ops = workloads.certify_calls(seed)
            self.plan = os.path.join(outdir, "plan.json")
            with open(self.plan, "w") as fh:
                json.dump(self.ops, fh)
            first = self.ops[0]
            self.setup_argv = ["decompose", "--h", "h:" + ",".join(
                map(str, first["t"])), "--p", str(first["p"]),
                "--j", str(first["j"])]
        else:
            self.ops = getattr(workloads, name + "_ops")(seed)
            self.setup_argv = self.ops[0]["argv"]

    def path(self, *parts):
        return os.path.join(self.outdir, "-".join(parts))

    def setup_times(self, tag, samples):
        times = []
        for i in range(samples):
            log = self.path(tag, "setup%d.log" % i)
            seconds, rc, rss, _ = spawn(
                ["setup", "-", "--", *self.setup_argv], log)
            if rc != 0:
                raise RuntimeError("set-up child exited %d; see %s"
                                   % (rc, log))
            times.append(seconds)
            self.rss_kb.append(rss)
        return times

    def round(self, tag, traced):
        """One pass over the operation list. Returns a dict with the wall
        time from the first launch to the last result and per-op records.
        A traced round runs each child twice, untraced and then traced, and
        its `ref` is the untraced time: close in time, so the tracing
        overhead does not take in the machine's drift."""
        if self.name == "certify":
            results = self.path(tag, "results.json")
            ref = None
            if traced:
                ref = spawn(["certify", "-", self.plan,
                             self.path(tag, "ref-results.json")],
                            self.path(tag, "ref.log"))[0]
            trace = self.path(tag, "trace") if traced else "-"
            seconds, rc, rss, cpu = spawn(
                ["certify", trace, self.plan, results], self.path(tag, "log"))
            self.rss_kb.append(rss)
            return {"wall": seconds, "cpu": cpu, "ref": ref, "rc": rc,
                    "results": results, "traces": [trace] if traced else []}
        ops = []
        ref = cpu = 0.0
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            out = self.path(tag, "op%d.out" % i)
            if traced:
                ref += spawn(["cli", "-", "--", *op["argv"], "--output",
                              self.path(tag, "op%d.ref.out" % i)],
                             self.path(tag, "op%d.ref.log" % i))[0]
            trace = self.path(tag, "op%d.trace" % i) if traced else "-"
            seconds, rc, rss, op_cpu = spawn(
                ["cli", trace, "--", *op["argv"], "--output", out],
                self.path(tag, "op%d.log" % i))
            self.rss_kb.append(rss)
            cpu += op_cpu
            ops.append({"seconds": seconds, "rc": rc, "out": out,
                        "trace": trace})
        if traced:
            wall = sum(o["seconds"] for o in ops)
        else:
            wall = time.perf_counter() - start
        return {"wall": wall, "cpu": cpu, "ref": ref if traced else None,
                "ops": ops,
                "traces": [o["trace"] for o in ops] if traced else []}

    def rounds(self, seconds, traced):
        """Whole rounds, started until `seconds` have passed."""
        done = []
        start = time.perf_counter()
        while not done or time.perf_counter() - start < seconds:
            done.append(self.round("r%d" % len(done), traced))
        return done

    def op_seconds(self, rnd):
        if self.name != "certify":
            return [o["seconds"] for o in rnd["ops"]]
        return [rec["seconds"] for rec in self._records(rnd) or []]

    def _records(self, rnd):
        if rnd["rc"] != 0 or not os.path.exists(rnd["results"]):
            return None
        with open(rnd["results"]) as fh:
            return json.load(fh)

    def check(self, rounds):
        """(attempted, failed, errors) over all rounds, plus the self-test
        on the first round's outputs that passed."""
        attempted = failed = 0
        errors = []
        rng = random.Random(self.seed)
        passed = []
        for index, rnd in enumerate(rounds):
            items = []
            if self.name == "certify":
                records = self._records(rnd)
                if records is None or len(records) != len(self.ops):
                    attempted += len(self.ops)
                    failed += len(self.ops)
                    continue
                for call, rec in zip(self.ops, records):
                    attempted += 1
                    if rec["error"] is not None:
                        failed += 1
                        continue
                    errs = checks.check_certificate(call, rec["report"])
                    errors += errs
                    if not errs:
                        items.append((call, rec["report"]))
            else:
                items = self._check_cli(rnd, rng, errors)
                attempted += len(self.ops)
                failed += sum(1 for o in rnd["ops"] if o["rc"] != 0)
            if index == 0:
                passed = items
        missed = []
        if passed:
            if self.name == "variety":
                missed = checks.self_test_variety(passed, rng)
            elif self.name == "poset":
                missed = checks.self_test_poset(
                    [item for item in passed if item[0]["format"] == "json"])
            else:
                missed = checks.self_test_certify(passed)
        errors += ["self-test: a check accepted: " + m for m in missed]
        return attempted, failed, errors

    def _check_cli(self, rnd, rng, errors):
        """Check one round of CLI outputs; return the items that passed."""
        passed = []
        seen = {}  # op index -> counts or structure, for the conjugates
        for i, (op, rec) in enumerate(zip(self.ops, rnd["ops"])):
            if rec["rc"] != 0:
                continue
            where = "%s op %d (%s)" % (self.name, i, " ".join(op["argv"]))
            ref = None
            try:
                with open(rec["out"]) as fh:
                    text = fh.read()
                if self.name == "variety":
                    doc = json.loads(text)
                    errs, seen[i] = checks.check_variety(op, doc, rng)
                    item = (op, doc)
                    ref = op.get("same_counts_as")
                else:
                    if op["format"] == "dot":
                        classes, hasse = checks.poset_from_dot(text)
                        primes = op["primes"][:1]
                    else:
                        classes, hasse = checks.poset_from_json(
                            json.loads(text))
                        primes = op["primes"]
                    errs = checks.check_poset(op, classes, hasse, primes,
                                              complete=op["format"] == "json")
                    seen[i] = checks.structure(classes, hasse)
                    item = (op, classes, hasse)
                    ref = op.get("same_structure_as")
            except (OSError, ValueError, KeyError, TypeError) as exc:
                errs = ["unreadable output: %s: %s" % (type(exc).__name__, exc)]
            if not errs and ref is not None and ref in seen \
                    and seen[ref] != seen[i]:
                errs = ["differs from its Jordan form, op %d" % ref]
            errors += [where + ": " + e for e in errs]
            if not errs:
                passed.append(item)
        return passed


def layer_metrics(rounds, overhead_pct):
    """Per-layer figures per round from the span dumps of traced rounds."""
    calls, total, self_s, counters = tracing.summarize(
        [t for r in rounds for t in r["traces"]])
    k = len(rounds)
    m = {}
    for name in ("field.matmul", "field.inverse", "flags.flag_text",
                 "varieties.variety_bitmaps", "flags.canonical_form",
                 "certificates.product_flag", "certificates.split_flag",
                 "flags.member", "field.span_of",
                 "certificates.certify_distinct"):
        m[name + ".calls"] = calls.get(name, 0) / k
    for name in ("field.matmul", "field.inverse", "flags.iter_flags",
                 "flags.flag_text", "cli.main", "varieties.variety_bitmaps",
                 "varieties.build_poset", "flags.canonical_form",
                 "certificates.verify_decomposition",
                 "certificates.verify_involution",
                 "field.similarity_transform", "flags.member",
                 "field.span_of", "certificates.certify_distinct"):
        m[name + ".self_s"] = self_s.get(name, 0.0) / k
    c = counters.get
    m["flags.iter_flags.flags"] = c("flags.iter_flags.items", 0) / k
    m["cli.output_bytes"] = sum(
        os.path.getsize(o["out"]) for r in rounds for o in r.get("ops", ())
        if os.path.exists(o["out"])) / k
    grown, first = (c("varieties.first_call.rss_bytes", 0),
                    c("varieties.first_call.flags", 0))
    m["varieties.bytes_per_flag"] = grown / first if first else 0.0
    tests = c("varieties.variety_bitmaps.mask_tests", 0)
    busy = total.get("varieties.variety_bitmaps", 0.0)
    m["varieties.variety_bitmaps.mask_tests"] = tests / k
    m["varieties.variety_bitmaps.flags_per_s"] = (
        c("varieties.variety_bitmaps.flags", 0) / busy if busy else 0.0)
    m["varieties.variety_bitmaps.point_ratio"] = (
        c("varieties.variety_bitmaps.points", 0) / tests if tests else 0.0)
    for key in ("varieties.build_poset.classes",
                "varieties.build_poset.hasse_edges",
                "certificates.verify_decomposition.pairs"):
        m[key] = c(key, 0) / k
    m["trace.overhead_pct"] = overhead_pct
    return m


def run_workload(name, seed, seconds, trace, spec):
    outdir = os.path.join(HERE, "out", name)
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    w = Workload(name, seed, outdir)
    # Half the set-up samples before the rounds and half after, so that
    # their median spans the same stretch of time as the rounds.
    setup = w.setup_times("before", SETUP_SAMPLES // 2 + 1)
    rounds = w.rounds(seconds, traced=trace)
    setup += w.setup_times("after", SETUP_SAMPLES // 2)
    attempted, failed, errors = w.check(rounds)
    for e in errors[:20]:
        print("CHECK FAILED: " + e, file=sys.stderr)
    if trace:
        overhead = 100.0 * (sum(r["wall"] for r in rounds)
                            / sum(r["ref"] for r in rounds) - 1.0)
        values = layer_metrics(rounds, overhead)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(r["wall"] for r in rounds),
            "cpu_s": statistics.median(r["cpu"] for r in rounds),
            "op_p50_s": statistics.median(
                s for r in rounds for s in w.op_seconds(r)),
            "peak_rss_mb": max(w.rss_kb) / 1024.0,
            "setup_s": statistics.median(setup),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print("workload %s, seed %d: %d round(s)%s, %d operations attempted, "
          "%d failed, %d check errors"
          % (name, seed, len(rounds), " traced" if trace else "", attempted,
             failed, len(errors)))
    for key, m in metrics.items():
        print("  %-44s %14.6g %s" % (key, m["value"], m["unit"]))
    return {"correct": not errors, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = os.path.join(ROOT, "src", "hessalg", "__init__.py")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    for need in (src, spec_path):
        if not os.path.isfile(need):
            print("missing %s: run from the root of a hessalg source tree"
                  % need, file=sys.stderr)
            return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    signal.signal(signal.SIGALRM, _on_alarm)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        signal.alarm(DEADLINE_S)
        try:
            result = run_workload(name, args.seed, args.seconds,
                                  bool(args.trace), spec)
        except (Deadline, RuntimeError) as exc:
            print("run aborted: %s" % exc, file=sys.stderr)
            return 1
        finally:
            signal.alarm(0)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
