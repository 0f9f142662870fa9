"""Spans around hessalg's public functions, recorded from the benchmark's side.

In a traced child, `install` wraps each function at a module boundary and
rebinds the wrapper under every name in hessalg's modules that held the
original, so calls made inside the package are traced too.
`Matrix.__mul__` and `Matrix.inverse` are wrapped on the class. A span is
(name, start, end, parent); spans stay in memory in flat arrays and `dump`
writes them out when the child ends. A generator such as `iter_flags` gets
one span per step, so its time is counted only while it runs.

Counts that are derived from arguments and results, not timed, go into
`counters`. The parent process reads the dumps back with `summarize`.
"""

from __future__ import annotations

import inspect
import json
import resource
import sys
from array import array
from time import perf_counter

# (module, attribute, span name)
FUNCTIONS = (
    ("hessalg.field", "span_of", "field.span_of"),
    ("hessalg.field", "similarity_transform", "field.similarity_transform"),
    ("hessalg.flags", "iter_flags", "flags.iter_flags"),
    ("hessalg.flags", "flag_text", "flags.flag_text"),
    ("hessalg.flags", "canonical_form", "flags.canonical_form"),
    ("hessalg.flags", "member", "flags.member"),
    ("hessalg.varieties", "variety_bitmaps", "varieties.variety_bitmaps"),
    ("hessalg.varieties", "build_poset", "varieties.build_poset"),
    ("hessalg.certificates", "verify_decomposition",
     "certificates.verify_decomposition"),
    ("hessalg.certificates", "product_flag", "certificates.product_flag"),
    ("hessalg.certificates", "split_flag", "certificates.split_flag"),
    ("hessalg.certificates", "verify_involution",
     "certificates.verify_involution"),
    ("hessalg.certificates", "certify_distinct",
     "certificates.certify_distinct"),
    ("hessalg.cli", "main", "cli.main"),
)
METHODS = (("__mul__", "field.matmul"), ("inverse", "field.inverse"))


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = array("I")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.counters = {}
        self._seen_contexts = set()

    def _id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name, before=None, after=None):
        nid = self._id(name)
        name_ids, parents, starts, ends, stack = (
            self.name_ids, self.parents, self.starts, self.ends, self.stack)

        def open_span():
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            return idx

        def close_span(idx):
            ends[idx] = perf_counter()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = open_span()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close_span(idx)
                    self.count(name + ".items")
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            idx = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(idx)
            if after:
                after(args, result, state)
            return result
        return wrapper

    # Counters derived from arguments and results.

    def _before_bitmaps(self, args):
        """Peak RSS before the first call on a field context, else None."""
        n, p = args[2:4]
        if (n, p) in self._seen_contexts:
            return None
        self._seen_contexts.add((n, p))
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def _after_bitmaps(self, args, result, rss_before):
        shapes = args[1]
        size = result[0].size
        self.count("varieties.variety_bitmaps.flags", size)
        self.count("varieties.variety_bitmaps.mask_tests", size * len(shapes))
        self.count("varieties.variety_bitmaps.points",
                   sum(fs.count for fs in result))
        if rss_before is not None:
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.count("varieties.first_call.rss_bytes",
                       (grown - rss_before) * 1024)
            self.count("varieties.first_call.flags", size)

    def _after_poset(self, args, result, state):
        self.count("varieties.build_poset.classes", len(result.classes))
        self.count("varieties.build_poset.hasse_edges", len(result.hasse))

    def _after_decomposition(self, args, result, state):
        self.count("certificates.verify_decomposition.pairs",
                   result.pairs_checked)

    def install(self):
        import hessalg.cli  # noqa: F401  (loads every module)
        from hessalg.field import Matrix
        modules = [m for name, m in sys.modules.items()
                   if name == "hessalg" or name.startswith("hessalg.")]
        hooks = {"varieties.variety_bitmaps":
                     (self._before_bitmaps, self._after_bitmaps),
                 "varieties.build_poset": (None, self._after_poset),
                 "certificates.verify_decomposition":
                     (None, self._after_decomposition)}
        for module, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[module], attr)
            wrapped = self.wrap(orig, name, *hooks.get(name, ()))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
        for attr, name in METHODS:
            setattr(Matrix, attr, self.wrap(getattr(Matrix, attr), name))

    def dump(self, path):
        with open(path + ".json", "w") as fh:
            json.dump({"names": self.names, "counters": self.counters,
                       "spans": len(self.starts)}, fh)
        with open(path + ".bin", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def summarize(paths):
    """Per span name: calls, inclusive seconds and self seconds (a span's
    duration minus its child spans), plus the summed counters, over the
    dumps at the given paths."""
    calls, total, child, counters = {}, {}, {}, {}
    for path in paths:
        with open(path + ".json") as fh:
            meta = json.load(fh)
        names, count = meta["names"], meta["spans"]
        for key, value in meta["counters"].items():
            counters[key] = counters.get(key, 0) + value
        arrays = [array("I"), array("i"), array("d"), array("d")]
        with open(path + ".bin", "rb") as fh:
            for arr in arrays:
                arr.fromfile(fh, count)
        name_ids, parents, starts, ends = arrays
        n = len(names)
        c, tot, ch = [0] * n, [0.0] * n, [0.0] * n
        for nid, parent, s, e in zip(name_ids, parents, starts, ends):
            d = e - s
            c[nid] += 1
            tot[nid] += d
            if parent >= 0:
                ch[name_ids[parent]] += d
        for i, name in enumerate(names):
            calls[name] = calls.get(name, 0) + c[i]
            total[name] = total.get(name, 0.0) + tot[i]
            child[name] = child.get(name, 0.0) + ch[i]
    self_s = {name: total[name] - child[name] for name in total}
    return calls, total, self_s, counters
