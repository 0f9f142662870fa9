"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single pass/fail line
(visible with `pytest -s` or in the captured output), and enforces its
runtime budget. Expected values come from small worked examples plus
exhaustive sweeps over the guarded parameter range.
"""

import contextlib
import itertools
import json
import time

import pytest

from hessalg.cli import main
from hessalg.field import jordan_matrix, jordan_spec, regular_nilpotent
from hessalg.flags import iter_flags, member, profile, q_factorial
from hessalg.shapes import (borel_shape, enumerate_shapes, peterson_shape,
                            shape_from_function, shape_text, split_points,
                            transpose_shape)
from hessalg.varieties import (build_poset, interpolate, jordan_operator,
                               point_counts, variety_bitmaps)
from hessalg.certificates import (certify_distinct, indecomposable_interval,
                                  verify_decomposition, verify_involution,
                                  witness_flag)


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True, scope="session")
def _grab_capture_manager(request):
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")


class Criterion:
    """Context manager that prints one pass/fail line with the elapsed time
    and asserts the runtime budget."""

    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None and elapsed < self.budget else "FAIL"
        line = "criterion %2d %-28s %s (%.2fs, budget %ds)" % (
            self.number, self.label, status, elapsed, self.budget)
        # Bypass capture so the line shows up once in any pytest run.
        uncaptured = (_CAPTURE_MANAGER.global_and_fixture_disabled()
                      if _CAPTURE_MANAGER else contextlib.nullcontext())
        with uncaptured:
            print(line, flush=True)
        if exc_type is None:
            assert elapsed < self.budget, "runtime budget exceeded"
        return False


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def all_jordan_specs(n, p):
    """Every Jordan similarity class of an n x n matrix over F_p."""

    def partitions(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for size in range(min(remaining, cap), 0, -1):
            for rest in partitions(remaining - size, size):
                yield (size,) + rest

    seen = set()
    for sizes in partitions(n, n):
        for evs in itertools.product(range(p), repeat=len(sizes)):
            seen.add(jordan_spec(list(zip(evs, sizes)), p))
    return sorted(seen, key=lambda sp: sp.blocks)


def test_criterion_01_shape_census(capsys):
    with Criterion(1, "shape census", 1):
        code, out = run_cli(capsys, "shapes", "--n", "3", "--strict")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines == [
            "h:1,2,3  yd:2,1  mask=***/0**/00*  M_H={}",
            "h:1,3,3  yd:1,1  mask=***/0**/0**  M_H={-a2}",
            "h:2,2,3  yd:2  mask=***/***/00*  M_H={-a1}",
            "h:2,3,3  yd:1  mask=***/***/0**  M_H={-a1,-a2}",
            "h:3,3,3  yd:  mask=***/***/***  M_H={-a1,-a1-a2,-a2}",
        ]
        assert len(enumerate_shapes(4, strict_only=True)) == 14


def test_criterion_02_projection_poset():
    with Criterion(2, "rank-2 projection poset", 1):
        op = jordan_operator([(1, 1), (0, 1)])
        poset = build_poset(op, (2, 3, 5))
        assert len(poset.classes) == 5
        by_name = {c.name: c for c in poset.classes}
        # The two smallest shapes share the empty variety.
        empty = by_name["yd:2,2"]
        assert sorted(s.t for s in empty.shapes) == [(0, 0), (0, 1)]
        assert all(b.count == 0 for b in empty.bitmaps)
        # Point sets: {s_1 B}, {eB}, {eB, s_1 B}; identical class structure
        # at each prime separately.
        assert by_name["yd:1,1"].bitmaps[0].indices() == [1]   # s_1 B
        assert by_name["yd:2"].bitmaps[0].indices() == [0]     # eB
        assert by_name["yd:1"].bitmaps[0].indices() == [0, 1]  # both
        partitions = []
        for p in (2, 3, 5):
            single = build_poset(op, (p,))
            partitions.append(sorted(tuple(s.t for s in c.shapes)
                                     for c in single.classes))
        assert partitions[0] == partitions[1] == partitions[2]


def test_criterion_03_nilpotent_poset():
    with Criterion(3, "rank-2 nilpotent poset", 1):
        op = jordan_operator([(0, 2)])
        poset = build_poset(op, (2, 3, 5))
        assert len(poset.classes) == 3
        by_name = {c.name: c for c in poset.classes}
        middle = by_name["yd:2,1"]
        assert sorted(s.t for s in middle.shapes) == \
            [(0, 1), (0, 2), (1, 1), (1, 2)]
        assert middle.bitmaps[0].indices() == [0]  # eB only
        assert set(poset.hasse) == {("yd:2,2", "yd:2,1"), ("yd:2,1", "yd:")}


def test_criterion_04_equivalence_example():
    with Criterion(4, "diag(1,1,0,0) equivalence", 5):
        op = jordan_operator([(1, 1), (1, 1), (0, 1), (0, 1)])
        s1 = shape_from_function([0, 1, 4, 4])
        s2 = shape_from_function([0, 0, 4, 4])
        for p, expected_flags in ((2, 315), (3, 2080)):
            assert q_factorial(4, p) == expected_flags
            b1, b2 = variety_bitmaps(op.matrix(p), [s1, s2], 4, p)
            assert b1.size == expected_flags
            assert b1.bits == b2.bits


def test_criterion_05_strict_distinctness():
    with Criterion(5, "strict distinctness sweep", 120):
        for n in (3, 4):
            strict = enumerate_shapes(n, strict_only=True)
            for p in (2, 3):
                for spec in all_jordan_specs(n, p):
                    if spec.is_scalar():
                        continue
                    x = jordan_matrix(spec)
                    maps = variety_bitmaps(x, strict, n, p)
                    assert len({b.bits for b in maps}) == len(strict), \
                        "collision for %r at p=%d" % (spec.blocks, p)


def test_criterion_06_witness_engine():
    with Criterion(6, "witness engine sweep", 120):
        # The worked 6x6 three-block example, column for column.
        spec6 = jordan_spec([(4, 3), (3, 2), (2, 1)], 5)
        a24 = witness_flag(spec6, 2, 4)
        assert [a24.column(j) for j in range(1, 7)] == [
            tuple(1 if k == t else 0 for k in range(6))
            for t in (3, 1, 4, 0, 5, 2)]
        a56 = witness_flag(spec6, 5, 6)
        assert [a56.column(j) for j in range(1, 7)] == [
            tuple(1 if k == t else 0 for k in range(6))
            for t in (3, 4, 5, 0, 2, 1)]
        for n in (3, 4):
            strict = enumerate_shapes(n, strict_only=True)
            pairs = [(s1, s2) for s1 in strict for s2 in strict if s1.t < s2.t]
            for p in (2, 3):
                for spec in all_jordan_specs(n, p):
                    if spec.is_scalar():
                        continue
                    for s1, s2 in pairs:
                        cert = certify_distinct(spec, s1, s2)
                        assert cert.checks == (True, True, True)
                        assert cert.in_first != cert.in_second
                        i, j = cert.pair
                        for s in strict:
                            assert cert.memberships[shape_text(s)] == \
                                (s.t[i - 1] >= j)


def test_criterion_07_involution():
    with Criterion(7, "antidiagonal involution", 30):
        shapes = enumerate_shapes(3)
        assert len(shapes) == 20
        ops = (jordan_operator([(0, 3)]),
               jordan_operator([(1, 1), (0, 1), (0, 1)]),
               jordan_operator([(1, 1), (1, 1), (0, 1)]))
        for op in ops:
            for p in (2, 3):
                for s in shapes:
                    report = verify_involution(op, s, p)
                    assert report.ok
                    assert report.count == report.partner_count
                    assert report.partner == transpose_shape(s)


def test_criterion_08_decomposition():
    with Criterion(8, "product decomposition", 60):
        report = verify_decomposition(shape_from_function([3, 3, 3, 5, 5]), 2)
        assert (report.count, report.count1, report.count2) == (63, 21, 3)
        assert report.ok
        for n in (4, 5):
            for s in enumerate_shapes(n, strict_only=True):
                for j in split_points(s):
                    r = verify_decomposition(s, 2, j=j)
                    assert r.ok
                    assert r.count == r.count1 * r.count2
        for n in (2, 3, 4, 5):
            interval = indecomposable_interval(n)
            assert interval.ok
            assert not split_points(peterson_shape(n))
            assert peterson_shape(n) in interval.indecomposable


def test_criterion_09_peterson_counts():
    with Criterion(9, "Peterson point counts", 1):
        op = jordan_operator([(0, 3)])
        primes = (2, 3, 5)
        counts = point_counts(op, peterson_shape(3), primes)
        assert counts == [9, 16, 36]
        assert interpolate(primes, counts, 3) == [1, 2, 1]


def test_criterion_10_infrastructure(capsys):
    with Criterion(10, "infrastructure properties", 120):
        for n in range(1, 6):
            for p in (2, 3):
                assert sum(1 for _ in iter_flags(n, p)) == q_factorial(n, p)
        for n in (2, 3):
            for p in (2, 3):
                ops = [regular_nilpotent(n, p),
                       jordan_matrix(jordan_spec(
                           [(1, 1), (0, n - 1)] if n > 1 else [(0, 1)], p))]
                shapes = enumerate_shapes(n)
                for f in iter_flags(n, p):
                    for x in ops:
                        for s in shapes:
                            assert member(x, s, f) == all(
                                m <= t for m, t in zip(profile(x, f), s.t))
        # Byte stability across repeated runs.
        outputs = []
        for _ in range(2):
            code, out = run_cli(capsys, "poset", "--n", "3", "--x",
                                "jordan:1^1,0^2", "--p", "2,3")
            assert code == 0
            outputs.append(out)
        assert len(set(outputs)) == 1
        code, rerun = run_cli(capsys, "variety", "--n", "3", "--x",
                              "jordan:0^3", "--h", "h:2,3,3", "--p", "2,3,5")
        code2, rerun2 = run_cli(capsys, "variety", "--n", "3", "--x",
                                "jordan:0^3", "--h", "h:2,3,3", "--p", "2,3,5")
        assert code == code2 == 0 and rerun == rerun2
        assert json.loads(rerun)["fit"] == "q^2+2q+1"
