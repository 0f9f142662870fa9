import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from hessalg import certificates, varieties
from hessalg.cli import main, parse_operator, parse_primes
from hessalg.flags import flag_at, flag_text
from hessalg.shapes import diagram_text, parse_shape, shape_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["schema"] == "hessalg/1"
    return doc


# --- argument parsing ------------------------------------------------------------

def test_parse_operator_jordan():
    op = parse_operator("jordan:1^1,0^2", 3)
    assert op.blocks == ((1, 1), (0, 2))
    op = parse_operator("jordan:a^2,b^1", 3)
    assert op.blocks == (("a", 2), ("b", 1))


def test_parse_operator_matrix():
    op = parse_operator("matrix:1,0;0,0", 2)
    assert op.entries == ((1, 0), (0, 0))


def test_parse_operator_errors():
    with pytest.raises(ValueError):
        parse_operator("jordan:1^1", 3)  # sizes must sum to n
    with pytest.raises(ValueError):
        parse_operator("matrix:1,0;0,0", 3)
    with pytest.raises(ValueError):
        parse_operator("diag:1,0", 2)
    with pytest.raises(ValueError):
        parse_operator("jordan:x2^1,0^1", 2)


def test_parse_primes():
    assert parse_primes("2,3,5") == (2, 3, 5)
    with pytest.raises(ValueError, match="distinct"):
        parse_primes("3,3")
    with pytest.raises(ValueError, match="empty field"):
        parse_primes("2,")
    with pytest.raises(ValueError) as err:
        parse_primes("2,x")
    assert str(err.value) == ("--p has a non-integer field 'x' in '2,x'; "
                              "give primes separated by commas")


@pytest.mark.parametrize("argv", [
    ["variety", "--n", "2", "--x", "jordan:0^2", "--h", "h:2,2",
     "--p", "3,3"],
    ["poset", "--n", "2", "--x", "jordan:0^2", "--p", "2,2"]])
def test_repeated_primes_are_a_usage_error(capsys, monkeypatch, argv):
    # Refused before any search runs.
    def no_search(*args, **kwargs):
        raise AssertionError("search ran")

    monkeypatch.setattr("hessalg.varieties._hull_groups", no_search)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "primes must be distinct"


@pytest.mark.parametrize("command", [
    ["variety", "--n", "2", "--x", "jordan:0^2", "--h", "h:2,2"],
    ["poset", "--n", "2", "--x", "jordan:0^2"]])
@pytest.mark.parametrize("text", ["2,", ","])
def test_an_empty_prime_field_is_a_usage_error(capsys, command, text):
    code, out, err = run_cli(capsys, *command, "--p", text)
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == (
        "--p has an empty field in %r; give primes separated by commas"
        % text)


@pytest.mark.parametrize("text, field", [
    ("h:1,x", "a non-integer field 'x'"), ("h:1,,2", "an empty field"),
    ("yd:2,x", "a non-integer field 'x'"), ("yd:1,", "an empty field")])
def test_a_bad_shape_field_is_a_usage_error(capsys, text, field):
    code, out, err = run_cli(capsys, "variety", "--n", "2", "--x",
                             "jordan:0^2", "--h", text, "--p", "2")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (
        "the shape has %s in %r; give integers separated by commas"
        % (field, text))


@pytest.mark.parametrize("text, field", [
    ("matrix:1,x;0,0", "a non-integer field 'x'"),
    ("matrix:1,;0,0", "an empty field")])
def test_a_bad_matrix_field_is_a_usage_error(capsys, text, field):
    code, out, err = run_cli(capsys, "variety", "--n", "2", "--x", text,
                             "--h", "h:2,2", "--p", "2")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (
        "--x has %s in %r; give integers separated by commas"
        % (field, text))


@pytest.mark.parametrize("n", [-1, 0])
def test_a_rank_below_one_is_a_usage_error(capsys, n):
    code, out, err = run_cli(capsys, "shapes", "--n", str(n))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "--n %d: rank must be positive" % n


@pytest.mark.parametrize("p", ["-3", "0", "1", "4"])
@pytest.mark.parametrize("command", [
    ["witness", "--n", "3", "--x", "jordan:0^3", "--i", "1", "--j", "3"],
    ["witness", "--n", "2", "--x", "jordan:a^1,0^1", "--i", "1", "--j", "2"],
    ["involution", "--n", "3", "--x", "jordan:0^3", "--h", "h:2,3,3"],
    ["variety", "--n", "3", "--x", "jordan:0^3", "--h", "h:2,3,3",
     "--force"],
    ["variety", "--n", "2", "--x", "matrix:1,2;3,4", "--h", "h:2,2",
     "--force"],
    ["involution", "--n", "2", "--x", "matrix:1,2;3,4", "--h", "h:1,2"]])
def test_a_modulus_that_is_not_prime_is_a_usage_error(capsys, command, p):
    code, out, err = run_cli(capsys, *command, "--p", p)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert json.loads(line) == {"schema": "hessalg/1",
                                "error": "modulus %s is not prime" % p}


# --- shapes ------------------------------------------------------------------------

def test_shapes_strict_census_text(capsys):
    code, out, err = run_cli(capsys, "shapes", "--n", "3", "--strict")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("h:1,2,3  yd:2,1  mask=***/0**/00*")
    assert "M_H={}" in lines[0]
    assert "M_H={-a1,-a2}" in lines[3]  # h:2,3,3
    assert "M_H={-a1,-a1-a2,-a2}" in lines[4]  # full space


def test_shapes_json(capsys):
    doc = run_json(capsys, "shapes", "--n", "2", "--format", "json")
    assert len(doc["shapes"]) == 6
    strict = [s for s in doc["shapes"] if s["strict"]]
    assert [s["h"] for s in strict] == ["h:1,2", "h:2,2"]


# --- variety -------------------------------------------------------------------------

def test_variety_projection_points(capsys):
    doc = run_json(capsys, "variety", "--n", "2", "--x", "jordan:1^1,0^1",
                   "--h", "h:1,2", "--p", "2,3,5")
    assert [r["count"] for r in doc["results"]] == [2, 2, 2]
    assert doc["results"][0]["points"] == ["[e1,e2]", "[e2,e1]"]
    assert doc["fit"] == "2"


def test_variety_peterson_fit(capsys):
    doc = run_json(capsys, "variety", "--n", "3", "--x", "jordan:0^3",
                   "--h", "h:2,3,3", "--p", "2,3,5")
    assert [r["count"] for r in doc["results"]] == [9, 16, 36]
    assert doc["fit"] == "q^2+2q+1"


def _reference_variety(n, x, h, primes, force=False):
    """The variety document built whole, with every point labelled through
    its Flag."""
    op, shape = parse_operator(x, n), parse_shape(h, n)
    results = []
    for p in primes:
        points = varieties.compute_variety(op, shape, p, override=force).points
        results.append({"p": p, "count": points.count,
                        "points": [flag_text(flag_at(i, n, p))
                                   for i in points.indices()]})
    fit = None
    if len(primes) >= 2:
        coeffs = varieties.interpolate(
            primes, [r["count"] for r in results], n * (n - 1) // 2)
        fit = varieties.poly_text(coeffs) if coeffs is not None else None
    return json.dumps({"schema": "hessalg/1", "command": "variety",
                       "operator": x, "n": n,
                       "shape": {"h": shape_text(shape),
                                 "yd": diagram_text(shape)},
                       "results": results, "fit": fit}, indent=2) + "\n"


FULL_5_2 = ["variety", "--n", "5", "--x", "jordan:0^5",
            "--h", "h:5,5,5,5,5", "--p", "2"]  # 9,765 points


@pytest.mark.parametrize("argv", [
    FULL_5_2,
    # x^2 + 1: no point at p = 3, two at p = 5.
    ["variety", "--n", "2", "--x", "matrix:0,1;-1,0", "--h", "h:1,2",
     "--p", "3,5"],
    ["variety", "--n", "3", "--x", "jordan:0^3", "--h", "h:2,3,3",
     "--p", "2,3,5"],
    ["variety", "--n", "2", "--x", "jordan:0^2", "--h", "h:2,2",
     "--p", "11", "--force"]])
def test_variety_streams_the_same_bytes(capsys, tmp_path, argv):
    n, x, h = int(argv[2]), argv[4], argv[6]
    primes = parse_primes(argv[8])
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == _reference_variety(n, x, h, primes, "--force" in argv)
    target = tmp_path / "variety.json"
    code, stdout, err = run_cli(capsys, *argv, "--output", str(target))
    assert (code, stdout, err) == (0, "", "")
    assert target.read_bytes() == out.encode()


def test_variety_writes_nothing_before_every_search_succeeds(capsys,
                                                             tmp_path):
    target = tmp_path / "variety.json"
    code, out, err = run_cli(capsys, "variety", "--n", "2",
                             "--x", "jordan:0^2", "--h", "h:2,2",
                             "--p", "2,11", "--output", str(target))
    assert (code, out) == (2, "")
    assert "size guard" in json.loads(err)["error"]
    assert not target.exists()


def test_variety_memory_does_not_grow_with_the_points(tmp_path):
    # Holding the 9,765 labels and the whole text peaked at 2.9 MiB.
    tracemalloc.start()
    try:
        code = main(FULL_5_2 + ["--output", str(tmp_path / "variety.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 ** 20


def test_variety_accepts_diagram_shape(capsys):
    doc = run_json(capsys, "variety", "--n", "3", "--x", "jordan:0^3",
                   "--h", "yd:1", "--p", "2")
    assert doc["shape"]["h"] == "h:2,3,3"


# --- poset ----------------------------------------------------------------------------

def test_poset_projection_json(capsys):
    doc = run_json(capsys, "poset", "--n", "2", "--x", "jordan:1^1,0^1",
                   "--p", "2,3,5")
    assert len(doc["classes"]) == 5
    by_name = {c["name"]: c for c in doc["classes"]}
    assert sorted(by_name["yd:2,2"]["shapes"]) == ["h:0,0", "h:0,1"]
    assert by_name["yd:"]["counts"] == [3, 4, 6]
    assert ["yd:2,2", "yd:1,1"] in doc["hasse"]


def test_poset_dot_output(capsys):
    code, out, err = run_cli(capsys, "poset", "--n", "2", "--x", "jordan:0^2",
                             "--p", "2", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph P_X {")
    assert '"yd:2,2" [label="∅-variety"];' in out
    assert '"yd:2,1" -> "yd:";' in out
    assert 'label="λ=2,1 | h=0,1 | 1"' in out


def test_poset_dot_labels_a_class_empty_at_one_prime(capsys):
    # x^2 + 1 has no root mod 3 but two mod 5: yd:1 is empty only at p = 3.
    code, out, err = run_cli(capsys, "poset", "--n", "2",
                             "--x", "matrix:0,1;-1,0", "--p", "3,5",
                             "--format", "dot")
    assert code == 0
    assert '"yd:2,2" [label="∅-variety"];' in out
    assert '"yd:1" [label="λ=1 | h=1,2 | 0"];' in out
    assert '"yd:" [label="λ=∅ | h=2,2 | 4"];' in out


def test_poset_strict_only(capsys):
    doc = run_json(capsys, "poset", "--n", "3", "--x", "jordan:0^3",
                   "--p", "2", "--strict")
    assert len(doc["classes"]) == 5
    assert doc["strict_only"] is True


# --- witness -------------------------------------------------------------------------

def test_witness_reproduces_three_block_example(capsys):
    doc = run_json(capsys, "witness", "--n", "6", "--x",
                   "jordan:a^3,b^2,c^1", "--i", "2", "--j", "4")
    assert doc["p"] == 3  # smallest supported prime with 3 distinct symbols
    assert doc["flag_columns"] == ["e4", "e2", "e5", "e1", "e6", "e3"]
    assert doc["lemma_checks"] == [True, True, True]


def test_witness_membership_table(capsys):
    doc = run_json(capsys, "witness", "--n", "3", "--x", "jordan:0^3",
                   "--i", "1", "--j", "2")
    assert doc["p"] == 2
    for h, hit in doc["memberships"].items():
        t1 = int(h.split(":")[1].split(",")[0])
        assert hit == (t1 >= 2)


def test_witness_diagonalizable_column(capsys):
    doc = run_json(capsys, "witness", "--n", "2", "--x", "jordan:1^1,0^1",
                   "--i", "1", "--j", "2")
    assert doc["flag_columns"] == ["e1+e2", "e1"]


def test_witness_default_prime_skips_primes_where_x_is_scalar(capsys):
    # 2 = 0 mod 2, so diag(2, 0) is scalar at p = 2 but not at p = 3.
    doc = run_json(capsys, "witness", "--n", "2", "--x", "jordan:2^1,0^1",
                   "--i", "1", "--j", "2")
    assert doc["p"] == 3
    # 211 = 1 mod 2, 3, 5 and 7: scalar at every guard prime.
    code, out, err = run_cli(capsys, "witness", "--n", "2", "--x",
                             "jordan:1^1,211^1", "--i", "1", "--j", "2")
    assert (code, out) == (2, "")
    assert "scalar" in json.loads(err)["error"]


def test_witness_default_prime_keeps_distinct_eigenvalues_distinct(capsys):
    # 2 = 0 mod 2 merges the eigenvalues of diag(J_2(2), 0) into a
    # nilpotent operator, still not scalar; p = 3 keeps them apart.
    doc = run_json(capsys, "witness", "--n", "3", "--x", "jordan:2^2,0^1",
                   "--i", "1", "--j", "2")
    assert doc["p"] == 3
    assert doc["lemma_checks"] == [True, True, True]
    # 4 = 1 mod 3 and 4 = 2 mod 2: p = 5 is the least that separates 4, 1
    # and 2.
    doc = run_json(capsys, "witness", "--n", "3", "--x",
                   "jordan:4^1,1^1,2^1", "--i", "1", "--j", "3")
    assert doc["p"] == 5
    # Two eigenvalues equal as integers never separate; the least prime
    # at which X is not scalar is taken, as before.
    doc = run_json(capsys, "witness", "--n", "3", "--x",
                   "jordan:1^2,1^1", "--i", "1", "--j", "2")
    assert doc["p"] == 2


def test_witness_evaluates_the_lemma_once(capsys, monkeypatch):
    argv = ("witness", "--n", "3", "--x", "jordan:0^3", "--i", "1", "--j", "2")
    calls = []
    real = certificates.check_lemma

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(certificates, "check_lemma", counted)
    run_json(capsys, *argv)
    assert len(calls) == 1
    monkeypatch.setattr(certificates, "check_lemma",
                        lambda *args: ((True, True, False), False))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert "failure" in json.loads(err)


# --- involution and decompose ----------------------------------------------------------

def test_involution_command(capsys):
    doc = run_json(capsys, "involution", "--n", "2", "--x", "jordan:1^1,0^1",
                   "--h", "h:1,1", "--p", "3")
    assert doc["partner"]["h"] == "h:0,2"
    assert doc["verified"] is True


def test_decompose_command(capsys):
    doc = run_json(capsys, "decompose", "--h", "h:3,3,3,5,5", "--p", "2")
    assert doc["split_index"] == 3
    assert doc["count"] == 63
    assert doc["factor_counts"] == [21, 3]
    assert doc["verified"] is True


# --- exit codes and stability -----------------------------------------------------------

def test_usage_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "variety", "--n", "2", "--x", "diag:1,0",
                             "--h", "h:1,2", "--p", "2")
    assert code == 2
    assert json.loads(err)["error"]


def test_guard_violation_exit_code(capsys):
    code, out, err = run_cli(capsys, "variety", "--n", "2",
                             "--x", "jordan:0^2", "--h", "h:1,2", "--p", "11")
    assert code == 2


GUARD = "size guard: need n <= 6 and p in (2, 3, 5, 7) (got n=2, p=11); "


@pytest.mark.parametrize("argv, hint", [
    (["variety", "--n", "2", "--x", "jordan:0^2", "--h", "h:2,2"],
     "pass --force to force"),
    (["poset", "--n", "2", "--x", "jordan:0^2"],
     "the poset subcommand cannot lift it"),
    (["involution", "--n", "2", "--x", "jordan:0^2", "--h", "h:2,2"],
     "the involution subcommand cannot lift it"),
    (["decompose", "--h", "h:1,2"],
     "the decompose subcommand cannot lift it")])
def test_the_size_guard_names_what_each_subcommand_can_do(capsys, argv,
                                                          hint):
    # Only variety has --force; the library's keyword is not a CLI flag.
    code, out, err = run_cli(capsys, *argv, "--p", "11")
    assert (code, out) == (2, "")
    assert err == json.dumps({"schema": "hessalg/1",
                              "error": GUARD + hint}) + "\n"


def test_the_bitmap_cap_names_what_each_subcommand_can_do(capsys):
    cap = ("size guard: n=6, p=5 has 88515803376 flags, more than the "
           "bitmap cap of 4294967296 flags (2^32); ")
    for argv, hint in (
            (["variety", "--h", "h:2,3,4,5,6,6", "--force"],
             "--force does not lift it"),
            (["poset"], "the poset subcommand cannot lift it")):
        code, out, err = run_cli(capsys, argv[0], "--n", "6",
                                 "--x", "jordan:0^6", "--p", "5", *argv[1:])
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == cap + hint


def test_force_overrides_the_size_guard(capsys):
    argv = ["variety", "--n", "2", "--x", "jordan:0^2", "--h", "h:2,2",
            "--p", "11"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "size guard" in json.loads(err)["error"]
    doc = run_json(capsys, *argv, "--force")
    (result,) = doc["results"]
    assert result["count"] == 12
    assert len(set(result["points"])) == 12
    assert result["points"][0] == "[e1,e2]"


def test_force_does_not_lift_the_bitmap_cap(capsys, monkeypatch):
    # [6]_7! is about 1.0e13 flags, a 1.25 TB bitmap: refused before any
    # search runs or any bitmap is allocated, as a usage error.
    def refused(*args, **kwargs):
        raise AssertionError("searched or allocated past the cap")

    monkeypatch.setattr("hessalg.varieties._hull_groups", refused)
    monkeypatch.setattr("hessalg.flags.bits_from_indices", refused)
    code, out, err = run_cli(capsys, "variety", "--n", "6",
                             "--x", "jordan:0^6", "--h", "h:2,3,4,5,6,6",
                             "--p", "7", "--force")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert "10017774259200 flags" in error
    assert "bitmap cap of 4294967296 flags" in error


def test_poset_refuses_a_rank_over_the_cap_before_listing_shapes(
        capsys, monkeypatch):
    # The 2^12-odd shapes at n = 12 are never listed.
    def refused(*args, **kwargs):
        raise AssertionError("shapes listed")

    monkeypatch.setattr("hessalg.varieties.enumerate_shapes", refused)
    code, out, err = run_cli(capsys, "poset", "--n", "12", "--x",
                             "jordan:0^12", "--p", "2")
    assert (code, out) == (2, "")
    assert "more than the bitmap cap" in json.loads(err)["error"]


def test_output_file_option(tmp_path, capsys):
    target = tmp_path / "census.txt"
    code, out, err = run_cli(capsys, "shapes", "--n", "2", "-o", str(target))
    assert code == 0
    assert out == ""
    assert len(target.read_text().strip().splitlines()) == 6


def _run_module(*argv, **kwargs):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.Popen([sys.executable, "-m", "hessalg.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


def test_start_up_loads_neither_dataclasses_nor_inspect():
    """Importing the CLI and parsing a command line pulls in neither
    module; together they cost a fifth of a cold start."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "import hessalg.cli\n"
        "hessalg.cli.build_parser().parse_args(['variety', '--n', '4', "
        "'--x', 'jordan:a^1,b^1,c^1,d^1', '--h', 'h:2,3,4,4', '--p', '5'])\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        % src)
    out = subprocess.run([sys.executable, "-S", "-c", script],
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout == "[]\n"


def test_an_unwritable_output_is_a_usage_error(tmp_path):
    target = tmp_path / "missing" / "out.json"
    proc = _run_module("variety", "--n", "2", "--x", "jordan:0^2",
                       "--h", "h:2,2", "--p", "2", "--output", str(target),
                       stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (2, b"")
    error = json.loads(err)["error"]
    assert str(target) in error
    assert "No such file or directory" in error


def test_a_closed_pipe_exits_1_quietly():
    proc = _run_module(*FULL_5_2, stdout=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


def test_outputs_are_stable_across_runs(capsys):
    argv = ["poset", "--n", "3", "--x", "jordan:1^1,0^2", "--p", "2,3"]
    runs = []
    for _ in range(2):
        code = main(argv)
        runs.append(capsys.readouterr().out)
        assert code == 0
    assert len(set(runs)) == 1


# --- README examples ----------------------------------------------------------------------

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _readme_block(heading, lang):
    section = README.split(heading + "\n", 1)[1]
    return re.search(r"```%s\n(.*?)```" % lang, section, re.S).group(1)


def test_readme_command_line_examples(capsys):
    docs = {}
    for line in _readme_block("## Command line", "sh").splitlines():
        if line.startswith("hessalg "):
            argv = shlex.split(line)[1:]
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, (line, err)
            docs[argv[0]] = out
    assert len(docs) == 6
    assert json.loads(docs["variety"])["fit"] == "q^2+2q+1"
    decompose = json.loads(docs["decompose"])
    assert decompose["count"] == 63
    assert decompose["factor_counts"] == [21, 3]


def test_readme_library_example():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_readme_block("## Library", "python"), {})
    assert out.getvalue().splitlines() == ["36", "[1, 2, 1]"]
