"""Command line behavior: reports, exit codes, determinism."""

import errno
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

import evoalg
from evoalg.algebra import EvolutionAlgebra
from evoalg.algfile import load_algebra
from evoalg.cli import COMMANDS, build_parser, main
from evoalg import generate
from evoalg.errors import AnswerTooLarge
from evoalg.fields import GF, Mod
from evoalg.linalg import Matrix

EX59 = "field gf 5\ndim 3\n1 1 1\n1 1 1\n1 1 0\n"
PERFECT2 = "field q\ndim 2\n0 1\n1 0\n"
SINGULAR2 = "field q\ndim 2\n1 1\n1 1\n"
NILPOTENT3 = "field q\ndim 3\n0 1 1\n0 0 1\n0 0 0\n"


@pytest.fixture
def ex59(tmp_path):
    path = tmp_path / "ex59.alg"
    path.write_text(EX59)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_analyze_text_and_json(capsys, ex59):
    code, out, _ = run(capsys, "analyze", ex59)
    assert code == 0
    assert "perfect: false" in out and "dim: 3" in out
    code, out, _ = run(capsys, "analyze", "--json", ex59)
    data = json.loads(out)
    assert data["field"] == "gf 5" and data["square_dim"] == 2


def test_natural_check_exit_codes(capsys, ex59):
    code, out, _ = run(capsys, "natural", ex59, "--vector", "1,0,0", "--check")
    assert code == 0 and "true" in out
    # Support {1, 3} has rank-2 squares, so e1 + e3 is not natural.
    code, out, _ = run(capsys, "natural", ex59, "--vector", "1 0 1", "--check")
    assert code == 1 and "false" in out
    code, _, _ = run(capsys, "natural", ex59, "--vector", "1 0 1")
    assert code == 0
    code, out, _ = run(capsys, "natural", ex59, "--unique")
    assert code == 0 and "unknown" not in out


def test_natural_vector_comment(capsys, ex59):
    # --vector reads one line of a vector file: "#" starts a comment.
    for text in ("1 0 1 # e1+e3", "1,0,1#e1+e3"):
        assert run(capsys, "natural", ex59, "--vector", text) == \
            (0, "natural vector: false\n", "")
    assert run(capsys, "natural", ex59, "--vector", "1 0 # 1") == \
        (2, "", "error [parse-error]: expected 3 coordinates, got 2\n")


def test_decompose_and_basis(capsys, tmp_path, ex59):
    code, out, _ = run(capsys, "decompose", ex59)
    assert code == 0 and "component 1: indices [1, 2]" in out
    basis = write(tmp_path, "basis.txt", "1 1 0\n1 4 0\n0 0 1\n")
    code, out, _ = run(capsys, "decompose", ex59, "--basis", basis)
    assert code == 0 and "annihilator dim: 0" in out


def test_decompose_basis_groups_squares(capsys, monkeypatch, tmp_path, ex59):
    # decompose --basis groups the basis's own squares: no change of basis.
    def refuse(self, candidates):
        raise AssertionError("change_basis called")

    monkeypatch.setattr(EvolutionAlgebra, "change_basis", refuse)
    basis = write(tmp_path, "basis.txt", "1 1 0\n1 4 0\n0 0 1\n")
    assert run(capsys, "decompose", ex59, "--basis", basis) == (0, (
        "annihilator dim: 0\ncomponent 1: 1 0 0; 0 1 0\ncomponent 2: 0 0 1\n"), "")
    bad = write(tmp_path, "bad.txt", "1 0 0\n1 0 0\n0 0 1\n")
    code, out, err = run(capsys, "decompose", ex59, "--basis", bad)
    assert_clean_error(code, err, 3, "not-a-natural-basis")
    assert out == ""


def test_classify_both_bases(capsys, tmp_path, ex59):
    code, out, _ = run(capsys, "classify", ex59)
    assert code == 0 and out.count("transient") >= 3
    basis = write(tmp_path, "basis.txt", "1 1 0\n1 4 0\n0 0 1\n")
    code, out, _ = run(capsys, "classify", ex59, "--basis", basis)
    assert code == 0
    assert "generator 1: persistent" in out
    assert "generator 2: transient" in out
    assert "generator 3: persistent" in out


def test_nilpotency_and_check(capsys, tmp_path):
    path = write(tmp_path, "n.alg", NILPOTENT3)
    code, out, _ = run(capsys, "nilpotency", path, "--check")
    assert code == 0 and "type: [1, 1, 1]" in out
    other = write(tmp_path, "p.alg", PERFECT2)
    code, _, _ = run(capsys, "nilpotency", other, "--check")
    assert code == 1


def test_minors_not_perfect_exits_3(capsys, tmp_path):
    path = write(tmp_path, "s.alg", SINGULAR2)
    code, _, err = run(capsys, "minors", path)
    assert code == 3 and "not-perfect" in err


def test_parse_error_exits_2(capsys, tmp_path):
    path = write(tmp_path, "bad.alg", "field q\ndim 2\n1 2 3\n4 5\n")
    code, _, err = run(capsys, "analyze", path)
    assert code == 2 and "parse-error" in err and "line 3" in err
    code, _, err = run(capsys, "analyze", str(tmp_path / "missing.alg"))
    assert code == 2 and "unreadable-file" in err


def test_simple_and_ideals(capsys, tmp_path):
    path = write(tmp_path, "p.alg", PERFECT2)
    code, out, _ = run(capsys, "simple", path, "--check")
    assert code == 0 and "simple: true" in out
    code, out, _ = run(capsys, "ideals", path)
    assert code == 0 and "2 ideals" in out
    sing = write(tmp_path, "s.alg", SINGULAR2)
    code, out, _ = run(capsys, "simple", sing, "--check")
    assert code == 1
    code, out, _ = run(capsys, "ideals", sing)
    assert code == 0 and "non-perfect" in out


def test_adjoint_emit_roundtrip(capsys, tmp_path, ex59):
    code, out, _ = run(capsys, "adjoint", "--emit", ex59)
    assert code == 0
    assert out.splitlines()[0] == "field gf 5"
    code, out, _ = run(capsys, "adjoint", ex59)
    assert code == 0 and "all invariants agree: true" in out


def test_extend_cli(capsys, tmp_path):
    alg = write(tmp_path, "a.alg", "field q\ndim 2\n1 0\n0 1\n")
    fam = write(tmp_path, "fam.txt", "1 0\n")
    code, out, _ = run(capsys, "extend", alg, "--family", fam)
    assert code == 0 and "added vectors: 1" in out


def test_extend_family_parse_error_names_its_line(capsys, tmp_path):
    alg = write(tmp_path, "a.alg", "field q\ndim 2\n1 0\n0 1\n")
    fam = write(tmp_path, "fam.txt", "# family\n1, 0\n0 x\n")
    code, _, err = run(capsys, "extend", alg, "--family", fam)
    assert code == 2 and "parse-error" in err and "(line 3)" in err


def test_hierarchy_cli(capsys, ex59):
    code, out, _ = run(capsys, "hierarchy", ex59)
    assert code == 0 and out.startswith("level 0:")


def test_cube_nilpotent_cli(capsys, tmp_path):
    path = write(tmp_path, "c.alg", "field q\ndim 2\n2 0\n0 3\n")
    code, out, _ = run(capsys, "cube-nilpotent", path, "--check")
    assert code == 1 and "no vanishing principal minor" in out


# A false headline predicate per command with --check: (command, algebra,
# extra arguments).  DENSE2 has no zero entry and no vanishing minor.
DENSE2 = "field q\ndim 2\n1 1\n1 2\n"
FALSE_VERDICTS = [
    ("natural", EX59, ["--vector", "1 0 1"]),
    ("natural", "field q\ndim 2\n1 0\n1 0\n", ["--unique"]),
    ("nilpotency", PERFECT2, []), ("minors", DENSE2, []),
    ("cube-nilpotent", DENSE2, []), ("simple", SINGULAR2, [])]


@pytest.mark.parametrize("command, text, extra", FALSE_VERDICTS,
                         ids=["-".join([c, *e[:1]]).replace("--", "")
                              for c, _, e in FALSE_VERDICTS])
def test_false_verdict_exits_1_only_under_check(capsys, tmp_path, command, text, extra):
    assert {name for name, c in COMMANDS.items() if c[2]} == {
        c for c, _, _ in FALSE_VERDICTS}
    path = write(tmp_path, "a.alg", text)
    for fmt in ([], ["--json"]):
        code, out, err = run(capsys, command, path, *extra, *fmt)
        assert (code, err) == (0, "") and out
        assert run(capsys, command, path, *extra, *fmt, "--check") == (1, out, "")


@pytest.mark.parametrize("argv, message", [
    (["natural", "ALG"], "natural requires --vector or --unique"),
    (["natural", "ALG", "--vector", "1 0 1", "--unique", "--check"],
     "natural takes --vector or --unique, not both"),
    (["oracle", "nilpotency", "--field", "q", "--dim", "2"],
     "oracles run over prime fields only")], ids=["natural", "natural-both", "oracle"])
def test_cli_argument_errors_exit_2(capsys, tmp_path, argv, message):
    path = write(tmp_path, "a.alg", EX59)
    code, out, err = run(capsys, *[path if a == "ALG" else a for a in argv])
    assert (code, out, err) == (2, "", f"error [parse-error]: {message}\n")


# cube-nilpotent reports on algebras whose scan passes over vanishing
# minors without a witness and goes on below them (the two Q algebras of
# test_nilpotency.test_cube_scan_singular_prefixes and a GF(13) algebra),
# pinned byte for byte: (algebra, text report, --json report).
CUBE_GOLDEN = [
    ("field q\ndim 4\n1 4 0 0\n-1 -4 1 0\n0 1 1 0\n0 0 0 1\n",
     "none found: minor vanishes, witness needs square roots (minor on [1, 2])\n",
     '{\n  "diagnostic": "minor vanishes, witness needs square roots",\n'
     '  "found": false,\n  "minor_indices": [\n    1,\n    2\n  ]\n}\n'),
    ("field q\ndim 5\n1 1 1 0 0\n1 1 1 1 0\n1 1 1 0 1\n1 0 0 1 1\n0 1 0 1 2\n",
     "none found: minor vanishes, witness needs square roots (minor on [1, 2])\n",
     '{\n  "diagnostic": "minor vanishes, witness needs square roots",\n'
     '  "found": false,\n  "minor_indices": [\n    1,\n    2\n  ]\n}\n'),
    ("field gf 13\ndim 4\n12 10 11 0\n0 12 0 1\n2 0 4 0\n11 0 4 1\n",
     "none found: minor vanishes, witness needs square roots (minor on [1, 3])\n",
     '{\n  "diagnostic": "minor vanishes, witness needs square roots",\n'
     '  "found": false,\n  "minor_indices": [\n    1,\n    3\n  ]\n}\n'),
    # A Q algebra with fractional entries whose witness is fractional.
    ("field q\ndim 4\n1/2 -2 1 3\n-3/4 3 -2 1\n1 1 -3/4 1/3\n1 5 2 5/3\n",
     "element with cube zero: 1 1/2 0 0\nfrom principal minor on [1, 2]\n",
     '{\n  "diagnostic": null,\n  "element": "1 1/2 0 0",\n  "found": true,\n'
     '  "minor_indices": [\n    1,\n    2\n  ]\n}\n'),
]


@pytest.mark.parametrize("text, report, json_report", CUBE_GOLDEN,
                         ids=["q4-roots", "q5-roots", "gf13-roots", "q4-fractional"])
def test_cube_nilpotent_golden_reports(capsys, tmp_path, text, report, json_report):
    path = write(tmp_path, "c.alg", text)
    assert run(capsys, "cube-nilpotent", path) == (0, report, "")
    assert run(capsys, "cube-nilpotent", "--json", path) == (0, json_report, "")


# Reports on Q algebras with fractional entries (the vanishing 2 x 2
# block of the first has kernel line (1, 1/4); the second has the
# subalgebra span(e3, e4)), pinned byte for byte.
FRACTIONAL_GOLDEN = [
    ("field q\ndim 4\n1/2 -2 1 3\n-3/4 3 -2 1\n1 1 -3/4 1/3\n1 5 2 5/3\n", {
        "minors": "witness found: gamma [1, 2], omega [1, 2]\nu: 1 1 0 0\nv: 1 1/4 0 0\n"
                  "w: 1 1 0 0\nu (v w) = 0 verified\n",
        "cube-nilpotent": "element with cube zero: 1 1/2 0 0\nfrom principal minor on [1, 2]\n",
        "classify": "".join(f"generator {i}: persistent (closure on indices [1, 2, 3, 4])\n"
                            for i in range(1, 5))
                    + "component 1: generators [1, 2, 3, 4], support [1, 2, 3, 4]\n"
                      "transient indices: []\n"}),
    ("field q\ndim 4\n1/2 -2 0 0\n-3/4 5 0 0\n1 1 -3/4 1/3\n1 5 2 5/3\n", {
        "minors": "witness found: gamma [1], omega [3]\nu: 1 0 0 0\nv: 0 0 1 0\n"
                  "w: 0 0 1 0\nu (v w) = 0 verified\n",
        "cube-nilpotent": "no vanishing principal minor: no such element exists\n",
        "classify": "generator 1: transient (closure on indices [1, 2, 3, 4])\n"
                    "generator 2: transient (closure on indices [1, 2, 3, 4])\n"
                    "generator 3: persistent (closure on indices [3, 4])\n"
                    "generator 4: persistent (closure on indices [3, 4])\n"
                    "component 1: generators [3, 4], support [3, 4]\n"
                    "transient indices: [1, 2]\n"}),
]


@pytest.mark.parametrize("text, reports", FRACTIONAL_GOLDEN, ids=["dense", "block"])
def test_fractional_golden_reports(capsys, tmp_path, text, reports):
    path = write(tmp_path, "f.alg", text)
    for command, report in reports.items():
        assert run(capsys, command, path) == (0, report, "")


def test_random_deterministic(capsys):
    code, out1, _ = run(capsys, "random", "--field", "gf 7", "--dim", "3",
                        "--seed", "42")
    code2, out2, _ = run(capsys, "random", "--field", "gf 7", "--dim", "3",
                         "--seed", "42")
    assert code == code2 == 0 and out1 == out2
    _, out3, _ = run(capsys, "random", "--field", "gf 7", "--dim", "3",
                     "--seed", "43")
    assert out3 != out1
    code, out, _ = run(capsys, "random", "--field", "q", "--dim", "2",
                       "--seed", "1", "--perfect", "--json")
    assert code == 0 and json.loads(out)["field"] == "q"


@pytest.mark.parametrize("dim", ["1001", "1" + "0" * 30])
def test_random_dimension_above_entry_cap_exits_3(capsys, dim):
    # dim^2 > 10^6 is refused before any entry is drawn.
    code, out, err = run(capsys, "random", "--field", "q", "--dim", dim)
    assert_clean_error(code, err, 3, "answer-too-large")
    assert out == ""


def test_random_entry_cap_boundary(monkeypatch):
    monkeypatch.setattr(generate, "MAX_ENTRIES", 9)
    assert generate.random_algebra(GF(2), 3, seed=0).n == 3

    class NoDraws(random.Random):
        def random(self):
            raise AssertionError("drew an entry")

        randrange = randint = random

    with pytest.raises(AnswerTooLarge):
        generate.random_algebra(GF(2), 4, rng=NoDraws())


def test_oracle_cli(capsys):
    code, out, _ = run(capsys, "oracle", "natural-vectors", "--field", "gf 2",
                       "--dim", "2", "--samples", "16")
    assert code == 0 and "mismatches 0" in out


def test_oracle_cli_shows_first_mismatches(capsys, monkeypatch):
    from evoalg import cli, oracles
    args = ("--field", "gf 3", "--dim", "2")
    m = ((1, 2), (0, 1))
    reports = {"nilpotency": (), "minor-condition": ((m, None),),
               "natural-vectors": ((m, (1, 2)),) * 4}
    monkeypatch.setattr(cli, "run_oracle", lambda name, p, dim, samples, seed:
                        oracles.OracleReport(name, 5, reports[name]))
    # No mismatch: the report is exactly the summary line.
    code, out, _ = run(capsys, "oracle", "nilpotency", *args)
    assert (code, out) == (0, "oracle nilpotency: checked 5, mismatches 0\n")
    code, out, _ = run(capsys, "oracle", "nilpotency", *args, "--json")
    assert code == 0
    assert out == json.dumps({"checked": 5, "mismatches": 0, "oracle": "nilpotency"},
                             indent=2, sort_keys=True) + "\n"
    code, out, _ = run(capsys, "oracle", "minor-condition", *args)
    assert (code, out) == (1, "oracle minor-condition: checked 5, mismatches 1\n"
                              "mismatch: rows 1 2 / 0 1\n")
    code, out, _ = run(capsys, "oracle", "minor-condition", *args, "--json")
    assert code == 1
    assert json.loads(out)["first_mismatches"] == [{"rows": [[1, 2], [0, 1]]}]
    # At most three are shown.
    code, out, _ = run(capsys, "oracle", "natural-vectors", *args)
    assert code == 1
    assert out.splitlines() == ["oracle natural-vectors: checked 5, mismatches 4"] + [
        "mismatch: rows 1 2 / 0 1, vector 1 2"] * 3
    code, out, _ = run(capsys, "oracle", "natural-vectors", *args, "--json")
    assert json.loads(out)["first_mismatches"] == [
        {"rows": [[1, 2], [0, 1]], "vector": [1, 2]}] * 3


def test_handlers_compute_and_main_prints(capsys, tmp_path, ex59):
    # Every handler returns (data, lines, verdict) and writes nothing; main
    # prints exactly the JSON document or the lines.  ex59 is not perfect,
    # so minors and cube-nilpotent also run on PERFECT2.
    basis = write(tmp_path, "basis.txt", "1 1 0\n1 4 0\n0 0 1\n")
    family = write(tmp_path, "fam.txt", "1 0 0\n")
    extra = {"natural": [["--vector", "1 0 1"], ["--unique"]],
             "extend": [["--family", family]], "decompose": [[], ["--basis", basis]],
             "adjoint": [[], ["--emit"]], "classify": [[], ["--basis", basis]],
             "random": [["--field", "gf 7", "--dim", "3", "--seed", "42"],
                        ["--field", "q", "--dim", "2", "--perfect", "--nondegenerate"]],
             "oracle": [["natural-vectors", "--field", "gf 3", "--dim", "2",
                         "--samples", "4"]]}
    files = {"minors": [write(tmp_path, "p.alg", PERFECT2)]}
    files["cube-nilpotent"] = files["minors"]
    seen = set()
    for name, (fn, *_) in COMMANDS.items():
        for path, more, fmt in product(files.get(name, [ex59]), extra.get(name, [[]]),
                                       ([], ["--json"])):
            if name in ("random", "oracle"):
                argv, algebra = [name, *more, *fmt], None
            else:
                argv, algebra = [name, path, *more, *fmt], load_algebra(path)
            data, lines, verdict = fn(algebra, build_parser().parse_args(argv))
            assert capsys.readouterr() == ("", "")
            assert verdict in (None, True, False)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (int(verdict is False and name == "oracle"), ""), argv
            assert out == (json.dumps(data, indent=2, sort_keys=True) + "\n" if fmt
                           else "".join(line + "\n" for line in lines))
            seen.add(name)
    assert seen == set(COMMANDS)



def test_adjoint_beyond_closed_set_cap(capsys, tmp_path):
    # Dimension 24 is past the closed-set enumeration limit of `ideals`;
    # the adjoint report needs no enumeration.
    n = 24
    rows = [" ".join(str((i + 2 * j) % 7) for i in range(n)) for j in range(n)]
    path = write(tmp_path, "a24.alg", f"field gf 101\ndim {n}\n" + "\n".join(rows) + "\n")
    code, out, _ = run(capsys, "adjoint", path)
    assert code == 0
    assert "closed-set complements transfer to the adjoint: true" in out


def test_minors_self_check_failure_exits_3(capsys, monkeypatch, tmp_path):
    # "verified" is printed only after u (v w) = 0 is checked, also under -O.
    path = write(tmp_path, "p.alg", PERFECT2)
    monkeypatch.setattr(EvolutionAlgebra, "_product", lambda self, u, w: [1] * self.n)
    code, out, err = run(capsys, "minors", path)
    assert code == 3 and "self-check-failed" in err and "verified" not in out


def dense_gf101(tmp_path):
    rng = random.Random(101)
    rows = [" ".join(str(rng.randrange(1, 101)) for _ in range(10)) for _ in range(10)]
    return write(tmp_path, "dense.alg", "field gf 101\ndim 10\n" + "\n".join(rows) + "\n")


# Mod objects one run makes on a dense GF(101) algebra at n = 10: one per
# determinant returned (Matrix.det), none per parsed entry, printed scalar
# or square root tried.  The ids name the subcommand, not the count.
MOD_COUNTS = [
    (["analyze"], 1), (["natural", "--unique"], 0),
    (["natural", "--vector", "1 0 0 0 0 0 0 0 0 0"], 0), (["decompose"], 0),
    (["nilpotency"], 0), (["minors"], 1), (["cube-nilpotent"], 1), (["ideals"], 1),
    (["simple"], 1), (["adjoint"], 1), (["adjoint", "--emit"], 0),
    (["classify"], 1), (["hierarchy"], 1)]


@pytest.mark.parametrize("argv, made", MOD_COUNTS,
                         ids=["-".join(a.lstrip("-") for a in argv[:2])
                              for argv, _ in MOD_COUNTS])
def test_mod_objects_per_subcommand(capsys, monkeypatch, tmp_path, argv, made):
    path = dense_gf101(tmp_path)
    count = [0]
    init = Mod.__init__

    def counted(self, r, p):
        count[0] += 1
        init(self, r, p)

    monkeypatch.setattr(Mod, "__init__", counted)
    code, _, _ = run(capsys, argv[0], path, *argv[1:])
    assert (code, count[0]) == (0, made)


# Structure digraphs and column-class indexes one run builds, on ex59 and
# on the dense GF(101) algebra: every graph question, ann(A) included,
# reads the loaded algebra's one digraph.  decompose groups the columns of
# M, and so does simple on ex59 (not perfect, GF(5), n = 3), which decides
# basic simplicity from the class forms.
BUILD_COUNTS = [
    ("analyze", (1, 0), (1, 0)), ("simple", (1, 1), (1, 0)), ("nilpotency", (1, 0), (1, 0)),
    ("adjoint", (1, 0), (1, 0)), ("ideals", (1, 0), (1, 0)), ("decompose", (0, 1), (0, 1))]


@pytest.mark.parametrize("command, on_ex59, on_dense", BUILD_COUNTS,
                         ids=[c for c, _, _ in BUILD_COUNTS])
def test_digraph_builds_per_subcommand(capsys, monkeypatch, tmp_path, ex59, command,
                                       on_ex59, on_dense):
    built = {}
    for name, slot in (("digraph", "_digraph"), ("column_classes", "_classes")):
        build = getattr(EvolutionAlgebra, name).fget

        def counted(self, build=build, name=name, slot=slot):
            if getattr(self, slot) is None:
                built[name] = built.get(name, 0) + 1
            return build(self)

        monkeypatch.setattr(EvolutionAlgebra, name, property(counted))
    for path, made in ((ex59, on_ex59), (dense_gf101(tmp_path), on_dense)):
        built.clear()
        code, _, _ = run(capsys, command, path)
        assert (code, built.get("digraph", 0), built.get("column_classes", 0)) == (0, *made)


# Fractions made per subcommand on a dense integer Q algebra at n = 8:
# over Q a plain value is an int whenever it is an integer, so what is
# left is one per determinant returned (perfectness, once per algebra)
# and one per entry of decompose's class lines, scaled to leading entry
# 1, that is not an integer.  The zero at (3, 3) gives minors and
# cube-nilpotent their witness e3.
FRACTION_COUNTS = [
    (["analyze"], 1), (["natural", "--unique"], 0),
    (["natural", "--vector", "1 0 0 0 0 0 0 0"], 0), (["decompose"], 35),
    (["nilpotency"], 0), (["minors"], 1), (["cube-nilpotent"], 1), (["ideals"], 1),
    (["simple"], 1), (["adjoint"], 1), (["adjoint", "--emit"], 0),
    (["classify"], 1), (["hierarchy"], 1)]


@pytest.mark.parametrize("argv, made", FRACTION_COUNTS,
                         ids=["-".join(a.lstrip("-") for a in argv[:2])
                              for argv, _ in FRACTION_COUNTS])
def test_fraction_objects_per_subcommand(capsys, monkeypatch, tmp_path, argv, made):
    rng = random.Random(8)
    rows = [[rng.randint(1, 9) for _ in range(8)] for _ in range(8)]
    rows[2][2] = 0
    path = write(tmp_path, "dense.alg", "field q\ndim 8\n"
                 + "".join(" ".join(map(str, row)) + "\n" for row in rows))
    count = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    if hasattr(Fraction, "_from_coprime_ints"):   # arithmetic results, Python 3.12+
        make = Fraction._from_coprime_ints

        def counted_coprime(cls, *args):
            count[0] += 1
            return make(*args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counted_coprime))
    code, out, _ = run(capsys, argv[0], path, *argv[1:])
    assert (code, count[0]) == (0, made)
    if argv[0] in ("minors", "cube-nilpotent"):
        assert "0 0 1 0 0 0 0 0" in out


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', text, re.M).group(1) == evoalg.__version__


def assert_clean_error(code, err, expected_code, error_code):
    assert code == expected_code
    assert f"error [{error_code}]" in err and "Traceback" not in err


class RefusingStdout(io.StringIO):
    """A stdout whose write or flush fails as a full device or a closed
    pipe does."""

    def __init__(self, method, error):
        super().__init__()
        self.method, self.error = method, error

    def write(self, text):
        if self.method == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.error


@pytest.mark.parametrize("method, error", [
    ("write", OSError(errno.ENOSPC, "No space left on device")),
    ("flush", BrokenPipeError(errno.EPIPE, "Broken pipe")),
], ids=["full-device", "broken-pipe"])
def test_write_errors_exit_2(monkeypatch, capsys, ex59, method, error):
    for argv in (["analyze", ex59], ["analyze", "--json", ex59],
                 ["natural", "--check", ex59, "--vector", "1 0 0"]):
        monkeypatch.setattr(sys, "stdout", RefusingStdout(method, error))
        code = main(argv)
        err = capsys.readouterr().err
        assert_clean_error(code, err, 2, "unwritable-output")
        assert err.count("\n") == 1


def test_write_errors_in_a_process(tmp_path, ex59):
    # A real full device and a pipe whose reader is gone: exit 2 with the
    # error code, and nothing more on stderr (no traceback, no "Exception
    # ignored" from the flush at interpreter exit).
    src = str(Path(evoalg.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "evoalg.cli", "analyze", "--json", ex59]
    env = {**os.environ, "PYTHONPATH": src}
    read, write_end = os.pipe()
    os.close(read)
    targets = [write_end] + ([open("/dev/full", "wb")] if os.path.exists("/dev/full") else [])
    for target in targets:
        proc = subprocess.run(argv, stdout=target, stderr=subprocess.PIPE, env=env, text=True)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error [unwritable-output]: ")
        assert proc.stderr.count("\n") == 1
    os.close(write_end)
    for target in targets[1:]:
        target.close()


def test_adjoint_report_reads_the_algebra_alone(monkeypatch, capsys, ex59):
    # The shared invariants are read from A: no adjoint algebra is built,
    # and the one determinant is A's.
    dets = []
    det = Matrix.det

    def counted(m):
        dets.append(m.plain)
        return det(m)

    def refused(a):
        raise AssertionError("adjoint algebra built")

    monkeypatch.setattr(Matrix, "det", counted)
    monkeypatch.setattr(EvolutionAlgebra, "adjoint", refused)
    code, out, _ = run(capsys, "adjoint", ex59)
    assert code == 0 and "all invariants agree: true" in out
    assert dets == [load_algebra(ex59).M.plain]


def test_ideals_answer_too_large(capsys, tmp_path):
    # A diagonal algebra has 2^17 closed index sets at n = 17, past the
    # 2^16 cap.
    n = 17
    rows = [" ".join("1" if i == j else "0" for i in range(n)) for j in range(n)]
    path = write(tmp_path, "d17.alg", f"field gf 101\ndim {n}\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "ideals", path)
    assert_clean_error(code, err, 3, "answer-too-large")
    assert out == "" and "65536" in err


def test_directory_input_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, "analyze", str(tmp_path))
    assert_clean_error(code, err, 2, "unreadable-file")


def test_non_utf8_input_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.alg"
    path.write_bytes("field q\ndim 1\n# \xe9\n1\n".encode("latin-1"))
    code, _, err = run(capsys, "analyze", str(path))
    assert_clean_error(code, err, 2, "unreadable-file")
    alg = write(tmp_path, "a.alg", "field q\ndim 2\n1 0\n0 1\n")
    code, _, err = run(capsys, "extend", alg, "--family", str(path))
    assert_clean_error(code, err, 2, "unreadable-file")


def test_oracle_ideal_lattice_beyond_dim_3_exits_3(capsys):
    code, _, err = run(capsys, "oracle", "ideal-lattice", "--field", "gf 2",
                       "--dim", "4")
    assert_clean_error(code, err, 3, "dimension-too-large")


@pytest.mark.parametrize("field, dim, count", [
    ("gf 10007", "2", "10008"), ("gf 1000003", "3", "more than 1000004")])
def test_oracle_brute_force_past_point_limit_exits_3(capsys, field, dim, count):
    # Refused before a single projective point is listed.
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "natural-vectors", "--field", field,
                         "--dim", dim)
    assert time.perf_counter() - start < 0.5
    assert_clean_error(code, err, 3, "dimension-too-large")
    assert f"scans {count} projective points; the limit is 1000" in err
    assert out == ""


def test_oracle_natural_vectors_past_vector_limit_exits_3(capsys):
    # natural-vectors checks every nonzero multiple of each projective
    # point, p^dim - 1 vectors per matrix; refused before any matrix is
    # sampled.
    start = time.perf_counter()
    code, out, err = run(capsys, "oracle", "natural-vectors", "--field", "gf 1000003",
                         "--dim", "1")
    assert time.perf_counter() - start < 0.5
    assert_clean_error(code, err, 3, "dimension-too-large")
    assert "checks 1000002 vectors per matrix; the limit is 1000" in err
    assert out == ""


@pytest.mark.parametrize("size", ["0", "-1"])
def test_minors_max_size_below_one_exits_2(capsys, tmp_path, size):
    path = write(tmp_path, "p.alg", PERFECT2)
    code, out, err = run(capsys, "minors", path, "--max-size", size)
    assert_clean_error(code, err, 2, "invalid-argument")
    assert out == ""
    code, out, _ = run(capsys, "minors", path, "--max-size", "1")
    assert code == 0 and "witness found" in out


@pytest.mark.parametrize("argv", [
    ["random", "--dim", "2"],
    ["oracle", "natural-vectors", "--dim", "2", "--samples", "1"],
])
def test_non_prime_field_option_exits_2(capsys, tmp_path, argv):
    # The same spec inside an algebra file is a parse error, exit 2.
    path = write(tmp_path, "gf4.alg", "field gf 4\ndim 1\n1\n")
    code, _, err = run(capsys, "analyze", path)
    assert_clean_error(code, err, 2, "parse-error")
    code, out, err = run(capsys, *argv, "--field", "gf 4")
    assert_clean_error(code, err, 2, "parse-error")
    assert out == "" and "not prime" in err


def test_pseudoprime_modulus_exits_2(capsys, tmp_path):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes
    # Miller-Rabin to the bases 2..37; moduli stop below 2**64.
    p = 318665857834031151167461
    text = f"field gf {p}\ndim 2\n399165290221 0\n0 1\n"
    doc = {"field": {"gf": p}, "dim": 2, "matrix": [["399165290221", "0"], ["0", "1"]]}
    for path in (write(tmp_path, "psp.alg", text),
                 write(tmp_path, "psp.json", json.dumps(doc))):
        code, out, err = run(capsys, "analyze", path)
        assert_clean_error(code, err, 2, "parse-error")
        assert out == "" and "not below 2**64" in err
    code, out, err = run(capsys, "random", "--dim", "2", "--field", f"gf {p}")
    assert_clean_error(code, err, 2, "parse-error")
    assert out == "" and "not below 2**64" in err
    path = write(tmp_path, "m61.alg", f"field gf {2**61 - 1}\ndim 2\n3 0\n0 1\n")
    code, out, err = run(capsys, "analyze", path)
    assert code == 0 and out and err == ""


def test_natural_vector_gf2_beyond_sixteen(capsys, tmp_path):
    # The GF(2) question is decided inside the vector's class, so a dense
    # algebra of dimension 20 (distinct columns, one index per class) is
    # decided, and so is a class of seventeen equal columns.
    rng = random.Random(20)
    rows = [" ".join(str(rng.randrange(2)) for _ in range(20)) for _ in range(20)]
    path = write(tmp_path, "d20.alg", "field gf 2\ndim 20\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "natural", path, "--vector", "1" + ",0" * 19)
    assert code == 0 and out == "natural vector: true\n" and err == ""
    ones = "\n".join(["1 " * 17] * 17)
    path = write(tmp_path, "ones17.alg", f"field gf 2\ndim 17\n{ones}\n")
    code, out, err = run(capsys, "natural", path, "--vector", "1" + ",0" * 16)
    assert code == 0 and out == "natural vector: true\n" and err == ""


def test_gf2_class_of_forty_indices(capsys, tmp_path):
    ones = "\n".join(["1 " * 40] * 40)
    alg = write(tmp_path, "ones40.alg", f"field gf 2\ndim 40\n{ones}\n")
    e1 = "1" + " 0" * 39
    code, out, err = run(capsys, "natural", alg, "--vector", e1)
    assert code == 0 and out == "natural vector: true\n" and err == ""
    code, out, err = run(capsys, "natural", alg, "--vector", "1 " * 40)
    assert code == 0 and out == "natural vector: false\n" and err == ""
    code, out, err = run(capsys, "natural", alg, "--unique")
    assert code == 0 and out == "unique natural basis: false\n" and err == ""
    fam = write(tmp_path, "e1.txt", e1 + "\n")
    code, out, err = run(capsys, "extend", alg, "--family", fam)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "completed natural basis:" and lines[-1] == "added vectors: 39"
    # With every square equal, a natural basis is an orthonormal basis of
    # GF(2)^40 under the dot product: odd weights, even overlaps.
    basis = [int(line.replace(" ", ""), 2) for line in lines[1:-1]]
    assert len(basis) == 40 and basis[0] == 1 << 39
    assert all(v.bit_count() % 2 for v in basis)
    assert not any((v & w).bit_count() % 2 for v, w in combinations(basis, 2))
    # e1 and its complement are orthogonal and XOR to all-ones.
    fam = write(tmp_path, "split.txt", e1 + "\n0" + " 1" * 39 + "\n")
    code, out, err = run(capsys, "extend", alg, "--family", fam)
    assert_clean_error(code, err, 3, "not-extendable")
    assert out == ""


def test_ideals_without_dimension_cap(capsys, tmp_path):
    # e_j^2 = e_j + e_{j-1}: the closed sets are the 41 prefixes.
    n = 40
    rows = [" ".join("1" if j in (i, i + 1) else "0" for j in range(n)) for i in range(n)]
    path = write(tmp_path, "chain40.alg", f"field gf 101\ndim {n}\n" + "\n".join(rows) + "\n")
    code, out, err = run(capsys, "ideals", path)
    assert code == 0 and err == ""
    assert out.splitlines()[0] == f"perfect algebra; {n + 1} ideals, all basic"
    assert out.splitlines()[-1] == "  span of e" + str(list(range(1, n + 1)))


def test_json_dim_true_exits_2(capsys, tmp_path):
    path = write(tmp_path, "a.json", '{"field": "q", "dim": true, "matrix": [[1]]}')
    code, out, err = run(capsys, "analyze", path)
    assert_clean_error(code, err, 2, "parse-error")
    assert out == ""


@pytest.mark.parametrize("argv", [
    ["random", "--field", "gf 2", "--dim", "0"],
    ["random", "--field", "q", "--dim", "-1"],
    ["oracle", "natural-vectors", "--field", "gf 2", "--dim", "0"],
    ["oracle", "nilpotency", "--field", "gf 3", "--dim", "-2"],
    ["oracle", "natural-vectors", "--field", "gf 2", "--dim", "2", "--samples", "0"],
    ["oracle", "cube-nilpotent", "--field", "gf 2", "--dim", "2", "--samples", "-1"],
])
def test_size_option_below_one_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert_clean_error(code, err, 2, "invalid-argument")
    assert out == ""


@pytest.mark.parametrize("name, text", [
    ("sup-field.alg", "field gf ²\ndim 1\n1\n"),
    ("sup-dim.alg", "field q\ndim ²\n1\n"),
    ("sup-entry.alg", "field q\ndim 1\n²\n"),
    # Long texts are named by their file alone.
    pytest.param("long-entry.alg", "field q\ndim 1\n" + "1" * 5000 + "\n", id="long-entry"),
    pytest.param("long-dim.alg", "field q\ndim " + "1" * 5000 + "\n1\n", id="long-dim"),
    pytest.param("long-field.alg", "field gf " + "1" * 5000 + "\ndim 1\n1\n", id="long-field"),
    pytest.param("long-int.json", '{"field": "q", "dim": ' + "1" * 5000 + ', "matrix": []}',
                 id="long-int"),
    pytest.param("deep.json", "[" * 100000 + "]" * 100000, id="deep"),
])
def test_unreadable_numbers_are_parse_errors(capsys, tmp_path, name, text):
    # '²' passes str.isdigit() but not int(); int() refuses more than 4300
    # digits; json.loads raises RecursionError on deep nesting.
    path = write(tmp_path, name, text)
    code, out, err = run(capsys, "analyze", path)
    assert_clean_error(code, err, 2, "parse-error")
    assert out == ""
    ok = write(tmp_path, "ok.alg", "field gf 5\ndim 1\n1\n")
    code, out, err = run(capsys, "natural", ok, "--vector", "²")
    assert_clean_error(code, err, 2, "parse-error")


def _exit_of(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            fn(argv)
    return out.getvalue(), err.getvalue(), exc.value.code


def test_one_parser_per_process(capsys, tmp_path):
    # main parses every call with the one parser build_parser caches; help,
    # usage errors and exit codes stay those of a freshly built parser, byte
    # for byte, also after successful runs and other errors.
    ok = write(tmp_path, "ok.alg", PERFECT2)
    required = {"extend": ["f", "--family", "g"], "random": ["--field", "q", "--dim", "2"],
                "oracle": ["natural", "--field", "gf 2", "--dim", "2"]}
    cases = [["-h"], ["--help"], [], ["bogus"], ["--json", "analyze", "f"]]
    for name in COMMANDS:
        args = required.get(name, ["f"])
        cases += [[name, "-h"], [name], [name, "--bogus"], [name, *args, "--bogus"]]
    cases += [["minors", "f", "--max-size", "x"], ["oracle", "nope", "--field", "gf 2",
                                                   "--dim", "2"]]
    build_parser.cache_clear()
    report = run(capsys, "analyze", ok)
    assert report[0] == 0 and "perfect: true" in report[1]
    for _ in range(2):
        for argv in cases:
            fresh = _exit_of(lambda a: build_parser.__wrapped__().parse_args(a), argv)
            cached = _exit_of(main, argv)
            assert cached == fresh, argv
            assert cached[2] in (0, 2), argv
            assert cached[0] or cached[1], argv
            assert run(capsys, "analyze", ok) == report
            assert _exit_of(main, ["random", "--dim", "x"])[2] == 2
    assert build_parser.cache_info().misses == 1
