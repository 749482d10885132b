"""Command line behavior: reports, exit codes, determinism."""

import json
import random
import re
from itertools import combinations
from pathlib import Path

import pytest

import evoalg
from evoalg.algebra import Element
from evoalg.cli import main

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


def test_decompose_and_basis(capsys, tmp_path, ex59):
    code, out, _ = run(capsys, "decompose", ex59)
    assert code == 0 and "component 1: indices [1, 2]" in out
    basis = write(tmp_path, "basis.txt", "1 1 0\n1 4 0\n0 0 1\n")
    code, out, _ = run(capsys, "decompose", ex59, "--basis", basis)
    assert code == 0 and "annihilator dim: 0" in out


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


def test_hierarchy_cli(capsys, ex59):
    code, out, _ = run(capsys, "hierarchy", ex59)
    assert code == 0 and out.startswith("level 0:")


def test_cube_nilpotent_cli(capsys, tmp_path):
    path = write(tmp_path, "c.alg", "field q\ndim 2\n2 0\n0 3\n")
    code, out, _ = run(capsys, "cube-nilpotent", path, "--check")
    assert code == 1 and "no vanishing principal minor" in out


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


def test_oracle_cli(capsys):
    code, out, _ = run(capsys, "oracle", "natural-vectors", "--field", "gf 2",
                       "--dim", "2", "--samples", "16")
    assert code == 0 and "mismatches 0" in out



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
    monkeypatch.setattr(Element, "is_zero", lambda self: False)
    code, out, err = run(capsys, "minors", path)
    assert code == 3 and "self-check-failed" in err and "verified" not in out


def test_version_matches_pyproject():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]+)"', text, re.M).group(1) == evoalg.__version__


def assert_clean_error(code, err, expected_code, error_code):
    assert code == expected_code
    assert f"error [{error_code}]" in err and "Traceback" not in err


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
    ("long-entry.alg", "field q\ndim 1\n" + "1" * 5000 + "\n"),
    ("long-dim.alg", "field q\ndim " + "1" * 5000 + "\n1\n"),
    ("long-field.alg", "field gf " + "1" * 5000 + "\ndim 1\n1\n"),
    ("long-int.json", '{"field": "q", "dim": ' + "1" * 5000 + ', "matrix": []}'),
    ("deep.json", "[" * 100000 + "]" * 100000),
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
