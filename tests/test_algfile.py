"""Algebra file parsing and emission, text and JSON."""

import json
from fractions import Fraction

import pytest

from evoalg.algfile import (emit_algebra_json, emit_algebra_text, load_algebra,
                            parse_algebra_json, parse_algebra_text,
                            parse_vectors_text)
from evoalg.errors import ParseError
from evoalg.fields import GF, QQ

SAMPLE = """\
# comment line
field q
dim 2          # trailing comment
labels a b
1 -1/2
0 3
"""


def test_parse_text():
    a = parse_algebra_text(SAMPLE)
    assert a.field is QQ and a.n == 2
    assert a.labels == ("a", "b")
    assert a.M.entry(0, 1) == QQ(-1, 2)
    assert a.M.entry(1, 1) == 3


def test_text_roundtrip():
    a = parse_algebra_text(SAMPLE)
    again = parse_algebra_text(emit_algebra_text(a))
    assert again == a and again.labels == a.labels


def test_parse_gf():
    a = parse_algebra_text("field gf 5\ndim 2\n1 2\n3 4\n")
    assert a.field == GF(5)
    assert a.M.entry(1, 0) == GF(5)(3)
    # Text, JSON and vector files parse to plain rows (canonical residues;
    # over Q ints for integers), which box to the scalars of the integers
    # written.
    tokens = ["+3", "-1", "007", "1" * 30]
    values = [3, -1, 7, int("1" * 30)]
    for F, spec, js in ((GF(2), "gf 2", {"gf": 2}), (GF(101), "gf 101", {"gf": 101}),
                        (QQ, "q", "q")):
        text = parse_algebra_text(f"field {spec}\ndim 4\n" + (" ".join(tokens) + "\n") * 4)
        doc = parse_algebra_json({"field": js, "dim": 4, "matrix": [tokens] * 4})
        plain = tuple(map(F.parse, tokens))
        for b in (text, doc):
            assert b.M.plain == (plain,) * 4 and b.M.row(3) == tuple(map(F, values))
        assert parse_vectors_text(", ".join(tokens), F, 4) == [list(plain)]
        assert all(type(x) is int for row in text.M.plain for x in row)
    assert parse_algebra_text("field q\ndim 1\n-3/6\n").M.plain == ((Fraction(-1, 2),),)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_algebra_text("field q\ndim 2\n1 2 3\n4 5\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        parse_algebra_text("dim 2\n1 0\n0 1\n")          # missing field
    with pytest.raises(ParseError):
        parse_algebra_text("field q\n1 0\n")             # rows before dim
    with pytest.raises(ParseError):
        parse_algebra_text("field q\ndim 2\n1 0\n")      # too few rows
    with pytest.raises(ParseError):
        parse_algebra_text("field gf 4\ndim 1\n1\n")     # 4 is not prime
    with pytest.raises(ParseError):
        parse_algebra_text(SAMPLE + "field q\n")         # duplicate field
    # Field and dim lines take ASCII digits only.
    for text, message in (("field gf \u0667\ndim 1\n1\n", "bad field spec 'gf \u0667' (line 1)"),
                          ("field gf(\uff17)\ndim 1\n1\n", "bad field spec 'gf(\uff17)' (line 1)"),
                          ("field q\ndim \u0663\n1\n", "dim expects a single positive integer (line 2)")):
        with pytest.raises(ParseError) as err:
            parse_algebra_text(text)
        assert str(err.value) == message
    # A bad scalar keeps its message in every format, with the line of a
    # text or vector file.
    for bad in ("1.5", "0x1", "1_0", "1/0", "\u0663", "\uff17"):
        for F, spec, js in ((GF(101), "gf 101", {"gf": 101}), (QQ, "q", "q")):
            message = ("zero denominator in '1/0'" if (F, bad) == (QQ, "1/0")
                       else f"bad integer {bad!r}")
            for parse, line in (
                    (lambda: parse_algebra_text(f"field {spec}\ndim 2\n1 0\n0 {bad}\n"), 4),
                    (lambda: parse_algebra_json({"field": js, "dim": 2,
                                                 "matrix": [["1", "0"], ["0", bad]]}), None),
                    (lambda: parse_vectors_text(f"1 0\n# basis\n0 {bad}\n", F, 2), 3)):
                with pytest.raises(ParseError) as err:
                    parse()
                assert err.value.line == line
                assert str(err.value) == message + ("" if line is None else f" (line {line})")


def test_structure_errors_name_the_line_or_none():
    # A repeated header line is a line error; the checks after the last
    # line (a missing field or dim line, a label count other than dim) and
    # every JSON check carry no line.
    for text, message, line in (
            ("field q\ndim 2\nlabels a b\nlabels c d\n1 0\n0 1\n",
             "duplicate labels line (line 4)", 4),
            ("field q\ndim 2\ndim 2\n1 0\n0 1\n", "duplicate dim line (line 3)", 3),
            ("field q\n", "missing dim line", None),
            ("dim 2\n", "missing field line", None),
            ("field q\ndim 2\nlabels a\n1 0\n0 1\n", "label count does not match dim", None)):
        with pytest.raises(ParseError) as err:
            parse_algebra_text(text)
        assert str(err.value) == message and err.value.line == line
    doc = {"field": "q", "dim": 2, "matrix": [["1", "0"], ["0", "1"]]}
    for bad, message in ((dict(doc, matrix=[["1", "0"], ["0"]]),
                          "matrix rows must have 2 entries"),
                         ({"field": "q", "dim": 2}, "missing key 'matrix'"),
                         (dict(doc, labels=["a"]),
                          "labels must list one name per basis vector")):
        with pytest.raises(ParseError) as err:
            parse_algebra_json(bad)
        assert str(err.value) == message and err.value.line is None


def test_json_roundtrip():
    a = parse_algebra_text(SAMPLE)
    doc = emit_algebra_json(a)
    again = parse_algebra_json(json.dumps(doc))
    assert again == a and again.labels == a.labels
    b = parse_algebra_text("field gf 7\ndim 1\n6\n")
    assert parse_algebra_json(emit_algebra_json(b)) == b
    assert emit_algebra_json(b)["field"] == {"gf": 7}


def test_json_errors():
    with pytest.raises(ParseError):
        parse_algebra_json("[1, 2]")
    with pytest.raises(ParseError):
        parse_algebra_json({"field": "q", "dim": 2, "matrix": [["1", "2"]]})
    with pytest.raises(ParseError):
        parse_algebra_json({"field": "r", "dim": 1, "matrix": [["1"]]})
    with pytest.raises(ParseError):
        parse_algebra_json("{not json")
    with pytest.raises(ParseError):
        parse_algebra_json({"field": "q", "dim": True, "matrix": [["1"]]})


def test_json_labels_are_text_tokens():
    # A JSON label must be one token of a text labels line, so every JSON
    # algebra re-emits as a text file that parses back to it.
    doc = {"field": "q", "dim": 2, "matrix": [["1", "0"], ["0", "1"]]}
    for labels in (["a", "x_1"], ["\u03b1", "b'"]):
        a = parse_algebra_json(dict(doc, labels=labels))
        assert a.labels == tuple(labels)
        assert parse_algebra_text(emit_algebra_text(a)).labels == a.labels
    for bad in ("x y", None, "", "c#d", "a\u2028b", "a\rb", "\t", 3, ["a"]):
        with pytest.raises(ParseError) as err:
            parse_algebra_json(json.dumps(dict(doc, labels=["a", bad])))
        assert str(err.value) == (f"label {bad!r} is not a nonempty string without "
                                  "whitespace or '#'")


def test_load_algebra_dispatch(tmp_path):
    a = parse_algebra_text(SAMPLE)
    text_path = tmp_path / "a.alg"
    text_path.write_text(emit_algebra_text(a))
    json_path = tmp_path / "a.json"
    json_path.write_text(json.dumps(emit_algebra_json(a)))
    assert load_algebra(text_path) == a
    assert load_algebra(json_path) == a


def test_parse_basis_text():
    vecs = parse_vectors_text("# basis\n1 1\n1 -1\n", QQ, 2, count=2)
    assert vecs == [[1, 1], [1, -1]]
    with pytest.raises(ParseError):
        parse_vectors_text("1 1\n", QQ, 2, count=2)
    with pytest.raises(ParseError):
        parse_vectors_text("1 1 1\n1 0 0\n", QQ, 2, count=2)
    # Without a count (a family file) any number of vectors, commas allowed.
    assert parse_vectors_text("1, 1\n", QQ, 2) == [[1, 1]]
    assert parse_vectors_text("# none\n", QQ, 2) == []


def test_json_modulus_above_two_to_the_64_is_a_parse_error():
    # 318665857834031151167461 is a strong pseudoprime to the bases 2..37.
    matrix = [["399165290221", "0"], ["0", "1"]]
    with pytest.raises(ParseError, match=r"not below 2\*\*64"):
        parse_algebra_json({"field": {"gf": 318665857834031151167461}, "dim": 2,
                            "matrix": matrix})
    a = parse_algebra_json({"field": {"gf": 2**61 - 1}, "dim": 2, "matrix": matrix})
    assert a.field == GF(2**61 - 1)
