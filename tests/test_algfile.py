"""Algebra file parsing and emission, text and JSON."""

import json

import pytest

from evoalg.algfile import (emit_algebra_json, emit_algebra_text, load_algebra,
                            parse_algebra_json, parse_algebra_text,
                            parse_basis_text)
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


def test_load_algebra_dispatch(tmp_path):
    a = parse_algebra_text(SAMPLE)
    text_path = tmp_path / "a.alg"
    text_path.write_text(emit_algebra_text(a))
    json_path = tmp_path / "a.json"
    json_path.write_text(json.dumps(emit_algebra_json(a)))
    assert load_algebra(text_path) == a
    assert load_algebra(json_path) == a


def test_parse_basis_text():
    vecs = parse_basis_text("# basis\n1 1\n1 -1\n", QQ, 2)
    assert vecs == [[1, 1], [1, -1]]
    with pytest.raises(ParseError):
        parse_basis_text("1 1\n", QQ, 2)
    with pytest.raises(ParseError):
        parse_basis_text("1 1 1\n1 0 0\n", QQ, 2)
