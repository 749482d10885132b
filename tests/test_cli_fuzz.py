"""Property-based fuzzing of the command line.

Every call goes through ``cli.main`` in-process.  Whatever the input, the
exit code is one of 0, 1, 2, 3; exits 2 and 3 returned by ``main`` carry
``error [<code>]:`` on stderr; an argparse usage error is ``SystemExit(2)``
with its own message; nothing else escapes and no traceback is printed.
"""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from evoalg.cli import main

FUZZ = settings(derandomize=True, deadline=None, max_examples=40)
FUZZ_CHEAP = settings(FUZZ, max_examples=150)

FILE_COMMANDS = (
    ["analyze"], ["natural", "--unique"], ["natural", "--unique", "--check"],
    ["decompose"], ["nilpotency", "--check"], ["minors"], ["minors", "--max-size", "2"],
    ["cube-nilpotent", "--check"], ["ideals"], ["simple", "--check"], ["adjoint"],
    ["adjoint", "--emit"], ["classify"], ["hierarchy"],
)
FIELDS = {"q": None, "gf 2": 2, "gf 3": 3, "gf 5": 5}
ERROR_LINE = re.compile(r"error \[[a-z0-9-]+\]: ", re.M)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
            usage = False
        except SystemExit as exc:
            code, usage = exc.code, True
    err = err.getvalue()
    assert "Traceback" not in err, (argv, err)
    if usage:
        assert code == 2 and "usage:" in err, (argv, code, err)
    else:
        assert code in (0, 1, 2, 3), (argv, code)
        if code in (2, 3):
            assert ERROR_LINE.match(err), (argv, err)
    return code, out.getvalue()


def scalar(field):
    if FIELDS[field] is None:
        return st.builds(lambda a, b: f"{a}/{b}" if b != 1 else str(a),
                         st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, FIELDS[field] - 1).map(str)


@st.composite
def algebras(draw):
    field = draw(st.sampled_from(sorted(FIELDS)))
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(scalar(field), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    return field, n, rows


def algebra_text(field, n, rows):
    return f"field {field}\ndim {n}\n" + "".join(" ".join(r) + "\n" for r in rows)


def write(workdir, name, text):
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@FUZZ
@given(algebra=algebras(), as_json=st.booleans())
def test_every_file_subcommand_on_valid_algebras(workdir, algebra, as_json):
    field, n, rows = algebra
    if as_json:
        spec = "q" if FIELDS[field] is None else {"gf": FIELDS[field]}
        path = write(workdir, "valid.json",
                     json.dumps({"field": spec, "dim": n, "matrix": rows}))
    else:
        path = write(workdir, "valid.alg", algebra_text(field, n, rows))
    for command in FILE_COMMANDS:
        for flag in ([], ["--json"]):
            code, out = call([command[0], path, *command[1:], *flag])
            if code == 0 and flag:
                json.loads(out)


TOKENS = st.sampled_from(["0", "1", "2", "-1", "1/2", "3/0", "x", "", "1e3",
                          "²", "٣", " ", "#", "1" * 30])


def vector_text(n):
    return st.lists(TOKENS, min_size=max(n - 1, 0), max_size=n + 1).map(
        lambda toks: " ".join(toks))


@FUZZ_CHEAP
@given(algebra=algebras(), data=st.data())
def test_vector_family_and_basis_inputs(workdir, algebra, data):
    field, n, rows = algebra
    path = write(workdir, "vec.alg", algebra_text(field, n, rows))
    vector = data.draw(st.one_of(
        st.lists(scalar(field), min_size=n, max_size=n).map(",".join),
        vector_text(n)))
    call(["natural", path, "--vector", vector])
    call(["natural", path, "--vector", vector, "--check", "--json"])
    lines = data.draw(st.lists(st.one_of(
        st.lists(scalar(field), min_size=n, max_size=n).map(" ".join),
        vector_text(n)), max_size=n + 1))
    listing = write(workdir, "vectors.txt", "\n".join(lines) + "\n")
    call(["extend", path, "--family", listing])
    call(["decompose", path, "--basis", listing])
    call(["classify", path, "--basis", listing, "--json"])


@FUZZ_CHEAP
@given(algebra=algebras(), data=st.data())
def test_malformed_text_files(workdir, algebra, data):
    field, n, rows = algebra
    lines = algebra_text(field, n, rows).splitlines()
    kind = data.draw(st.sampled_from(["drop", "duplicate", "replace", "random"]))
    k = data.draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[k]
    elif kind == "duplicate":
        lines.insert(k, lines[k])
    elif kind == "replace":
        lines[k] = data.draw(st.one_of(
            vector_text(n), st.sampled_from(
                ["field gf 4", "field gf ²", "field z", "dim 0", "dim -2", "dim x",
                 "dim ٣", "labels a", "field", "dim", "gf 7", "# only a comment"])))
    else:
        lines = data.draw(st.text(max_size=60)).splitlines()
    path = write(workdir, "bad.alg", "\n".join(lines) + "\n")
    command = data.draw(st.sampled_from(FILE_COMMANDS))
    call([command[0], path, *command[1:]])


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 7),
                        st.floats(allow_nan=False, allow_infinity=False),
                        st.text(max_size=4))
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(["field", "dim", "matrix", "labels", "gf"]),
                        inner, max_size=4)),
    max_leaves=12)


@FUZZ_CHEAP
@given(algebra=algebras(), data=st.data())
def test_malformed_json_files(workdir, algebra, data):
    field, n, rows = algebra
    doc = {"field": "q" if FIELDS[field] is None else {"gf": FIELDS[field]},
           "dim": n, "matrix": rows}
    kind = data.draw(st.sampled_from(["mutate", "random", "text"]))
    if kind == "mutate":
        key = data.draw(st.sampled_from(["field", "dim", "matrix", "labels"]))
        doc[key] = data.draw(JSON_VALUES)
        text = json.dumps(doc)
    elif kind == "random":
        text = json.dumps(data.draw(JSON_VALUES))
    else:
        text = json.dumps(doc)[:data.draw(st.integers(0, 40))]
    path = write(workdir, "bad.json", text)
    command = data.draw(st.sampled_from(FILE_COMMANDS))
    call([command[0], path, *command[1:], "--json"])
