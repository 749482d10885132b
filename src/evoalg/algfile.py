"""Reading and writing algebra descriptions, in text and JSON form.

Text format, line oriented, ``#`` starts a comment anywhere:

    field q            (or: field gf 5)
    dim 3
    labels a b c       (optional)
    0 1 1              (n rows of n scalars; row j lists the coefficient
    1 0 1               of e_j in each square, so column i is e_i^2)
    1 1 2

The field and dim lines come before the rows and the labels line anywhere,
in any order and at most once each; an error in a line carries its line
number.

JSON mirror: ``{"field": "q" | {"gf": p}, "dim": n, "matrix": [[str, ...],
...], "labels": [...]}`` with every scalar rendered as a string so that
round trips are exact.  A JSON label must be a string the text format
holds as one token: nonempty, with no whitespace and no ``#``.  Both
formats parse tokens to plain values (``field.parse``) and print a plain
value as its ``str``.
"""

import json

from .algebra import EvolutionAlgebra
from .errors import NonPrimeModulus, ParseError, UnreadableFile
from .fields import GF, QQ, parse_count, parse_field, render_field
from .linalg import Matrix


def _strip(line):
    return line.split("#", 1)[0].strip()


def vector_tokens(line):
    """The scalar tokens of one vector line: separated by spaces or commas,
    with ``#`` starting a comment."""
    return _strip(line).replace(",", " ").split()


def _row(field, tokens, n):
    """The plain values of a matrix row or vector line of n tokens.  On
    ASCII text without "_", int() takes exactly the integer tokens that
    field.parse takes, so a row of integers needs one check for the whole
    row; any other row goes token by token through field.parse, which
    raises its message."""
    if len(tokens) != n:
        raise ParseError(f"expected {n} entries, got {len(tokens)}")
    text = "".join(tokens)
    if text.isascii() and "_" not in text:
        try:
            row = list(map(int, tokens))
        except ValueError:   # a fraction, not an integer, or past int()'s digit limit
            pass
        else:
            p = field.p
            return row if p is None else [x % p for x in row]
    return [field.parse(tok) for tok in tokens]


def _dim(words):
    if len(words) == 1 and (dim := parse_count(words[0])):
        return dim
    raise ParseError("dim expects a single positive integer")


# Header keyword -> reader of the words after it.
_HEADERS = {"field": lambda words: parse_field(" ".join(words)), "dim": _dim,
            "labels": tuple}


def parse_algebra_text(text):
    header = {}
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = _strip(raw).split()
        if not parts:
            continue
        key = parts[0].lower()
        try:
            if key in _HEADERS:
                if key in header:
                    raise ParseError(f"duplicate {key} line")
                header[key] = _HEADERS[key](parts[1:])
            elif "field" in header and "dim" in header:
                rows.append(_row(header["field"], parts, header["dim"]))
            else:
                raise ParseError("matrix rows must come after field and dim")
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
    for key in ("field", "dim"):
        if key not in header:
            raise ParseError(f"missing {key} line")
    field, dim, labels = header["field"], header["dim"], header.get("labels")
    if len(rows) != dim:
        raise ParseError(f"expected {dim} matrix rows, got {len(rows)}")
    if labels is not None and len(labels) != dim:
        raise ParseError("label count does not match dim")
    return EvolutionAlgebra(field, Matrix._from_plain(field, rows), labels=labels)


def emit_algebra_text(algebra):
    out = [f"field {render_field(algebra.field)}", f"dim {algebra.n}"]
    if algebra.labels is not None:
        out.append("labels " + " ".join(algebra.labels))
    out += [" ".join(map(str, row)) for row in algebra.M.plain]
    return "\n".join(out) + "\n"


def _field_from_json(spec):
    if spec == "q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"gf"} and isinstance(spec["gf"], int):
        try:
            return GF(spec["gf"])
        except NonPrimeModulus as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"bad field spec in JSON: {spec!r}")


def _field_to_json(field):
    return "q" if field == QQ else {"gf": field.p}


def parse_algebra_json(data):
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except (ValueError, RecursionError) as exc:
            # ValueError covers JSONDecodeError and integers past the
            # interpreter's digit limit; RecursionError, deep nesting.
            raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("field", "dim", "matrix"):
        if key not in data:
            raise ParseError(f"missing key {key!r}")
    field = _field_from_json(data["field"])
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError("dim must be a positive integer")
    matrix = data["matrix"]
    if not isinstance(matrix, list) or len(matrix) != dim:
        raise ParseError(f"matrix must have {dim} rows")
    rows = []
    for row in matrix:
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"matrix rows must have {dim} entries")
        rows.append([field.parse(str(x)) for x in row])
    labels = data.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != dim:
            raise ParseError("labels must list one name per basis vector")
        for x in labels:
            # One token of a text labels line: no whitespace (line breaks
            # included) and no comment sign.
            if not isinstance(x, str) or x.split() != [x] or "#" in x:
                raise ParseError(f"label {x!r} is not a nonempty string without "
                                 "whitespace or '#'")
        labels = tuple(labels)
    return EvolutionAlgebra(field, Matrix._from_plain(field, rows), labels=labels)


def emit_algebra_json(algebra):
    out = {
        "field": _field_to_json(algebra.field),
        "dim": algebra.n,
        "matrix": [list(map(str, row)) for row in algebra.M.plain],
    }
    if algebra.labels is not None:
        out["labels"] = list(algebra.labels)
    return out


def read_text(path):
    """Contents of a UTF-8 text file; a file that cannot be opened or
    decoded raises UnreadableFile."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UnreadableFile(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc.strerror or exc}") from None


def load_algebra(path):
    """Read an algebra file; ``.json`` selects the JSON format."""
    text = read_text(path)
    if str(path).endswith(".json"):
        return parse_algebra_json(text)
    return parse_algebra_text(text)


def parse_vectors_text(text, field, dim, count=None):
    """Vector file: one vector per line, dim scalars each separated by
    spaces or commas, ``#`` comments.  With count (a basis file: count =
    dim) the file must hold exactly count vectors; without it (a family)
    any number.  A bad line is reported with its line number."""
    vectors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = vector_tokens(raw)
        if parts:
            try:
                vectors.append(_row(field, parts, dim))
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
    if count is not None and len(vectors) != count:
        raise ParseError(f"expected {count} basis vectors, got {len(vectors)}")
    return vectors
