"""Reading and writing algebra descriptions, in text and JSON form.

Text format, line oriented, ``#`` starts a comment anywhere:

    field q            (or: field gf 5)
    dim 3
    labels a b c       (optional)
    0 1 1              (n rows of n scalars; row j lists the coefficient
    1 0 1               of e_j in each square, so column i is e_i^2)
    1 1 2

JSON mirror: ``{"field": "q" | {"gf": p}, "dim": n, "matrix": [[str, ...],
...], "labels": [...]}`` with every scalar rendered as a string so that
round trips are exact.
"""

import json

from .algebra import EvolutionAlgebra
from .errors import NonPrimeModulus, ParseError, UnreadableFile
from .fields import GF, QQ, parse_field, render_field


def _strip(line):
    return line.split("#", 1)[0].strip()


def parse_algebra_text(text):
    lines = text.splitlines()
    field = None
    dim = None
    labels = None
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        head = parts[0].lower()
        if head == "field":
            if field is not None:
                raise ParseError("duplicate field line", line=lineno)
            try:
                field = parse_field(" ".join(parts[1:]))
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
        elif head == "dim":
            if dim is not None:
                raise ParseError("duplicate dim line", line=lineno)
            try:
                dim = int(parts[1]) if len(parts) == 2 and parts[1].isdecimal() else 0
            except ValueError:   # more digits than int() converts
                dim = 0
            if dim < 1:
                raise ParseError("dim expects a single positive integer", line=lineno)
        elif head == "labels":
            if labels is not None:
                raise ParseError("duplicate labels line", line=lineno)
            labels = tuple(parts[1:])
        else:
            if field is None or dim is None:
                raise ParseError("matrix rows must come after field and dim",
                                 line=lineno)
            if len(parts) != dim:
                raise ParseError(f"expected {dim} entries, got {len(parts)}",
                                 line=lineno)
            try:
                rows.append([field.parse(tok) for tok in parts])
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
    if field is None:
        raise ParseError("missing field line")
    if dim is None:
        raise ParseError("missing dim line")
    if len(rows) != dim:
        raise ParseError(f"expected {dim} matrix rows, got {len(rows)}")
    if labels is not None and len(labels) != dim:
        raise ParseError("label count does not match dim")
    return EvolutionAlgebra(field, rows, labels=labels)


def emit_algebra_text(algebra):
    out = [f"field {render_field(algebra.field)}", f"dim {algebra.n}"]
    if algebra.labels is not None:
        out.append("labels " + " ".join(algebra.labels))
    for i in range(algebra.n):
        out.append(" ".join(algebra.field.render(x) for x in algebra.M.row(i)))
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
        labels = tuple(str(x) for x in labels)
    return EvolutionAlgebra(field, rows, labels=labels)


def emit_algebra_json(algebra):
    out = {
        "field": _field_to_json(algebra.field),
        "dim": algebra.n,
        "matrix": [[algebra.field.render(x) for x in algebra.M.row(i)]
                   for i in range(algebra.n)],
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


def parse_basis_text(text, field, dim):
    """Basis file: one vector per line, n scalars each, ``#`` comments."""
    vectors = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        parts = line.split()
        if len(parts) != dim:
            raise ParseError(f"expected {dim} entries, got {len(parts)}", line=lineno)
        try:
            vectors.append([field.parse(tok) for tok in parts])
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from None
    if len(vectors) != dim:
        raise ParseError(f"expected {dim} basis vectors, got {len(vectors)}")
    return vectors
