"""Independent checks of CLI outputs, using only ``exact.py`` arithmetic.

Each check takes a request (see ``workloads.py``) and its stdout text and
returns None when the output is right, or a one-line reason.  Requests
whose ``check`` is None are covered only by the exit code, by byte equality
across passes and, for the default seed, by the committed digests.
"""

import re

from exact import det, parse_alg, parse_vector, product

_WITNESS = re.compile(r"witness found: gamma \[([\d, ]+)\], omega \[([\d, ]+)\]\n"
                      r"u: (.+)\nv: (.+)\nw: (.+)\nu \(v w\) = 0 verified\n\Z")
_CUBE = re.compile(r"element with cube zero: (.+)\nfrom principal minor on \[[\d, ]+\]\n\Z")
_ORACLE = re.compile(r"oracle [a-z-]+: checked (\d+), mismatches (\d+)\n\Z")


def _indices(text):
    return [int(x) - 1 for x in text.split(",")]


def _support(v):
    return [i for i, x in enumerate(v) if x]


def _minors_none(req, out):
    # The fixture generator keeps every square minor nonzero, so the full
    # scan must come back empty.
    return None if out == "no vanishing-minor witness\n" else "reported a witness"


def _minors(req, out):
    m = _WITNESS.match(out)
    if m is None:
        return "no verified witness reported"
    p, rows = req["p"], req["rows"]
    gamma, omega = _indices(m.group(1)), _indices(m.group(2))
    u, v, w = (parse_vector(m.group(k), p) for k in (3, 4, 5))
    if _support(u) != gamma or _support(v) != omega or _support(w) != omega:
        return "witness supports differ from gamma and omega"
    if any(product(rows, u, product(rows, v, w, p), p)):
        return "u (v w) != 0"
    return None


def _cube_none(req, out):
    # Every principal minor of the fixture is nonzero.
    return (None if out == "no vanishing principal minor: no such element exists\n"
            else "reported a vanishing principal minor")


def _cube(req, out):
    m = _CUBE.match(out)
    if m is None:
        return "no element with cube zero reported"
    p, rows = req["p"], req["rows"]
    u = parse_vector(m.group(1), p)
    if not any(u):
        return "zero element reported"
    if any(product(rows, u, product(rows, u, u, p), p)):
        return "u^3 != 0"
    return None


def _analyze(req, out):
    expect = (f"dim: {len(req['rows'])}\n"
              f"perfect: {str(bool(det(req['rows'], req['p']))).lower()}\n")
    return None if expect in out else "dim or perfect line disagrees with the determinant"


def _random_perfect(req, out):
    p, rows = parse_alg(out)
    argv = req["argv"]
    want_p = None if argv[2] == "q" else int(argv[2].split()[1])
    if p != want_p or len(rows) != int(argv[4]):
        return "random algebra has the wrong field or dimension"
    return None if det(rows, p) else "random --perfect emitted a singular matrix"


def _oracle(req, out):
    m = _ORACLE.match(out)
    if m is None:
        return "unexpected oracle report"
    if int(m.group(1)) < 1 or int(m.group(2)) != 0:
        return "oracle checked nothing or found mismatches"
    return None


def _ideals(req, out, count):
    lines = out.splitlines()
    if lines[0] != f"perfect algebra; {count} ideals, all basic" or len(lines) != count + 1:
        return f"ideal count differs from the {count} closed index sets"
    return None


def check(req, out):
    kind = req["check"]
    if kind is None:
        return None
    try:
        if isinstance(kind, (list, tuple)):
            return _ideals(req, out, kind[1])
        return {"minors": _minors, "minors-none": _minors_none, "cube": _cube,
                "cube-none": _cube_none, "analyze": _analyze,
                "random-perfect": _random_perfect, "oracle": _oracle}[kind](req, out)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable report ({type(exc).__name__}: {exc})"
