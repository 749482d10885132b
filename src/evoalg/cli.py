"""Command line interface.

One subcommand per analysis.  Handlers compute and ``main`` reports: a
handler ``cmd_*(algebra, args)`` returns ``(data, lines, verdict)``, its
JSON document, its plain-text lines and its headline predicate (None if
it has none), and writes nothing.  ``main`` loads the algebra file (text
or ``.json``) for every command but ``random`` and ``oracle``, calls the
handler, prints the document (``--json``) or the lines, and sets the exit
code.  Indices in all output are 1-based.

Exit codes: 0 success, 1 a ``--check``-ed predicate is false or an
oracle found mismatches, 2 usage, parse, invalid-argument,
unreadable-file or unwritable-output errors (a non-prime field spec is a
parse error; a report that standard output refuses, as a closed pipe or
a full device does, is unwritable-output), 3 computation errors
(unsupported cases, dimension and answer-size limits); code 2 and 3
output carries the machine-readable error code.

The parser is built once per process, on first use, and every ``main``
call parses with it.
"""

import argparse
import contextlib
import functools
import json
import os
import sys

from .adjoint import (adjoint_annihilator, adjoint_invariants, hierarchy,
                      is_irreducible, zeroth_decomposition)
from .algfile import (emit_algebra_json, emit_algebra_text, load_algebra,
                      parse_vectors_text, read_text, vector_tokens)
from .errors import (EvoAlgError, InvalidArgument, ParseError, UnreadableFile,
                     UnwritableOutput)
from .fields import parse_field, render_field
from .generate import random_algebra
from .ideals import (descendant_closed_sets, is_basic_simple, is_basic_simple_relative,
                     is_simple)
from .natural import (decompose, decomposition_for_basis, extend_family,
                      has_unique_natural_basis, is_natural_vector)
from .nilpotency import (find_cube_nilpotent, find_orthogonality_witness,
                         is_cube_zero, nilpotency_report)
from .oracles import ORACLES, run_oracle


def _vec(coords):
    return " ".join(map(str, coords))


def _subspace(s):
    return [_vec(row) for row in s.plain]


def _indices(ixs):
    return [i + 1 for i in ixs]


def _tri(value):
    return "unknown" if value is None else ("true" if value else "false")


def _parse_vector(field, text, n):
    parts = vector_tokens(text)
    if len(parts) != n:
        raise ParseError(f"expected {n} coordinates, got {len(parts)}")
    return [field.parse(tok) for tok in parts]


def _algebra_file(a):
    """An algebra file as the report, its text form cut at newlines only."""
    return emit_algebra_json(a), emit_algebra_text(a)[:-1].split("\n"), None


# ------------------------------------------------------------- subcommands


def cmd_analyze(a, args):
    rep = nilpotency_report(a)
    data = {
        "field": render_field(a.field),
        "dim": a.n,
        "perfect": a.is_perfect(),
        "nondegenerate": a.is_nondegenerate(),
        "annihilator_dim": a.annihilator().dim,
        "square_dim": a.M.rank(),
        "irreducible": is_irreducible(a),
        "simple": is_simple(a),
        "nilpotent": rep.is_nilpotent,
    }
    lines = [f"{k}: {str(v).lower() if isinstance(v, bool) else v}"
             for k, v in data.items()]
    return data, lines, None


def cmd_natural(a, args):
    if args.unique and args.vector is not None:
        raise ParseError("natural takes --vector or --unique, not both")
    if args.unique:
        verdict = has_unique_natural_basis(a)
        return ({"unique_natural_basis": verdict},
                [f"unique natural basis: {str(verdict).lower()}"], verdict)
    if args.vector is None:
        raise ParseError("natural requires --vector or --unique")
    verdict = is_natural_vector(a, _parse_vector(a.field, args.vector, a.n))
    return {"natural": verdict}, [f"natural vector: {str(verdict).lower()}"], verdict


def cmd_extend(a, args):
    result = extend_family(a, parse_vectors_text(read_text(args.family), a.field, a.n))
    data = {
        "basis": [_vec(u.plain) for u in result.completed_basis],
        "added": [_vec(u.plain) for u in result.added_vectors],
    }
    lines = ["completed natural basis:"]
    lines += [f"  {v}" for v in data["basis"]]
    lines.append(f"added vectors: {len(data['added'])}")
    return data, lines, None


def cmd_decompose(a, args):
    if args.basis:
        vecs = parse_vectors_text(read_text(args.basis), a.field, a.n, count=a.n)
        ann, comps, _ = decomposition_for_basis(a, vecs)
        data = {"annihilator": _subspace(ann), "components": [_subspace(c) for c in comps]}
        lines = [f"annihilator dim: {ann.dim}"]
        for k, c in enumerate(comps, start=1):
            lines.append(f"component {k}: " + "; ".join(_subspace(c)))
        return data, lines, None
    dec = decompose(a)
    data = {
        "annihilator_indices": _indices(dec.annihilator_indices),
        "components": [_indices(ix) for ix in dec.component_indices],
        "component_squares": [_vec(s) for s in dec.component_squares],
        "square_dim": dec.square_dim,
        "component_count": len(dec.component_indices),
        "count_matches_square_dim": dec.component_count_matches_square_dim,
    }
    lines = [f"annihilator indices: {data['annihilator_indices']}"]
    for k, (ix, sq) in enumerate(zip(data["components"],
                                     data["component_squares"]), start=1):
        lines.append(f"component {k}: indices {ix}, square line {sq}")
    lines.append(f"square dim: {dec.square_dim}")
    lines.append(f"component count: {data['component_count']}"
                 + ("" if dec.component_count_matches_square_dim
                    else "  (differs from dim of the square space)"))
    return data, lines, None


def cmd_nilpotency(a, args):
    rep = nilpotency_report(a)
    data = {
        "nilpotent": rep.is_nilpotent,
        "ann_chain": [_indices(s) for s in rep.ann_chain_indices],
        "type_sequence": list(rep.type_sequence),
        "right_nilpotency_index": rep.right_nilpotency_index,
        "triangular_order": (None if rep.triangular_order is None
                             else _indices(rep.triangular_order)),
        "cube_zero": is_cube_zero(a),
    }
    lines = [f"nilpotent: {str(rep.is_nilpotent).lower()}",
             f"annihilator chain: {data['ann_chain']}"]
    if rep.is_nilpotent:
        lines.append(f"type: {data['type_sequence']}")
        lines.append(f"right nilpotency index: {rep.right_nilpotency_index}")
        lines.append(f"triangular order: {data['triangular_order']}")
    lines.append(f"cube zero: {str(data['cube_zero']).lower()}")
    return data, lines, rep.is_nilpotent


def cmd_minors(a, args):
    scan = find_orthogonality_witness(a, args.max_size)
    w = scan.witness
    data = {"found": w is not None, "truncated": scan.truncated}
    lines = []
    if w is not None:
        data.update({
            "gamma": _indices(w.gamma),
            "omega": _indices(w.omega),
            "u": _vec(w.u.plain),
            "v": _vec(w.v.plain),
            "w": _vec(w.w.plain),
        })
        lines.append(f"witness found: gamma {data['gamma']}, omega {data['omega']}")
        lines.append(f"u: {data['u']}")
        lines.append(f"v: {data['v']}")
        lines.append(f"w: {data['w']}")
        lines.append("u (v w) = 0 verified")
    else:
        lines.append("no vanishing-minor witness"
                     + (" (search truncated)" if scan.truncated else ""))
    return data, lines, w is not None


def cmd_cube_nilpotent(a, args):
    scan = find_cube_nilpotent(a)
    data = {
        "found": scan.element is not None,
        "minor_indices": None if scan.minor_indices is None
        else _indices(scan.minor_indices),
        "diagnostic": scan.diagnostic,
    }
    lines = []
    if scan.element is not None:
        data["element"] = _vec(scan.element.plain)
        lines.append(f"element with cube zero: {data['element']}")
        lines.append(f"from principal minor on {data['minor_indices']}")
    elif scan.diagnostic:
        lines.append(f"none found: {scan.diagnostic} "
                     f"(minor on {data['minor_indices']})")
    else:
        lines.append("no vanishing principal minor: no such element exists")
    return data, lines, scan.element is not None


def cmd_ideals(a, args):
    # Every ideal of a perfect algebra is basic, so both reports list the
    # descendant-closed index sets.
    closed = [_indices(s) for s in descendant_closed_sets(a)]
    if a.is_perfect():
        data = {"perfect": True, "ideals": closed, "all_basic": True}
        lines = [f"perfect algebra; {len(closed)} ideals, all basic"]
    else:
        data = {"perfect": False, "basic_ideals": closed}
        lines = [f"non-perfect algebra; {len(closed)} basic ideals "
                 "(ideals spanned by basis vectors)"]
    lines += [f"  span of e{ix}" for ix in closed]
    return data, lines, None


def cmd_simple(a, args):
    simple = is_simple(a)
    relative = is_basic_simple_relative(a)
    absolute = is_basic_simple(a)
    data = {
        "simple": simple,
        "basic_simple_relative": relative,
        "basic_simple": absolute,
    }
    lines = [f"simple: {str(simple).lower()}",
             f"basic simple (relative to the given basis): {str(relative).lower()}",
             f"basic simple (every natural basis): {_tri(absolute)}"]
    return data, lines, simple


def cmd_adjoint(a, args):
    if args.emit:
        return _algebra_file(a.adjoint())
    # The adjoint shares each invariant of A, and closed-set complements
    # transfer to it (adjoint_invariants), so both columns print A's value
    # and the agreement lines are constant.
    invariants = adjoint_invariants(a)._asdict()
    ann = adjoint_annihilator(a)
    data = {name: [x, x] for name, x in invariants.items()}
    data.update(all_agree=True, subalgebra_complements_ok=True,
                adjoint_annihilator=_subspace(ann))
    lines = [f"{name}: algebra {str(x).lower()}, adjoint {str(x).lower()}"
             for name, x in invariants.items()]
    lines += ["all invariants agree: true",
              "closed-set complements transfer to the adjoint: true",
              f"adjoint annihilator dim: {ann.dim}"]
    return data, lines, None


def cmd_classify(a, args):
    if args.basis:
        vecs = parse_vectors_text(read_text(args.basis), a.field, a.n, count=a.n)
        a = a.change_basis(vecs)
    dec = zeroth_decomposition(a)
    data = {
        "verdicts": [c.verdict for c in dec.classifications],
        "components": [{"generators": _indices(g), "support": _indices(s)}
                       for g, s in dec.components],
        "transient_indices": _indices(dec.transient_indices),
        "diagnostics": list(dec.diagnostics),
    }
    lines = []
    for i, c in enumerate(dec.classifications, start=1):
        lines.append(f"generator {i}: {c.verdict} "
                     f"(closure on indices {_indices(c.closure_support)})")
    for k, comp in enumerate(data["components"], start=1):
        lines.append(f"component {k}: generators {comp['generators']}, "
                     f"support {comp['support']}")
    lines.append(f"transient indices: {data['transient_indices']}")
    for d in dec.diagnostics:
        lines.append(f"note: {d}")
    return data, lines, None


def cmd_hierarchy(a, args):
    data = {"levels": []}
    lines = []
    for depth, level in enumerate(hierarchy(a)):
        entry = {
            "indices": _indices(level.ambient_indices),
            "components": [{"generators": _indices(g), "support": _indices(s)}
                           for g, s in level.decomposition.components],
            "transient": _indices(level.decomposition.transient_indices),
            "projected": level.projected,
            "diagnostics": list(level.decomposition.diagnostics),
        }
        data["levels"].append(entry)
        lines.append(f"level {depth}: ambient indices {entry['indices']}"
                     + (" (projected structure)" if level.projected else ""))
        for k, comp in enumerate(entry["components"], start=1):
            lines.append(f"  component {k}: local generators {comp['generators']}")
        lines.append(f"  transient (local): {entry['transient']}")
        for d in entry["diagnostics"]:
            lines.append(f"  note: {d}")
    return data, lines, None


def cmd_random(_, args):
    field = parse_field(args.field)
    return _algebra_file(random_algebra(field, args.dim, seed=args.seed, perfect=args.perfect,
                                        nondegenerate=args.nondegenerate))


def _mismatch_input(mismatch):
    """The input an oracle failed on: its structure matrix (rows of M),
    and the vector tested when the check was per vector."""
    m, u = mismatch
    shown = {"rows": [list(r) for r in m]}
    if u is not None:
        shown["vector"] = list(u)
    return shown


def cmd_oracle(_, args):
    field = parse_field(args.field)
    if field.p is None:
        raise ParseError("oracles run over prime fields only")
    report = run_oracle(args.name, field.p, args.dim, samples=args.samples, seed=args.seed)
    data = {
        "oracle": report.name,
        "checked": report.checked,
        "mismatches": len(report.mismatches),
    }
    lines = [f"oracle {report.name}: checked {report.checked}, "
             f"mismatches {len(report.mismatches)}"]
    shown = [_mismatch_input(x) for x in report.mismatches[:3]]
    if shown:
        data["first_mismatches"] = shown
    for x in shown:
        text = " / ".join(" ".join(map(str, row)) for row in x["rows"])
        if "vector" in x:
            text += ", vector " + " ".join(map(str, x["vector"]))
        lines.append(f"mismatch: rows {text}")
    return data, lines, not report.mismatches


# ------------------------------------------------------------------ parser


_BASIS = (("--basis",), {"help": "file with an alternative natural basis"})


def _flag(name, helptext):
    return ((name,), {"action": "store_true", "help": helptext})


# name -> (handler, help, takes --check, arguments after the file and --json)
COMMANDS = {
    "analyze": (cmd_analyze, "summary of global properties", False, ()),
    "natural": (cmd_natural, "natural-vector and unique-basis tests", True, (
        (("--vector",), {"help": "coordinates, comma or space separated"}),
        _flag("--unique", "decide uniqueness of the natural basis instead"))),
    "extend": (cmd_extend, "extend an orthogonal family to a natural basis", False, (
        (("--family",), {"required": True, "help": "file with one vector per line"}),)),
    "decompose": (cmd_decompose, "canonical basis decomposition", False, (_BASIS,)),
    "nilpotency": (cmd_nilpotency, "annihilator chain, type, nilpotency index", True, ()),
    "minors": (cmd_minors, "vanishing-minor witness u (v w) = 0", True, (
        (("--max-size",), {"type": int, "default": None, "help":
                           "cap on the scanned index-subset size (at least 1; default 12)"}),)),
    "cube-nilpotent": (cmd_cube_nilpotent, "find u != 0 with u^3 = 0", True, ()),
    "ideals": (cmd_ideals, "basic ideals / full lattice when perfect", False, ()),
    "simple": (cmd_simple, "simplicity and basic simplicity", True, ()),
    "adjoint": (cmd_adjoint, "adjoint algebra and shared invariants", False, (
        _flag("--emit", "print the adjoint algebra file instead of the report"),)),
    "classify": (cmd_classify, "persistent/transient generators", False, (_BASIS,)),
    "hierarchy": (cmd_hierarchy, "iterated decomposition of transient parts", False, ()),
    "random": (cmd_random, "emit a seeded random algebra", False, (
        (("--field",), {"required": True, "help": "'q' or 'gf <p>'"}),
        (("--dim",), {"type": int, "required": True}),
        (("--seed",), {"type": int, "default": 0}),
        _flag("--perfect", None),
        _flag("--nondegenerate", None))),
    "oracle": (cmd_oracle, "diff a fast path against brute force", False, (
        (("name",), {"choices": sorted(ORACLES)}),
        (("--field",), {"required": True, "help": "'gf <p>'"}),
        (("--dim",), {"type": int, "required": True}),
        (("--samples",), {"type": int, "default": None}),
        (("--seed",), {"type": int, "default": 7}))),
}
_NO_FILE = ("random", "oracle")


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="evoalg",
        description="Exact analysis of finite-dimensional evolution algebras.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, helptext, check, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        if name not in _NO_FILE:
            p.add_argument("file", help="algebra file (text, or .json)")
        p.add_argument("--json", action="store_true", help="JSON output")
        if check:
            p.add_argument("--check", action="store_true",
                           help="exit 1 when the headline predicate is false")
        for args, kwargs in arguments:
            p.add_argument(*args, **kwargs)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        algebra = None if args.command in _NO_FILE else load_algebra(args.file)
        data, lines, verdict = args.fn(algebra, args)
        try:
            sys.stdout.write(json.dumps(data, indent=2, sort_keys=True) + "\n" if args.json
                             else "".join(line + "\n" for line in lines))
            sys.stdout.flush()
        except OSError as exc:
            # Point fd 1 at os.devnull, so the flush at interpreter exit has
            # nothing left to fail on.
            with contextlib.suppress(OSError, ValueError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise UnwritableOutput(f"cannot write the report: {exc}") from None
    except EvoAlgError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ParseError, UnreadableFile, InvalidArgument,
                                     UnwritableOutput)) else 3
    # A false verdict fails the run under --check; oracle, the one command
    # with a verdict and no --check, fails on every mismatch.
    return 1 if verdict is False and getattr(args, "check", True) else 0


if __name__ == "__main__":
    sys.exit(main())
