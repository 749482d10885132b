"""Command line interface.

One subcommand per analysis; every subcommand reads an algebra file
(text or ``.json``), prints a deterministic plain-text report or, with
``--json``, a JSON document.  Indices in all output are 1-based.

Exit codes: 0 success, 1 a ``--check``-ed predicate is false or an
oracle found mismatches, 2 usage, parse, invalid-argument or
unreadable-file errors (a non-prime field spec is a parse error), 3
computation errors (unsupported cases, dimension and answer-size limits);
code 2 and 3 output carries the machine-readable error code.
"""

import argparse
import json
import sys

from .adjoint import (adjoint_annihilator, adjoint_invariants, hierarchy,
                      is_irreducible, zeroth_decomposition)
from .algfile import (emit_algebra_json, emit_algebra_text, load_algebra,
                      parse_basis_text, read_text)
from .errors import EvoAlgError, InvalidArgument, ParseError, UnreadableFile
from .fields import parse_field, render_field
from .generate import random_algebra
from .ideals import (descendant_closed_sets, ideal_lattice_perfect,
                     is_basic_simple, is_basic_simple_relative, is_simple)
from .natural import (decompose, decomposition_for_basis, extend_family,
                      has_unique_natural_basis, is_natural_vector)
from .nilpotency import (find_cube_nilpotent, find_orthogonality_witness,
                         is_cube_zero, nilpotency_report)
from .oracles import ORACLES, run_oracle


def _vec(field, coords):
    return " ".join(field.render(x) for x in coords)


def _subspace(field, s):
    return [_vec(field, row) for row in s.basis]


def _indices(ixs):
    return [i + 1 for i in sorted(ixs)]


def _tri(value):
    return "unknown" if value is None else ("true" if value else "false")


def _load(args):
    return load_algebra(args.file)


def _parse_vector(field, text, n):
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ParseError(f"expected {n} coordinates, got {len(parts)}")
    return [field.parse(tok) for tok in parts]


def _emit(args, data, lines):
    if args.json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ------------------------------------------------------------- subcommands


def cmd_analyze(args):
    a = _load(args)
    rep = nilpotency_report(a)
    data = {
        "field": render_field(a.field),
        "dim": a.n,
        "perfect": a.is_perfect(),
        "nondegenerate": a.is_nondegenerate(),
        "annihilator_dim": a.annihilator().dim,
        "square_dim": a.square_space().dim,
        "irreducible": is_irreducible(a),
        "simple": is_simple(a),
        "nilpotent": rep.is_nilpotent,
    }
    lines = [f"{k}: {str(v).lower() if isinstance(v, bool) else v}"
             for k, v in data.items()]
    _emit(args, data, lines)
    return 0


def cmd_natural(args):
    a = _load(args)
    if args.unique:
        verdict = has_unique_natural_basis(a)
        _emit(args, {"unique_natural_basis": verdict},
              [f"unique natural basis: {str(verdict).lower()}"])
        return 1 if args.check and not verdict else 0
    if args.vector is None:
        raise ParseError("natural requires --vector or --unique")
    v = _parse_vector(a.field, args.vector, a.n)
    verdict = is_natural_vector(a, v)
    _emit(args, {"natural": verdict}, [f"natural vector: {str(verdict).lower()}"])
    return 1 if args.check and not verdict else 0


def cmd_extend(args):
    a = _load(args)
    vectors = []
    for raw in read_text(args.family).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        vectors.append(_parse_vector(a.field, line, a.n))
    result = extend_family(a, vectors)
    data = {
        "basis": [_vec(a.field, u.coords) for u in result.completed_basis],
        "added": [_vec(a.field, u.coords) for u in result.added_vectors],
    }
    lines = ["completed natural basis:"]
    lines += [f"  {v}" for v in data["basis"]]
    lines.append(f"added vectors: {len(data['added'])}")
    _emit(args, data, lines)
    return 0


def cmd_decompose(args):
    a = _load(args)
    if args.basis:
        vecs = parse_basis_text(read_text(args.basis), a.field, a.n)
        ann, comps, lines_ = decomposition_for_basis(a, vecs)
        data = {
            "annihilator": _subspace(a.field, ann),
            "components": [_subspace(a.field, c) for c in comps],
        }
        lines = [f"annihilator dim: {ann.dim}"]
        for k, c in enumerate(comps, start=1):
            lines.append(f"component {k}: " + "; ".join(_subspace(a.field, c)))
        _emit(args, data, lines)
        return 0
    dec = decompose(a)
    data = {
        "annihilator_indices": _indices(
            i for i in range(a.n) if not any(a.column_square(i))),
        "components": [_indices(ix) for ix in dec.component_indices],
        "component_squares": [_vec(a.field, s) for s in dec.component_squares],
        "square_dim": dec.square_dim,
        "component_count": len(dec.components),
        "count_matches_square_dim": dec.component_count_matches_square_dim,
    }
    lines = [f"annihilator indices: {data['annihilator_indices']}"]
    for k, (ix, sq) in enumerate(zip(data["components"],
                                     data["component_squares"]), start=1):
        lines.append(f"component {k}: indices {ix}, square line {sq}")
    lines.append(f"square dim: {dec.square_dim}")
    lines.append(f"component count: {len(dec.components)}"
                 + ("" if dec.component_count_matches_square_dim
                    else "  (differs from dim of the square space)"))
    _emit(args, data, lines)
    return 0


def cmd_nilpotency(args):
    a = _load(args)
    rep = nilpotency_report(a)
    data = {
        "nilpotent": rep.is_nilpotent,
        "ann_chain": [_indices(s) for s in rep.ann_chain_indices],
        "type_sequence": list(rep.type_sequence),
        "right_nilpotency_index": rep.right_nilpotency_index,
        "triangular_order": (None if rep.triangular_order is None
                             else [i + 1 for i in rep.triangular_order]),
        "cube_zero": is_cube_zero(a),
    }
    lines = [f"nilpotent: {str(rep.is_nilpotent).lower()}",
             f"annihilator chain: {data['ann_chain']}"]
    if rep.is_nilpotent:
        lines.append(f"type: {data['type_sequence']}")
        lines.append(f"right nilpotency index: {rep.right_nilpotency_index}")
        lines.append(f"triangular order: {data['triangular_order']}")
    lines.append(f"cube zero: {str(data['cube_zero']).lower()}")
    _emit(args, data, lines)
    return 1 if args.check and not rep.is_nilpotent else 0


def cmd_minors(args):
    a = _load(args)
    scan = find_orthogonality_witness(a, args.max_size)
    w = scan.witness
    data = {"found": w is not None, "truncated": scan.truncated}
    lines = []
    if w is not None:
        data.update({
            "gamma": _indices(w.gamma),
            "omega": _indices(w.omega),
            "u": _vec(a.field, w.u.coords),
            "v": _vec(a.field, w.v.coords),
            "w": _vec(a.field, w.w.coords),
        })
        lines.append(f"witness found: gamma {data['gamma']}, omega {data['omega']}")
        lines.append(f"u: {data['u']}")
        lines.append(f"v: {data['v']}")
        lines.append(f"w: {data['w']}")
        lines.append("u (v w) = 0 verified")
    else:
        lines.append("no vanishing-minor witness"
                     + (" (search truncated)" if scan.truncated else ""))
    _emit(args, data, lines)
    return 1 if args.check and w is None else 0


def cmd_cube_nilpotent(args):
    a = _load(args)
    scan = find_cube_nilpotent(a)
    data = {
        "found": scan.element is not None,
        "minor_indices": None if scan.minor_indices is None
        else _indices(scan.minor_indices),
        "diagnostic": scan.diagnostic,
    }
    lines = []
    if scan.element is not None:
        data["element"] = _vec(a.field, scan.element.coords)
        lines.append(f"element with cube zero: {data['element']}")
        lines.append(f"from principal minor on {data['minor_indices']}")
    elif scan.diagnostic:
        lines.append(f"none found: {scan.diagnostic} "
                     f"(minor on {data['minor_indices']})")
    else:
        lines.append("no vanishing principal minor: no such element exists")
    _emit(args, data, lines)
    return 1 if args.check and scan.element is None else 0


def cmd_ideals(args):
    a = _load(args)
    if a.is_perfect():
        lattice = ideal_lattice_perfect(a)
        data = {
            "perfect": True,
            "ideals": [_indices(g) for g in lattice.generators],
            "all_basic": True,
        }
        lines = [f"perfect algebra; {len(lattice.ideals)} ideals, all basic"]
        lines += [f"  span of e{data['ideals'][k]}"
                  for k in range(len(lattice.ideals))]
    else:
        closed = descendant_closed_sets(a)
        data = {
            "perfect": False,
            "basic_ideals": [_indices(s) for s in closed],
        }
        lines = [f"non-perfect algebra; {len(closed)} basic ideals "
                 "(ideals spanned by basis vectors)"]
        lines += [f"  span of e{ix}" for ix in data["basic_ideals"]]
    _emit(args, data, lines)
    return 0


def cmd_simple(args):
    a = _load(args)
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
    _emit(args, data, lines)
    return 1 if args.check and not simple else 0


def cmd_adjoint(args):
    a = _load(args)
    adj = a.adjoint()
    if args.emit:
        if args.json:
            print(json.dumps(emit_algebra_json(adj), indent=2, sort_keys=True))
        else:
            sys.stdout.write(emit_algebra_text(adj))
        return 0
    inv = adjoint_invariants(a)
    ann = adjoint_annihilator(a)
    data = {
        "irreducible": list(inv.irreducible),
        "simple": list(inv.simple),
        "basic_simple_relative": list(inv.basic_simple_relative),
        "nilpotent": list(inv.nilpotent),
        "all_agree": inv.all_agree,
        "subalgebra_complements_ok": inv.subalgebra_complements_ok,
        "adjoint_annihilator": _subspace(a.field, ann),
    }
    lines = []
    for name in ("irreducible", "simple", "basic_simple_relative", "nilpotent"):
        pair = data[name]
        lines.append(f"{name}: algebra {str(pair[0]).lower()}, "
                     f"adjoint {str(pair[1]).lower()}")
    lines.append(f"all invariants agree: {str(inv.all_agree).lower()}")
    lines.append("closed-set complements transfer to the adjoint: "
                 + str(inv.subalgebra_complements_ok).lower())
    lines.append(f"adjoint annihilator dim: {ann.dim}")
    _emit(args, data, lines)
    return 0


def cmd_classify(args):
    a = _load(args)
    if args.basis:
        vecs = parse_basis_text(read_text(args.basis), a.field, a.n)
        a = a.change_basis(vecs)
    dec = zeroth_decomposition(a)
    data = {
        "verdicts": [c.verdict for c in dec.classifications],
        "components": [{"generators": _indices(g), "support": _indices(s)}
                       for g, s, _ in dec.components],
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
    _emit(args, data, lines)
    return 0


def cmd_hierarchy(args):
    a = _load(args)
    h = hierarchy(a)
    data = {"levels": []}
    lines = []
    for depth, level in enumerate(h.levels):
        entry = {
            "indices": [i + 1 for i in level.ambient_indices],
            "components": [{"generators": _indices(g), "support": _indices(s)}
                           for g, s, _ in level.decomposition.components],
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
    _emit(args, data, lines)
    return 0


def cmd_random(args):
    field = parse_field(args.field)
    a = random_algebra(field, args.dim, seed=args.seed,
                       perfect=args.perfect, nondegenerate=args.nondegenerate)
    if args.json:
        print(json.dumps(emit_algebra_json(a), indent=2, sort_keys=True))
    else:
        sys.stdout.write(emit_algebra_text(a))
    return 0


def cmd_oracle(args):
    field = parse_field(args.field)
    if field.p is None:
        raise ParseError("oracles run over prime fields only")
    report = run_oracle(args.name, field.p, args.dim,
                                    samples=args.samples, seed=args.seed)
    data = {
        "oracle": report.name,
        "checked": report.checked,
        "mismatches": len(report.mismatches),
    }
    lines = [f"oracle {report.name}: checked {report.checked}, "
             f"mismatches {len(report.mismatches)}"]
    _emit(args, data, lines)
    return 1 if report.mismatches else 0


# ------------------------------------------------------------------ parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="evoalg",
        description="Exact analysis of finite-dimensional evolution algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, helptext, needs_file=True, check=False):
        p = sub.add_parser(name, help=helptext)
        if needs_file:
            p.add_argument("file", help="algebra file (text, or .json)")
        p.add_argument("--json", action="store_true", help="JSON output")
        if check:
            p.add_argument("--check", action="store_true",
                           help="exit 1 when the headline predicate is false")
        p.set_defaults(fn=fn)
        return p

    add("analyze", cmd_analyze, "summary of global properties")

    p = add("natural", cmd_natural, "natural-vector and unique-basis tests",
            check=True)
    p.add_argument("--vector", help="coordinates, comma or space separated")
    p.add_argument("--unique", action="store_true",
                   help="decide uniqueness of the natural basis instead")

    p = add("extend", cmd_extend, "extend an orthogonal family to a natural basis")
    p.add_argument("--family", required=True,
                   help="file with one vector per line")

    p = add("decompose", cmd_decompose, "canonical basis decomposition")
    p.add_argument("--basis", help="file with an alternative natural basis")

    add("nilpotency", cmd_nilpotency, "annihilator chain, type, nilpotency index",
        check=True)

    p = add("minors", cmd_minors, "vanishing-minor witness u (v w) = 0",
            check=True)
    p.add_argument("--max-size", type=int, default=None,
                   help="cap on the scanned index-subset size (at least 1; default 12)")

    add("cube-nilpotent", cmd_cube_nilpotent, "find u != 0 with u^3 = 0",
        check=True)
    add("ideals", cmd_ideals, "basic ideals / full lattice when perfect")
    add("simple", cmd_simple, "simplicity and basic simplicity", check=True)

    p = add("adjoint", cmd_adjoint, "adjoint algebra and shared invariants")
    p.add_argument("--emit", action="store_true",
                   help="print the adjoint algebra file instead of the report")

    p = add("classify", cmd_classify, "persistent/transient generators")
    p.add_argument("--basis", help="file with an alternative natural basis")

    add("hierarchy", cmd_hierarchy, "iterated decomposition of transient parts")

    p = add("random", cmd_random, "emit a seeded random algebra", needs_file=False)
    p.add_argument("--field", required=True, help="'q' or 'gf <p>'")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--perfect", action="store_true")
    p.add_argument("--nondegenerate", action="store_true")

    p = add("oracle", cmd_oracle, "diff a fast path against brute force",
            needs_file=False)
    p.add_argument("name", choices=sorted(ORACLES))
    p.add_argument("--field", required=True, help="'gf <p>'")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=7)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, UnreadableFile, InvalidArgument) as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except EvoAlgError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
