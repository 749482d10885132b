"""Per-layer numbers of a traced pass, measured from outside ``src/``.

A layer is one module of ``evoalg``.  cProfile supplies call counts,
inclusive times (``.s``) of named public functions and self times; two
counting wrappers, installed here and never in untraced passes, add what
cProfile cannot see (cells fed to ``rref`` and closed sets returned).

A module's ``self_s`` is the self time of its own functions, plus that of
``fractions`` frames (charged to ``fields``, whose scalars they are) and of
builtins and other stdlib frames, which are charged to the modules that
called them in proportion to the time each caller spent in them.  cProfile
adds a fixed cost to every Python call, so these times are inflated where
calls are small; ``trace.overhead_ratio`` states by how much in total.
"""

import importlib
import os
import re
import sys
from collections import defaultdict

LAYERS = ("fields", "linalg", "algebra", "natural", "nilpotency", "ideals",
          "adjoint", "oracles", "algfile", "cli", "generate")

# name -> (unit, better); the order is the order of the printed report.
METRICS = {}
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", "lower")
METRICS.update({
    "fields.mod_new": ("count", "lower"),
    "linalg.rref.calls": ("count", "lower"),
    "linalg.rref.cells": ("count", "lower"),
    "linalg.rank.calls": ("count", "lower"),
    "linalg.det.calls": ("count", "lower"),
    "linalg.kernel.calls": ("count", "lower"),
    "linalg.subspace.calls": ("count", "lower"),
    "linalg.reduce.calls": ("count", "lower"),
    "algebra.product.calls": ("count", "lower"),
    "algebra.element.new": ("count", "lower"),
    "algebra.closure.calls": ("count", "lower"),
    "algebra.closure.s": ("s", "lower"),
    "natural.is_natural_vector.s": ("s", "lower"),
    "natural.gf2_nodes": ("count", "lower"),
    "nilpotency.minor_scan.s": ("s", "lower"),
    "nilpotency.minor_scan.rank_calls": ("count", "lower"),
    "nilpotency.cube_scan.s": ("s", "lower"),
    "nilpotency.cube_scan.det_calls": ("count", "lower"),
    "ideals.closed_sets.s": ("s", "lower"),
    "ideals.closed_sets.count": ("count", "lower"),
    "adjoint.invariants.s": ("s", "lower"),
    "adjoint.classify.s": ("s", "lower"),
    "oracles.cases_checked": ("count", "higher"),
    "oracles.brute.s": ("s", "lower"),
    "algfile.load.s": ("s", "lower"),
    "generate.random_algebra.s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
})

BRUTE_HELPERS = ("natural_basis_membership", "enumerate_natural_bases",
                 "all_subspaces", "brute_triple_exists", "minor_condition_exists",
                 "brute_cube_zero_exists", "vanishing_principal_minor_exists",
                 "all_elements_nil")

_ORIGINALS = {}
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def install():
    """Wrap ``Matrix.rref`` and every binding of ``descendant_closed_sets``
    with counters; returns the counter dict they fill."""
    ideals = importlib.import_module("evoalg.ideals")
    linalg = importlib.import_module("evoalg.linalg")
    counts = {"rref_cells": 0, "closed_sets": 0}
    rref = _ORIGINALS["rref"] = linalg.Matrix.rref
    closed = _ORIGINALS["closed_sets"] = ideals.descendant_closed_sets

    def counted_rref(self):
        counts["rref_cells"] += self.rows * self.cols
        return rref(self)

    def counted_closed_sets(algebra):
        out = closed(algebra)
        counts["closed_sets"] += len(out)
        return out

    linalg.Matrix.rref = counted_rref
    for name, module in list(sys.modules.items()):
        if name == "evoalg" or name.startswith("evoalg."):
            for attr, value in list(vars(module).items()):
                if value is closed:
                    setattr(module, attr, counted_closed_sets)
    return counts


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _nested(fn, name):
    return next(c for c in fn.__code__.co_consts
                if hasattr(c, "co_name") and c.co_name == name)


def _owner_of_file(filename):
    if filename.startswith(_BENCH_DIR):
        return "harness"
    head, base = os.path.split(filename)
    if os.path.basename(head) == "evoalg" and base.endswith(".py"):
        return base[:-3]
    if base == "fractions.py":
        return "fields"
    return None


def self_times(stats):
    """Self time per owning module (see the module docstring)."""
    memo = {}

    def owners(key, active):
        if key in memo:
            return memo[key]
        owner = _owner_of_file(key[0])
        if owner is not None:
            return {owner: 1.0}
        callers = stats[key][4] if key in stats else {}
        if key in active or not callers:
            return {"other": 1.0}
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if not total:
            weights = {c: v[1] for c, v in callers.items()}
            total = sum(weights.values())
        share = defaultdict(float)
        for caller, weight in weights.items():
            for mod, frac in owners(caller, active | {key}).items():
                share[mod] += frac * weight / total
        memo[key] = dict(share)
        return memo[key]

    out = defaultdict(float)
    for key, (_, _, tt, _, _) in stats.items():
        for mod, frac in owners(key, frozenset()).items():
            out[mod] += tt * frac
    return dict(out)


def metrics(profiler, counts, requests, results):
    """Per-layer metric values of one traced pass, without the overhead ratio."""
    import pstats

    # importlib, because the package re-exports a function named adjoint.
    (adjoint, algebra, algfile, fields, generate, linalg, natural, nilpotency,
     oracles) = (importlib.import_module(f"evoalg.{name}") for name in (
         "adjoint", "algebra", "algfile", "fields", "generate", "linalg",
         "natural", "nilpotency", "oracles"))
    stats = pstats.Stats(profiler).stats

    def calls(fn):
        key = _key(fn)
        return stats[key][1] if key in stats else 0

    def inclusive(fn):
        key = _key(fn)
        return stats[key][3] if key in stats else 0.0

    def calls_from(fn, caller_code):
        callers = stats.get(_key(fn), (0, 0, 0, 0, {}))[4]
        caller = (caller_code.co_filename, caller_code.co_firstlineno,
                  caller_code.co_name)
        return callers[caller][1] if caller in callers else 0

    M, S, E = linalg.Matrix, linalg.Subspace, algebra.Element
    own = self_times(stats)
    out = {f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS}
    checked = 0
    for req, res in zip(requests, results):
        if req["argv"][0] == "oracle" and res["stdout"]:
            match = re.search(r"checked (\d+)", res["stdout"])
            checked += int(match.group(1)) if match else 0
    out.update({
        "fields.mod_new": calls(fields.Mod.__init__),
        "linalg.rref.calls": calls(_ORIGINALS["rref"]),
        "linalg.rref.cells": counts["rref_cells"],
        "linalg.rank.calls": calls(M.rank),
        "linalg.det.calls": calls(M.det),
        "linalg.kernel.calls": calls(M.kernel),
        "linalg.subspace.calls": calls(S.from_vectors.__func__),
        "linalg.reduce.calls": calls(S.reduce),
        "algebra.product.calls": calls(E.__mul__),
        "algebra.element.new": calls(E.__init__),
        "algebra.closure.calls": calls(algebra.EvolutionAlgebra._closure),
        "algebra.closure.s": inclusive(algebra.EvolutionAlgebra._closure),
        "natural.is_natural_vector.s": inclusive(natural.is_natural_vector),
        "natural.gf2_nodes": calls_from(
            S.contains, _nested(natural._char2_completable, "search")),
        "nilpotency.minor_scan.s": inclusive(nilpotency.find_orthogonality_witness),
        "nilpotency.minor_scan.rank_calls": calls(nilpotency._witness_for_pair),
        "nilpotency.cube_scan.s": inclusive(nilpotency.find_cube_nilpotent),
        "nilpotency.cube_scan.det_calls": calls_from(
            M.minor, nilpotency.find_cube_nilpotent.__code__),
        "ideals.closed_sets.s": inclusive(_ORIGINALS["closed_sets"]),
        "ideals.closed_sets.count": counts["closed_sets"],
        "adjoint.invariants.s": inclusive(adjoint.adjoint_invariants),
        "adjoint.classify.s": inclusive(adjoint.classify_generators),
        "oracles.cases_checked": checked,
        "oracles.brute.s": sum(inclusive(getattr(oracles, name))
                               for name in BRUTE_HELPERS),
        "algfile.load.s": inclusive(algfile.load_algebra),
        "generate.random_algebra.s": inclusive(generate.random_algebra),
    })
    out["_unattributed_s"] = {k: v for k, v in own.items() if k not in LAYERS}
    return out
