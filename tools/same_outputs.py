"""Compare the CLI of two evoalg source trees on one fixed, seeded corpus.

    python tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are ``src`` directories (this tree's ``src``, or that
of a checkout of another commit).  The corpus is built once, in a
temporary directory, from a fixed seed: algebras over Q, GF(2), GF(3) and
GF(101) at n = 1-6, dense, sparse, with a zero column and with two
proportional columns, each as a text and a JSON file; basis, family and
vector inputs for them; GF(2) algebras at n = 12-65, past one machine
word of GF(2) bit rows, with their own basis and family inputs; sparse
near-triangular and diagonal GF(101) algebras at n = 12-20 for
``ideals``, and perfect algebras over Q, GF(3) and GF(10007) at n = 8-12,
with and without a singular principal block, for ``cube-nilpotent``;
nilpotent GF(101) algebras at n = 9-20 with shuffled indices, for
``nilpotency``; one malformed input per parse message; and field specs
with and without balanced parentheses.  Every subcommand runs on the
small algebras, with and without ``--json``, plus ``random`` runs.  Every
oracle runs on small cells, at the cells of the benchmark's
``oracle-sweep`` (GF(2), GF(3) and GF(5) at n = 2-4, ``ideal-lattice``
up to n = 3; two seeds, with and without ``--json``), on all 16 GF(2)
algebras of dimension 2, and on every GF(2) algebra of dimension 3 and
every GF(3) algebra of dimension 2 (512 and 81 matrices, the zero and
rank-one ones with their dense orthogonality graphs included; with and
without ``--json``).  Each tree runs the whole corpus through
``evoalg.cli.main`` in its own subprocess.

Prints the number of invocations and how many differ in exit code, stdout
or stderr, shows the first few differences, and exits 1 on any (2 on a
usage error or a failed subprocess).
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

SEED = 2026
FIELDS = (("q", None), ("gf 2", 2), ("gf 3", 3), ("gf 101", 101))
KINDS = ("dense", "sparse", "zero-column", "proportional")
ORACLES = ("cube-nilpotent", "ideal-lattice", "minor-condition", "natural-vectors",
           "nilpotency")
SHOWN = 5


def _scalar(rng, p, nonzero=False):
    if p is None:
        x = rng.choice((1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)))
        return x if nonzero or rng.random() < 0.8 else 0
    return rng.randrange(1 if nonzero else 0, p)


def _matrix(rng, p, n, kind):
    """Rows of the structure matrix: column i is e_i^2."""
    rows = [[_scalar(rng, p, kind == "dense") for _ in range(n)] for _ in range(n)]
    if kind == "sparse":
        rows = [[x if rng.random() < 0.3 else 0 for x in row] for row in rows]
    if kind == "zero-column":
        j = rng.randrange(n)
        for row in rows:
            row[j] = 0
    if kind == "proportional" and n > 1:
        i, j = rng.sample(range(n), 2)
        c = rng.choice((2, Fraction(-1, 3))) if p is None else rng.randrange(1, p)
        for row in rows:
            row[j] = row[i] * c if p is None else row[i] * c % p
    return rows


def _near_triangular(rng, n, density, p=101):
    """A nonzero diagonal, sparse entries above it and one just below it:
    every edge of the digraph but that one is a loop or goes to a lower
    index."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.randrange(1, p)
        for j in range(i):
            if rng.random() < density:
                rows[j][i] = rng.randrange(1, p)
    i = rng.randrange(n - 1)
    rows[i + 1][i] = rng.randrange(1, p)
    return rows


def _permuted_nilpotent(rng, n, p=101):
    """Strictly upper triangular, so every edge of the digraph goes to a
    lower index and the algebra is nilpotent, and then relabelled by a
    random permutation of the indices, so the levels of the annihilator
    chain are not runs of consecutive indices."""
    density = rng.uniform(0.2, 0.5)
    rows = [[rng.randrange(1, p) if j < i and rng.random() < density else 0
             for i in range(n)] for j in range(n)]
    perm = rng.sample(range(n), n)
    return [[rows[perm[j]][perm[i]] for i in range(n)] for j in range(n)]


def _singular_block(rng, p, rows):
    """Make the principal block on a random half of the indices singular:
    on its columns, its first row becomes a combination of its others."""
    t, *others = rng.sample(range(len(rows)), len(rows) // 2)
    coeffs = [rng.randint(-2, 2) if p is None else rng.randrange(p) for _ in others]
    for c in (t, *others):
        x = sum(k * rows[u][c] for k, u in zip(coeffs, others))
        rows[t][c] = x if p is None else x % p


def _nonsingular(rows, p):
    """Gaussian elimination over Q, or over GF(p) on residues."""
    m = [list(row) for row in rows]
    for c in range(len(m)):
        for r in range(c, len(m)):
            if m[r][c] % p if p else m[r][c]:
                break
        else:
            return False
        m[c], m[r] = m[r], m[c]
        inv = pow(m[c][c], -1, p) if p else 1 / Fraction(m[c][c])
        for row in m[c + 1:]:
            f = row[c] * inv
            row[c:] = [(a - f * b) % p if p else a - f * b for a, b in zip(row[c:], m[c][c:])]
    return True


def _alg_text(spec, rows):
    return f"field {spec}\ndim {len(rows)}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in rows)


def _write(root, name, text):
    path = root / name
    path.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return str(path)


# One malformed algebra file per message of the text and JSON readers.
BAD_TEXT = (
    "field q\nfield q\ndim 1\n1\n",                  # duplicate field line
    "field q\ndim 1\ndim 1\n1\n",                    # duplicate dim line
    "field q\ndim 1\nlabels a\nlabels b\n1\n",       # duplicate labels line
    "field r\ndim 1\n1\n",                           # bad field spec
    "field gf 4\ndim 1\n1\n",                        # not prime
    "field gf 18446744073709551629\ndim 1\n1\n",     # not below 2**64
    "field q\ndim 0\n1\n",                           # dim not positive
    "field q\ndim \u0663\n1\n",                 # non-ASCII digit
    "field q\n1 0\ndim 2\n",                         # rows before dim
    "field q\ndim 2\n1 0 1\n0 1\n",                  # entry count
    "field q\ndim 2\n1 0\n0 1.5\n",                  # bad integer
    "field q\ndim 1\n1/0\n",                         # zero denominator
    "dim 2\n",                                       # missing field line
    "field q\n",                                     # missing dim line
    "field q\ndim 2\n1 0\n",                         # matrix row count
    "field q\ndim 2\nlabels a\n1 0\n0 1\n",          # label count
)
BAD_JSON = (
    "{not json",
    "[1, 2]",
    '{"field": "q", "dim": 1}',
    '{"field": "r", "dim": 1, "matrix": [["1"]]}',
    '{"field": {"gf": 4}, "dim": 1, "matrix": [["1"]]}',
    '{"field": "q", "dim": true, "matrix": [["1"]]}',
    '{"field": "q", "dim": 2, "matrix": [["1", "0"]]}',
    '{"field": "q", "dim": 2, "matrix": [["1", "0"], ["0"]]}',
    '{"field": "q", "dim": 1, "matrix": [["x"]]}',
    '{"field": "q", "dim": 1, "matrix": [["1"]], "labels": ["a", "b"]}',
    '{"field": "q", "dim": 1, "matrix": [["1"]], "labels": ["a b"]}',
)
# Field specs outside the plain 'gf <p>' form: unbalanced or repeated
# parentheses (malformed), and one pair with spaces inside (accepted).
SPECS = ("gf(13", "gf 13)", "gf((3))", "gf(13)", "gf( 13 )")
# GF(2) dimensions around CPython's 30-bit digit and 64 bits.
LARGE_GF2 = (12, 20, 33, 40, 65)
# Closed-set enumeration at the sizes of the search benchmark: (n, density
# above the diagonal) of sparse near-triangular GF(101) algebras, with 500
# to 900 closed sets; and the diagonal algebras, every index set closed
# (2^12 sets, and 2^17, past the cap).
CLOSED_SETS = ((12, 0.1), (16, 0.15), (20, 0.2))
DIAGONAL = (12, 17)
# Annihilator chains at sizes where a frozenset of small ints no longer
# iterates in ascending order: ten algebras per n.
NILPOTENT = (9, 12, 16, 20)
# The principal-minor tree of cube-nilpotent at n = 8-12.
CUBE_FIELDS = (("q", None), ("gf 3", 3), ("gf 10007", 10007))


def build_corpus(root):
    """The argument lists of every invocation, with their input files
    written under root."""
    rng = random.Random(SEED)
    root = Path(root)
    runs = []
    for spec, p in FIELDS:
        for n in range(1, 7):
            for kind in KINDS:
                rows = _matrix(rng, p, n, kind)
                stem = f"{spec.replace(' ', '')}-{n}-{kind}"
                labels = [f"x{i + 1}" for i in range(n)] if kind == "dense" else None
                text = f"field {spec}\ndim {n}\n" + (
                    f"labels {' '.join(labels)}\n" if labels else "") + "".join(
                    " ".join(map(str, row)) + "\n" for row in rows)
                doc = {"field": "q" if p is None else {"gf": p}, "dim": n,
                       "matrix": [[str(x) for x in row] for row in rows]}
                if labels:
                    doc["labels"] = labels
                # A permuted and scaled unit basis is natural for every
                # algebra; a family of one scaled unit vector is orthogonal.
                perm = rng.sample(range(n), n)
                basis = "".join(" ".join(str(_scalar(rng, p, True)) if j == perm[k] else "0"
                                         for j in range(n)) + "\n" for k in range(n))
                unit = ", ".join("2" if j == perm[0] else "0" for j in range(n))
                other = " ".join(str(_scalar(rng, p)) for _ in range(n))
                basis_file = _write(root, stem + ".basis", "# basis\n" + basis)
                family_file = _write(root, stem + ".family", unit + "  # one vector\n")
                for path in (_write(root, stem + ".alg", text),
                             _write(root, stem + ".json", json.dumps(doc))):
                    for argv in (["analyze"], ["natural", "--unique"],
                                 ["natural", "--vector", unit], ["natural", "--vector", other],
                                 ["extend", "--family", family_file], ["decompose"],
                                 ["decompose", "--basis", basis_file], ["nilpotency"],
                                 ["minors"], ["cube-nilpotent"], ["ideals"], ["simple"],
                                 ["adjoint"], ["adjoint", "--emit"], ["classify"],
                                 ["classify", "--basis", basis_file], ["hierarchy"]):
                        runs.append(argv + [path])
                        runs.append(argv + [path, "--json"])
                    for command in ("natural --unique", "nilpotency", "minors",
                                    "cube-nilpotent", "simple"):
                        runs.append(command.split() + [path, "--check"])
    # Uniform 0/1 and sparse GF(2) algebras.  The bases: a permutation of
    # the unit vectors (natural) and random 0/1 rows (almost surely not);
    # the families: one unit vector, and two vectors that are not
    # orthogonal in most algebras.
    for n in LARGE_GF2:
        for kind in ("dense", "sparse"):
            rows = (_matrix(rng, 2, n, kind) if kind == "sparse" else
                    [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
            stem = f"large-gf2-{n}-{kind}"
            path = _write(root, stem + ".alg", _alg_text("gf 2", rows))
            perm = rng.sample(range(n), n)
            bases = ("".join(" ".join("1" if j == perm[k] else "0" for j in range(n)) + "\n"
                             for k in range(n)),
                     "".join(" ".join(str(rng.randrange(2)) for _ in range(n)) + "\n"
                             for _ in range(n)))
            families = (" ".join("1" if j == perm[0] else "0" for j in range(n)) + "\n",
                        "".join(" ".join(str(rng.randrange(2)) for _ in range(n)) + "\n"
                                for _ in range(2)))
            runs += [["analyze", path], ["natural", "--unique", path], ["decompose", path]]
            for k, (basis, family) in enumerate(zip(bases, families)):
                basis_file = _write(root, f"{stem}-{k}.basis", basis)
                family_file = _write(root, f"{stem}-{k}.family", family)
                runs += [["decompose", "--basis", basis_file, path],
                         ["classify", "--basis", basis_file, path],
                         ["extend", "--family", family_file, path],
                         ["extend", "--family", family_file, path, "--json"]]
    closed = [(f"closed-{n}", _near_triangular(rng, n, density)) for n, density in CLOSED_SETS]
    closed += [(f"diagonal-{n}", [[int(i == j) for j in range(n)] for i in range(n)])
               for n in DIAGONAL]
    for stem, rows in closed:
        path = _write(root, stem + ".alg", _alg_text("gf 101", rows))
        runs += [["ideals", path], ["ideals", path, "--json"]]
    for n in NILPOTENT:
        for k in range(10):
            path = _write(root, f"nilpotent-{n}-{k}.alg",
                          _alg_text("gf 101", _permuted_nilpotent(rng, n)))
            runs += [["nilpotency", path], ["nilpotency", path, "--json"]]
    # Dense perfect algebras, entries of -99..99 over Q; in the second of
    # each pair a principal block of size n // 2 is singular, so over Q and
    # GF(10007) the scan meets it midway and, mostly without square roots
    # for a witness, goes on eliminating around it.
    for spec, p in CUBE_FIELDS:
        for n in range(8, 13):
            for singular in (False, True):
                while True:
                    rows = [[rng.randrange(1, 100) * rng.choice((1, -1)) if p is None
                             else rng.randrange(1, p) for _ in range(n)] for _ in range(n)]
                    if singular:
                        _singular_block(rng, p, rows)
                    if _nonsingular(rows, p):
                        break
                path = _write(root, f"cube-{spec.replace(' ', '')}-{n}-{int(singular)}.alg",
                              _alg_text(spec, rows))
                runs += [["cube-nilpotent", path], ["cube-nilpotent", path, "--json"]]
    for spec, _ in FIELDS:
        for n in range(1, 7):
            for flags in ([], ["--perfect"], ["--nondegenerate"]):
                runs.append(["random", "--field", spec, "--dim", str(n),
                             "--seed", str(n)] + flags)
        runs.append(["random", "--field", spec, "--dim", "3", "--json"])
    for name in ORACLES:
        for spec in ("gf 2", "gf 3"):
            runs.append(["oracle", name, "--field", spec, "--dim", "2", "--samples", "4"])
        runs.append(["oracle", name, "--field", "gf 2", "--dim", "3", "--samples", "3",
                     "--json"])
        for spec in ("gf 2", "gf 3", "gf 5"):
            for dim in range(2, 4 if name == "ideal-lattice" else 5):
                for seed in ("1", "2"):
                    argv = ["oracle", name, "--field", spec, "--dim", str(dim),
                            "--samples", "12", "--seed", seed]
                    runs += [argv, argv + ["--json"]]
        runs.append(["oracle", name, "--field", "gf 2", "--dim", "2", "--samples", "16"])
        for spec, dim, samples in (("gf 2", "3", "512"), ("gf 3", "2", "81")):
            argv = ["oracle", name, "--field", spec, "--dim", dim, "--samples", samples]
            runs += [argv, argv + ["--json"]]

    # Malformed inputs: algebra files, vector files and options.
    for k, text in enumerate(BAD_TEXT):
        runs.append(["analyze", _write(root, f"bad{k}.alg", text)])
    for k, text in enumerate(BAD_JSON):
        runs.append(["analyze", _write(root, f"bad{k}.json", text)])
    for k, spec in enumerate(SPECS):
        runs += [["analyze", _write(root, f"spec{k}.alg", f"field {spec}\ndim 2\n1 2\n3 4\n")],
                 ["random", "--field", spec, "--dim", "2", "--seed", "1"],
                 ["oracle", "nilpotency", "--field", spec, "--dim", "2", "--samples", "2"]]
    good = _write(root, "good.alg", "field gf 5\ndim 2\n1 2\n3 4\n")
    for k, text in enumerate(("1 0\n0 1 1\n", "1 0\n# x\n0 1.5\n", "1 0\n")):
        vectors = _write(root, f"bad{k}.vectors", text)
        runs += [["decompose", good, "--basis", vectors], ["extend", good, "--family", vectors]]
    runs += [
        ["analyze", _write(root, "latin1.alg", b"field q\ndim 1\n\xe9\n")],
        ["analyze", str(root / "missing.alg")],
        ["analyze", str(root)],
        ["natural", good, "--vector", "1 2 3"],
        ["natural", good],
        ["natural", good, "--vector", "1 0", "--unique"],
        ["minors", good, "--max-size", "0"],
        ["random", "--field", "gf 4", "--dim", "2"],
        ["random", "--field", "q", "--dim", "0"],
        ["oracle", "nilpotency", "--field", "q", "--dim", "2"],
        ["no-such-command"],
    ]
    return runs


def replay(src, corpus):
    """Run every invocation of the corpus file through evoalg.cli.main
    from src, and print the results as JSON."""
    sys.path.insert(0, src)
    from evoalg.cli import main
    results = []
    for argv in json.loads(Path(corpus).read_text(encoding="utf-8")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse usage errors
                code = exc.code
        results.append([code, out.getvalue(), err.getvalue()])
    json.dump(results, sys.stdout)


def compare(old_src, new_src):
    with tempfile.TemporaryDirectory() as root:
        runs = build_corpus(root)
        corpus = _write(Path(root), "corpus.json", json.dumps(runs))
        env = dict(os.environ, PYTHONHASHSEED="0")
        procs = [subprocess.Popen([sys.executable, __file__, "--replay", str(Path(src).resolve()),
                                   corpus], stdout=subprocess.PIPE, env=env, cwd=root)
                 for src in (old_src, new_src)]
        outputs = [proc.communicate()[0] for proc in procs]
        if any(proc.returncode for proc in procs):
            print("a replay subprocess failed", file=sys.stderr)
            return 2
    old, new = (json.loads(out) for out in outputs)
    differ = [(argv, a, b) for argv, a, b in zip(runs, old, new) if a != b]
    print(f"{len(runs)} invocations, {len(differ)} differ")
    for argv, a, b in differ[:SHOWN]:
        print("evoalg " + " ".join(argv))
        for part, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                print(f"  {part}: {x!r:.200} -> {y!r:.200}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--replay"]:
        replay(*sys.argv[2:4])
        sys.exit(0)
    if len(sys.argv) != 3:
        print("usage: python tools/same_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(*sys.argv[1:]))
