"""The four benchmark workloads: seeded fixtures and request lists.

``build(workload, seed)`` returns the requests of one pass.  Each request is
a dict with an ``id`` (stable across seeds), the ``argv`` for
``evoalg.cli.main`` (the fixture path is filled in by the runner), the
fixture text when the request reads a file, and a ``check`` naming the
independent check its output gets (see ``checks.py``).

The same seed gives the same bytes; another seed gives other matrices with
the same mix, fields and sizes.  The program never sees the seed: it reads
only the fixture files, plus the ``--seed`` values of ``random`` and
``oracle`` requests, which are drawn from the workload seed.
"""

import random
from fractions import Fraction
from itertools import combinations

from exact import count_closed_sets, det, render_alg, submatrix

WORKLOADS = ("structure-gfp", "structure-q", "search", "oracle-sweep")

SMALL_COMMANDS = ("analyze", "decompose", "nilpotency", "simple")
CLOSURE_COMMANDS = ("classify", "hierarchy")


def _field_arg(p):
    return "q" if p is None else f"gf {p}"


def _tag(p):
    return "q" if p is None else f"gf{p}"


def _dense(rng, p, n):
    if p is None:
        return [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
    return [[rng.randrange(p) for _ in range(n)] for _ in range(n)]


def _perfect(rng, p, n, accept=lambda rows: True):
    while True:
        rows = _dense(rng, p, n)
        if accept(rows) and det(rows, p):
            return rows


class _Requests:
    def __init__(self):
        self.items = []

    def file(self, command, p, rows, extra=(), check=None):
        rid = f"{len(self.items):03d}-{command}-{_tag(p)}-n{len(rows)}"
        self.items.append({"id": rid, "argv": [command, None, *extra],
                           "fixture": render_alg(p, rows), "p": p, "rows": rows,
                           "check": check})

    def plain(self, argv, name, check):
        rid = f"{len(self.items):03d}-{name}"
        self.items.append({"id": rid, "argv": list(argv), "fixture": None,
                           "p": None, "rows": None, "check": check})


def _structure(rng, fields, small_sizes, closure_sizes):
    """Dense random algebras: many cheap reports, fewer closure-heavy ones.
    A field listed twice gets two sets of fixtures."""
    req = _Requests()
    for p in fields:
        for n in small_sizes:
            for command in SMALL_COMMANDS:
                req.file(command, p, _dense(rng, p, n),
                         check="analyze" if command == "analyze" else None)
            req.plain(["random", "--field", _field_arg(p), "--dim", str(n),
                       "--seed", str(rng.randrange(10**6)), "--perfect"],
                      f"random-{_tag(p)}-n{n}", check="random-perfect")
        for n in closure_sizes:
            for command in CLOSURE_COMMANDS:
                req.file(command, p, _dense(rng, p, n))
    return req.items


def _no_vanishing_minor(p, rows, principal):
    n = len(rows)
    for k in range(1, n + 1):
        for gamma in combinations(range(n), k):
            omegas = [gamma] if principal else combinations(range(n), k)
            for omega in omegas:
                if not det(submatrix(rows, gamma, omega), p):
                    return False
    return True


def _sparse_triangular(rng, n, lo, hi, p=101):
    """Nonsingular, mostly upper-triangular matrix whose digraph has between
    lo and hi descendant-closed index sets; one entry below the diagonal
    makes it near-triangular (a 2-cycle, so one SCC has two indices)."""
    density = 0.15
    while True:
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = rng.randrange(1, p)
            for j in range(i):
                if rng.random() < density:
                    rows[j][i] = rng.randrange(1, p)
        i = rng.randrange(n - 1)
        rows[i + 1][i] = rng.randrange(1, p)
        if rows[i][i + 1] == 0:
            rows[i][i + 1] = rng.randrange(1, p)
        if not det(rows, p):
            continue
        count = count_closed_sets(rows, hi)
        if lo <= count <= hi:
            return rows, count
        density *= 1.1 if count > hi else 0.9   # more edges, fewer closed sets


def _search(rng):
    req = _Requests()
    big = 10007
    # Full 4^n pair scans and 2^n principal scans: no minor vanishes.
    for n in (5, 6, 7):
        req.file("minors", big,
                 _perfect(rng, big, n, lambda r: _no_vanishing_minor(big, r, False)),
                 check="minors-none")
    for n in (10, 11, 12):
        req.file("cube-nilpotent", big,
                 _perfect(rng, big, n, lambda r: _no_vanishing_minor(big, r, True)),
                 check="cube-none")
    # Early exits: a zero in the first row is a vanishing 1x1 minor found by
    # the first Gamma; a zero on the diagonal gives u = e_i with u^3 = 0.
    for p in (None, 3):
        for n in (6, 7, 8, 9, 10) * 5:
            req.file("minors", p,
                     _perfect(rng, p, n, lambda r: any(x == 0 for x in r[0])),
                     check="minors")
        for n in (8, 9, 10, 11, 12) * 5:
            req.file("cube-nilpotent", p,
                     _perfect(rng, p, n, lambda r: any(r[i][i] == 0 for i in range(len(r)))),
                     check="cube")
    # GF(2) natural-vector backtracking from u = e_i with u^2 != 0.
    for n in (8, 8, 8, 9, 9, 9) + (10,) * 8:
        rows = _dense(rng, 2, n)
        nonzero = [i for i in range(n) if any(rows[j][i] for j in range(n))]
        i = rng.choice(nonzero)
        vector = ",".join("1" if k == i else "0" for k in range(n))
        req.file("natural", 2, rows, extra=("--vector", vector))
    # Closed-set enumeration; ideals also spans every closed set.
    for n in (16, 18, 20):
        rows, count = _sparse_triangular(rng, n, 900, 1100)
        req.file("ideals", 101, rows, check=("ideals", count))
    for n in (16, 18, 20):
        rows, _ = _sparse_triangular(rng, n, 18000, 22000)
        req.file("adjoint", 101, rows)
    return req.items


# Oracle samples per (oracle, p, dim): a few to a few hundred tiny algebras
# each; ideal-lattice enumerates all subspaces and stops at dim 3.
ORACLE_SAMPLES = {
    "natural-vectors": {2: (12, 15, 6), 3: (15, 12, 1), 5: (15, 3, 1)},
    "ideal-lattice": {2: (12, 6), 3: (15, 6), 5: (15, 6)},
    "minor-condition": {2: (12, 15, 15), 3: (15, 15, 15), 5: (15, 15, 15)},
    "nilpotency": {2: (12, 8, 6), 3: (8, 8, 6), 5: (8, 8, 6)},
    "cube-nilpotent": {2: (12, 15, 15), 3: (15, 15, 15), 5: (15, 15, 15)},
}
ORACLE_REPEATS = 3


def _oracle_sweep(rng):
    req = _Requests()
    for _ in range(ORACLE_REPEATS):
        for name, by_field in ORACLE_SAMPLES.items():
            for p, samples in by_field.items():
                for dim, count in enumerate(samples, start=2):
                    req.plain(["oracle", name, "--field", f"gf {p}",
                               "--dim", str(dim), "--samples", str(count),
                               "--seed", str(rng.randrange(10**6))],
                              f"oracle-{name}-gf{p}-d{dim}", check="oracle")
    return req.items


def build(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "structure-gfp":
        return _structure(rng, (101, 2), (8, 9, 10, 11, 12, 14, 16, 18, 20), (8, 9, 9, 10, 11))
    if workload == "structure-q":
        return _structure(rng, (None, None, None), range(6, 13), (6, 7, 7, 8))
    if workload == "search":
        return _search(rng)
    if workload == "oracle-sweep":
        return _oracle_sweep(rng)
    raise ValueError(f"unknown workload {workload!r}")
