"""Brute-force reference computations over small prime fields.

Everything here works on plain integer matrices modulo p, independent of
the exact-arithmetic classes, so these routines can serve as oracles for
the fast paths: natural-vector membership read from an exhaustive
enumeration of the natural bases, ideal lattices by full subspace
enumeration, triple products and cube nilpotents by direct scanning.
``run_oracle`` diffs an oracle against its fast path over a seeded corpus
in one loop; each oracle is one ``ORACLES`` row, a case factory and its
run settings.
"""

import random
from dataclasses import dataclass
from itertools import combinations, product
from operator import mul

from . import ideals, natural, nilpotency
from .algebra import EvolutionAlgebra
from .errors import DimensionTooLarge, InvalidArgument
from .fields import GF
from .linalg import Subspace

# ---------------------------------------------------------------- int linalgebra


def rref_mod(rows, p):
    m = [list(r) for r in rows]
    if not m:
        return [], 0, []
    cols = len(m[0])
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot = next((i for i in range(pr, len(m)) if m[i][pc] % p), None)
        if pivot is None:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        inv = pow(m[pr][pc], p - 2, p)
        m[pr] = [x * inv % p for x in m[pr]]
        for i in range(len(m)):
            if i != pr and m[i][pc] % p:
                f = m[i][pc]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    return m, pr, pivots


def rank_mod(rows, p):
    return rref_mod(rows, p)[1]


def kernel_mod(rows, p, cols):
    red, rank, pivots = rref_mod(rows, p)
    pivot_set = set(pivots)
    out = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [0] * cols
        v[f] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-red[r][f]) % p
        out.append(tuple(v))
    return out


def evo_mult(m, p, u, v):
    w = [a * b for a, b in zip(u, v)]
    return tuple(sum(map(mul, row, w)) % p for row in m)


def normalized_vectors(p, n):
    """Nonzero vectors with leading coordinate 1 (one per projective point),
    in lexicographic order: those led by more zeros come first."""
    return [(0,) * k + (1,) + tail for k in reversed(range(n))
            for tail in product(range(p), repeat=n - k - 1)]


def support(v):
    return frozenset(i for i, x in enumerate(v) if x)


# ------------------------------------------------------- natural-basis search


def _orthogonal_later(m, p, points):
    """Orthogonality graph on the points: bit j of the i-th mask is set iff
    j > i and points i and j are orthogonal, M (a o b) = 0.  The test
    depends only on the Hadamard product a o b, so it runs once per
    distinct product: at most p^n ``evo_mult`` calls."""
    ones = (1,) * len(m)
    vanishes = {}
    masks = []
    for i, a in enumerate(points):
        mask = 0
        for j in range(i + 1, len(points)):
            h = tuple(x * y % p for x, y in zip(a, points[j]))
            zero = vanishes.get(h)
            if zero is None:
                zero = vanishes[h] = not any(evo_mult(m, p, h, ones))
            if zero:
                mask |= 1 << j
        masks.append(mask)
    return masks


def enumerate_natural_bases(m, p):
    """All natural bases as sorted tuples of projective representatives:
    the full-rank n-cliques of the orthogonality graph, in lexicographic
    order of their point indices (bitmask clique walk, no pivoting)."""
    n = len(m)
    points = normalized_vectors(p, n)
    later = _orthogonal_later(m, p, points)
    bases = []
    chosen = []

    def search(cands):
        if len(chosen) == n:
            basis = tuple(points[k] for k in chosen)
            if rank_mod(basis, p) == n:
                bases.append(basis)
            return
        while cands.bit_count() >= n - len(chosen):
            k = (cands & -cands).bit_length() - 1
            cands &= cands - 1
            chosen.append(k)
            search(cands & later[k])
            chosen.pop()

    search((1 << len(points)) - 1)
    return bases


def natural_basis_membership(m, p, u):
    """True iff u belongs to some natural basis (u = 0 never does)."""
    lead = next((x for x in u if x % p), None)
    if lead is None:
        return False
    inv = pow(lead, p - 2, p)
    return tuple(x * inv % p for x in u) in {
        v for basis in enumerate_natural_bases(m, p) for v in basis}


def all_subspaces(p, n):
    """Every subspace of GF(p)^n as a canonical RREF row tuple; n <= 3."""
    if n > 3:
        raise DimensionTooLarge("full subspace enumeration is limited to dimension 3")
    out = [()]
    for v in normalized_vectors(p, n):
        out.append((v,))
    if n >= 2:
        eye = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
        out.append(eye)
    if n == 3:
        for functional in normalized_vectors(p, n):
            red, rank, _ = rref_mod(kernel_mod([list(functional)], p, n), p)
            out.append(tuple(tuple(r) for r in red[:rank]))
    return out


# ----------------------------------------------------------- brute-force facts


def brute_triple_exists(m, p):
    """Exists u, v, w with supp(v) = supp(w), |supp(u)| >= |supp(v)| and
    u (v w) = 0 (projective scan).  Without the size restriction the triple
    condition is vacuous for n >= 2: any u supported away from supp(v w)
    qualifies."""
    n = len(m)
    cands = normalized_vectors(p, n)
    by_support = {}
    for v in cands:
        by_support.setdefault(support(v), []).append(v)
    for supp_v, vs in by_support.items():
        for v in vs:
            for w in vs:
                vw = evo_mult(m, p, v, w)
                for u in cands:
                    if len(support(u)) < len(supp_v):
                        continue
                    uvw = evo_mult(m, p, u, vw)
                    if not any(uvw):
                        return True
    return False


def minor_condition_exists(m, p):
    """Exists nonempty Gamma, Omega with rank M[Gamma, Omega] < min size."""
    n = len(m)
    subsets = [s for k in range(1, n + 1)
               for s in combinations(range(n), k)]
    for gamma in subsets:
        for omega in subsets:
            rows = [[m[i][j] for j in omega] for i in gamma]
            if rank_mod(rows, p) < min(len(gamma), len(omega)):
                return True
    return False


def brute_cube_zero_exists(m, p):
    n = len(m)
    for u in normalized_vectors(p, n):
        u2 = evo_mult(m, p, u, u)
        u3 = evo_mult(m, p, u, u2)
        if not any(u3):
            return True
    return False


def vanishing_principal_minor_exists(m, p):
    n = len(m)
    for k in range(1, n + 1):
        for gamma in combinations(range(n), k):
            rows = [[m[i][j] for j in gamma] for i in gamma]
            if rank_mod(rows, p) < k:
                return True
    return False


def is_nil_element(m, p, u):
    """u is nil: some principal power vanishes (cycle detection bounds the scan)."""
    seen = set()
    current = tuple(u)
    while True:
        if not any(current):
            return True
        if current in seen:
            return False
        seen.add(current)
        current = evo_mult(m, p, u, current)


def all_elements_nil(m, p):
    return all(is_nil_element(m, p, u) for u in normalized_vectors(p, len(m)))


# ------------------------------------------------------------- corpus sampling


def sample_structure_matrices(p, n, count, seed, predicate=None):
    """All p^(n*n) matrices when few enough, otherwise a seeded sample.

    The enumeration reads each digit tuple as a base-p code, least
    significant digit first, row by row: matrix number c is the base-p
    expansion of c."""
    total = p ** (n * n)
    if total <= count:
        # zip over n copies of one iterator cuts the digits into rows of n.
        matrices = (tuple(zip(*[reversed(digits)] * n))
                    for digits in product(range(p), repeat=n * n))
    else:
        rng = random.Random(seed)
        matrices = (tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(n))
                    for _ in range(count * 20))
    produced = 0
    for m in matrices:
        if predicate is not None and not predicate(m):
            continue
        yield m
        produced += 1
        if produced >= count:
            return


# ---------------------------------------------------------------- oracle cases
#
# A case factory takes (p, dim), does the work shared by every matrix of a
# run, and returns a case: a function of one structure matrix m (integer
# rows mod p) and its algebra that yields (vector or None, agrees) for each
# check it makes, the vector being the input of a per-vector check.


MAX_ORACLE_POINTS = 1000   # projective points (natural-vectors: vectors) a brute force may scan


def _natural_vectors_case(p, dim):
    """Thm-style natural-vector test vs membership in the enumerated
    natural bases (every nonzero u when dim = 1)."""
    # Every nonzero multiple of each point is checked.
    if p ** dim - 1 > MAX_ORACLE_POINTS:
        raise DimensionTooLarge(f"oracle natural-vectors over GF({p}) at dimension {dim} checks "
                                f"{p ** dim - 1} vectors per matrix; the limit is {MAX_ORACLE_POINTS}")
    points = normalized_vectors(p, dim)

    def case(m, algebra):
        members = {v for basis in enumerate_natural_bases(m, p) for v in basis}
        for u in points:
            expected = u in members
            for scale in range(1, p):
                scaled = tuple(x * scale % p for x in u)
                yield scaled, natural.is_natural_vector(algebra, scaled) == expected
    return case


def _ideal_lattice_case(p, dim):
    """Perfect-algebra ideal lattice vs full subspace enumeration."""
    subspaces = all_subspaces(p, dim)

    def case(m, algebra):
        spaces = (Subspace.from_vectors(algebra.field, dim, [list(r) for r in rows])
                  for rows in subspaces)
        brute = {s for s in spaces if ideals.is_ideal(algebra, s)}
        yield None, brute == set(ideals.ideal_lattice_perfect(algebra))
    return case


def _minor_condition_case(p, dim):
    """Triple-product existence vs the vanishing-minor condition, both ways."""
    def case(m, algebra):
        brute = brute_triple_exists(m, p)
        condition = minor_condition_exists(m, p)
        scan = nilpotency.find_orthogonality_witness(algebra)
        yield None, brute == condition == (scan.witness is not None)
    return case


def _nilpotency_case(p, dim):
    """Annihilator-chain verdict and right-nilpotency index vs the least k
    with A^<k> = 0 among A^<2> .. A^<dim+1>, and exhaustive nil-ness."""
    def case(m, algebra):
        report = nilpotency.nilpotency_report(algebra)
        right = full = Subspace.full(algebra.field, dim)
        index = None
        for k in range(2, dim + 2):
            right = nilpotency.product_space(algebra, right, full)
            if index is None and right.dim == 0:
                index = k
        nil = all_elements_nil(m, p)
        yield None, (report.is_nilpotent == (index is not None) == nil
                     and report.right_nilpotency_index == index)
    return case


def _cube_nilpotent_case(p, dim):
    """u^3 = 0 existence vs vanishing principal minors (perfect algebras).

    A vanishing minor is necessary; it is also sufficient only when every
    element of GF(p) is a square (p = 2), since the witness needs square
    roots.  For p <= 7 the scan tries every kernel vector of every
    vanishing minor, so it finds an element exactly when one exists."""
    def case(m, algebra):
        brute = brute_cube_zero_exists(m, p)
        minor = vanishing_principal_minor_exists(m, p)
        element = nilpotency.find_cube_nilpotent(algebra).element
        yield None, ((minor or not brute)
                     and (p != 2 or minor == brute)
                     and (p > 7 or brute == (element is not None))
                     and (element is None or element.power(3).is_zero()))
    return case


# ------------------------------------------------------------------ oracle runs


@dataclass(frozen=True)
class OracleReport:
    name: str
    checked: int
    mismatches: tuple   # failing inputs: (matrix, vector or None)


# name: (case factory, default sample count, nonsingular matrices only)
ORACLES = {
    "natural-vectors": (_natural_vectors_case, 2000, False),
    "ideal-lattice": (_ideal_lattice_case, 500, True),
    "minor-condition": (_minor_condition_case, 2000, True),
    "nilpotency": (_nilpotency_case, 2000, False),
    "cube-nilpotent": (_cube_nilpotent_case, 2000, True),
}


def run_oracle(name, p, dim, samples=None, seed=7):
    """Diff one oracle against its fast path over a seeded corpus of
    structure matrices: every check of every matrix is counted, and every
    disagreement is kept as (matrix, vector or None)."""
    if name not in ORACLES:
        raise InvalidArgument(f"unknown oracle {name!r}; the oracles are "
                              + ", ".join(sorted(ORACLES)))
    factory, default_samples, nonsingular = ORACLES[name]
    if dim < 1:
        raise InvalidArgument(f"dimension must be at least 1, got {dim}")
    if samples is not None and samples < 1:
        raise InvalidArgument(f"samples must be at least 1, got {samples}")
    points = 0
    for k in range(dim):   # Horner for (p^dim - 1)/(p - 1), stopped past the limit
        points = points * p + 1
        if points > MAX_ORACLE_POINTS:
            count = points if k == dim - 1 else f"more than {points}"
            raise DimensionTooLarge(f"brute force over GF({p}) at dimension {dim} scans "
                                    f"{count} projective points; the limit is {MAX_ORACLE_POINTS}")
    case = factory(p, dim)
    field = GF(p)
    predicate = (lambda m: rank_mod(m, p) == dim) if nonsingular else None
    checked = 0
    mismatches = []
    for m in sample_structure_matrices(p, dim, default_samples if samples is None else samples,
                                       seed, predicate):
        for u, agrees in case(m, EvolutionAlgebra(field, m)):
            checked += 1
            if not agrees:
                mismatches.append((m, u))
    return OracleReport(name, checked, tuple(mismatches))
