"""Brute-force reference computations over small prime fields.

Everything here works on plain integer matrices modulo p, independent of
the exact-arithmetic classes, so these routines can serve as oracles for
the fast paths: natural-vector membership read from a walk over the
orthogonality graph (one symmetric neighbour mask per point) that stops at
the first natural basis through each point, ideal lattices by full
subspace enumeration, triple products and cube nilpotents by direct
scanning, and both minor conditions by one scan over blocks.  One clique
walk serves every natural-basis question and can start from any clique.
Orthogonality and u (v w) = 0 are decided against ker M, listed once per
matrix (u v = M (u o v)).
``run_oracle`` diffs an oracle against its fast path over a seeded corpus
in one loop; each oracle is one ``ORACLES`` row, a case factory and its
run settings.
"""

import random
from itertools import combinations, product
from operator import mul
from typing import NamedTuple

from . import ideals, natural, nilpotency
from .algebra import EvolutionAlgebra
from .errors import DimensionTooLarge, InvalidArgument
from .fields import GF
from .linalg import Matrix, Subspace

# ---------------------------------------------------------------- int linalgebra


def rref_mod(rows, p):
    """The RREF of a nonempty list of rows mod p, its rank and its pivot
    columns."""
    m = [list(r) for r in rows]
    pivots = []
    for pc in range(len(m[0])):
        pr = len(pivots)
        for pivot in range(pr, len(m)):
            if m[pivot][pc] % p:
                break
        else:
            continue
        m[pr], m[pivot] = m[pivot], m[pr]
        inv = pow(m[pr][pc], p - 2, p)
        m[pr] = [x * inv % p for x in m[pr]]
        for i in range(len(m)):
            if i != pr and m[i][pc] % p:
                f = m[i][pc]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[pr])]
        pivots.append(pc)
        if len(pivots) == len(m):
            break
    return m, len(pivots), pivots


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


def support_mask(v):
    """supp(v) as an int: bit i is set iff v_i != 0."""
    return sum(1 << i for i, x in enumerate(v) if x)


def _kernel_index(m, p):
    """ker M as the set of its p^z vectors, and the set of their support
    masks.  Since u v = M (u o v) and supp(u o v) = supp u & supp v, a
    product vanishes iff the common support is empty, or is the support of
    a kernel vector and the Hadamard product u o v lies in ker M."""
    vectors = {(0,) * len(m)}
    for b in kernel_mod(m, p, len(m)):
        vectors = {tuple((x + c * y) % p for x, y in zip(v, b))
                   for v in vectors for c in range(p)}
    return vectors, {support_mask(v) for v in vectors}


# ------------------------------------------------------- natural-basis search


def _orthogonality_graph(m, p, points):
    """Orthogonality graph on the points, one neighbour mask per point: bit
    j of the i-th mask and bit i of the j-th are set iff j != i and points i
    and j are orthogonal, M (a o b) = 0, decided against ker M (see
    _kernel_index): only overlapping points form a product."""
    kernel, kernel_masks = _kernel_index(m, p)
    masks = [support_mask(v) for v in points]
    adjacent = [0] * len(points)
    for i, (a, sa) in enumerate(zip(points, masks)):
        for j, sb in enumerate(masks[i + 1:], i + 1):
            common = sa & sb
            if not common or (common in kernel_masks and tuple(
                    x * y % p for x, y in zip(a, points[j])) in kernel):
                adjacent[i] |= 1 << j
                adjacent[j] |= 1 << i
    return adjacent


def _bases(points, adjacent, p, n, chosen, cands):
    """The full-rank n-cliques that extend the clique chosen by points of
    cands, in lexicographic order of the point indices they add (bitmask
    clique walk with a popcount cut, no pivoting).  The walk takes the
    lowest candidate k first, so every candidate left lies above k and
    cands & adjacent[k] keeps only later neighbours of k.  Any clique can
    start a walk: its indices as chosen, the AND of their masks as cands."""
    if len(chosen) == n:
        basis = tuple(points[k] for k in chosen)
        if rank_mod(basis, p) == n:
            yield basis
        return
    while cands.bit_count() >= n - len(chosen):
        k = (cands & -cands).bit_length() - 1
        cands &= cands - 1
        yield from _bases(points, adjacent, p, n, chosen + [k], cands & adjacent[k])


def enumerate_natural_bases(m, p):
    """All natural bases as sorted tuples of projective representatives:
    the full-rank n-cliques of the orthogonality graph, in lexicographic
    order of their point indices."""
    points = normalized_vectors(p, len(m))
    return list(_bases(points, _orthogonality_graph(m, p, points), p, len(m), [],
                       (1 << len(points)) - 1))


def natural_basis_members(m, p):
    """The projective points that lie in some natural basis.  From each
    point not yet covered, walk the cliques through it: the first
    full-rank one covers all its points, and a walk that finds none proves
    that no natural basis holds it, so later walks skip it."""
    points = normalized_vectors(p, len(m))
    adjacent = _orthogonality_graph(m, p, points)
    members, outside = set(), 0
    for i, u in enumerate(points):
        if u not in members:
            basis = next(_bases(points, adjacent, p, len(m), [i], adjacent[i] & ~outside), None)
            if basis is None:
                outside |= 1 << i
            else:
                members.update(basis)
    return members


def natural_basis_membership(m, p, u):
    """True iff u belongs to some natural basis (u = 0 never does)."""
    lead = next((x for x in u if x % p), None)
    if lead is None:
        return False
    inv = pow(lead, p - 2, p)
    return tuple(x * inv % p for x in u) in natural_basis_members(m, p)


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


def _triple_groups(p, n):
    """The scan lists of brute_triple_exists at dimension n: for each
    support S of a projective point, in order of first appearance, the
    points on S and the pairs (u, support mask of u) with |supp(u)| >= |S|."""
    cands = normalized_vectors(p, n)
    by_support = {}
    for v in cands:
        by_support.setdefault(support_mask(v), []).append(v)
    at_least = [[(u, s) for u in cands if (s := support_mask(u)).bit_count() >= k]
                for k in range(n + 1)]
    return [(vs, at_least[supp.bit_count()]) for supp, vs in by_support.items()]


def brute_triple_exists(m, p, groups=None):
    """Exists u, v, w with supp(v) = supp(w), |supp(u)| >= |supp(v)| and
    u (v w) = 0 (projective scan; u (v w) = 0 is decided against ker M, see
    _kernel_index).  Without the size restriction the triple condition is
    vacuous for n >= 2: any u supported away from supp(v w) qualifies.
    groups is _triple_groups(p, len(m)), built here unless a caller
    scanning many matrices passes it."""
    if groups is None:
        groups = _triple_groups(p, len(m))
    kernel, kernel_masks = _kernel_index(m, p)
    for vs, us in groups:
        for v in vs:
            for w in vs:
                vw = evo_mult(m, p, v, w)
                svw = support_mask(vw)
                for u, su in us:
                    common = su & svw
                    if not common or (common in kernel_masks and tuple(
                            x * y % p for x, y in zip(u, vw)) in kernel):
                        return True
    return False


def _nonempty_subsets(n):
    return [s for k in range(1, n + 1) for s in combinations(range(n), k)]


def _rank_deficient(m, p, pairs):
    """Exists (Gamma, Omega) among pairs, scanned in order up to the first,
    with rank M[Gamma, Omega] < min(|Gamma|, |Omega|)."""
    for gamma, omega in pairs:
        if rank_mod([[m[i][j] for j in omega] for i in gamma], p) < min(len(gamma), len(omega)):
            return True
    return False


def minor_condition_exists(m, p, subsets=None):
    """Exists nonempty Gamma, Omega with rank M[Gamma, Omega] < min size.
    subsets is _nonempty_subsets(len(m)), built here unless a caller
    scanning many matrices passes it."""
    if subsets is None:
        subsets = _nonempty_subsets(len(m))
    return _rank_deficient(m, p, product(subsets, repeat=2))


def brute_cube_zero_exists(m, p):
    n = len(m)
    for u in normalized_vectors(p, n):
        u2 = evo_mult(m, p, u, u)
        u3 = evo_mult(m, p, u, u2)
        if not any(u3):
            return True
    return False


def vanishing_principal_minor_exists(m, p):
    subsets = _nonempty_subsets(len(m))
    return _rank_deficient(m, p, zip(subsets, subsets))


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
    """Thm-style natural-vector test vs membership in some natural basis
    (every nonzero u when dim = 1)."""
    # Every nonzero multiple of each point is checked.
    if p ** dim - 1 > MAX_ORACLE_POINTS:
        raise DimensionTooLarge(f"oracle natural-vectors over GF({p}) at dimension {dim} checks "
                                f"{p ** dim - 1} vectors per matrix; the limit is {MAX_ORACLE_POINTS}")
    points = normalized_vectors(p, dim)

    def case(m, algebra):
        members = natural_basis_members(m, p)
        for u in points:
            expected = u in members
            for scale in range(1, p):
                scaled = tuple(x * scale % p for x in u)
                yield scaled, natural.is_natural_vector(algebra, scaled) == expected
    return case


def _ideal_lattice_case(p, dim):
    """Perfect-algebra ideal lattice vs full subspace enumeration."""
    spaces = [Subspace.from_vectors(GF(p), dim, [list(r) for r in rows])
              for rows in all_subspaces(p, dim)]

    def case(m, algebra):
        brute = {s for s in spaces if ideals.is_ideal(algebra, s)}
        yield None, brute == set(ideals.ideal_lattice_perfect(algebra))
    return case


def _minor_condition_case(p, dim):
    """Triple-product existence vs the vanishing-minor condition, both ways."""
    groups, subsets = _triple_groups(p, dim), _nonempty_subsets(dim)

    def case(m, algebra):
        brute = brute_triple_exists(m, p, groups)
        condition = minor_condition_exists(m, p, subsets)
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


class OracleReport(NamedTuple):
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
        for u, agrees in case(m, EvolutionAlgebra(field, Matrix._from_plain(field, m))):
            checked += 1
            if not agrees:
                mismatches.append((m, u))
    return OracleReport(name, checked, tuple(mismatches))
