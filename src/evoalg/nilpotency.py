"""Power sequences, nilpotency analysis, and vanishing-minor witnesses.

Three power sequences are tracked: principal powers A^k (sums of all
products of lower powers), right powers A^<k> = A^<k-1> A, and the
solvable sequence A^[k] = A^[k-1] A^[k-1].  Nilpotency is decided by
the chain ann^1 <= ann^2 <= ... where ann^k is spanned by the basis
vectors whose square falls in ann^(k-1); the chain reaches the whole
space exactly for nilpotent algebras.
"""

import dataclasses
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import mul

from .algebra import Element
from .errors import InvalidArgument, NotPerfect, SelfCheckFailed
from .ideals import structure_digraph
from .linalg import Subspace


def product_space(algebra, s, t):
    """Span of all pairwise products of the two subspaces' basis vectors
    (exact by bilinearity)."""
    vectors = []
    for a in s.basis:
        ea = Element(algebra, a)
        for b in t.basis:
            vectors.append((ea * Element(algebra, b)).coords)
    return Subspace.from_vectors(algebra.field, algebra.n, vectors)


@dataclass(frozen=True)
class PowerSpaces:
    principal: Subspace   # A^k
    right: Subspace       # A^<k>
    solvable: Subspace    # A^[k]


def power_spaces(algebra, k):
    if k < 1:
        raise ValueError("power index must be >= 1")
    full = Subspace.full(algebra.field, algebra.n)
    principal = [None, full]
    for m in range(2, k + 1):
        acc = Subspace.zero(algebra.field, algebra.n)
        for i in range(1, m):
            acc = acc + product_space(algebra, principal[i], principal[m - i])
        principal.append(acc)
    right = full
    for _ in range(k - 1):
        right = product_space(algebra, right, full)
    solv = full
    for _ in range(k - 1):
        solv = product_space(algebra, solv, solv)
    return PowerSpaces(principal[k], right, solv)


@dataclass(frozen=True)
class NilpotencyReport:
    is_nilpotent: bool
    ann_chain: tuple              # Subspaces, strictly increasing until stable
    ann_chain_indices: tuple      # index sets backing the chain
    type_sequence: tuple          # dimension increments, empty when not nilpotent
    right_nilpotency_index: int | None
    triangular_order: tuple | None  # basis order making M strictly upper triangular


def _annihilator_chain_indices(algebra):
    n = algebra.n
    supports = structure_digraph(algebra)
    current = frozenset(i for i in range(n) if not supports[i])
    chain = [current]
    while True:
        bigger = frozenset(i for i in range(n) if supports[i] <= current)
        if bigger == current:
            return chain
        chain.append(bigger)
        current = bigger


def nilpotency_report(algebra):
    n = algebra.n
    chain_indices = _annihilator_chain_indices(algebra)
    chain = tuple(Subspace.coordinate(algebra.field, n, s) for s in chain_indices)
    nilpotent = len(chain_indices[-1]) == n
    if not nilpotent:
        return NilpotencyReport(False, chain, tuple(chain_indices), (), None, None)
    dims = [len(s) for s in chain_indices]
    type_sequence = tuple(d - prev for d, prev in zip(dims, [0] + dims[:-1]))
    # Reordering by annihilator stratum makes M strictly upper triangular:
    # the square of a stratum-k vector is supported on strata < k.
    stratum = {}
    for level, s in enumerate(chain_indices):
        for i in s:
            stratum.setdefault(i, level)
    order = tuple(sorted(range(n), key=lambda i: (stratum[i], i)))
    return NilpotencyReport(True, chain, tuple(chain_indices), type_sequence,
                            len(type_sequence) + 1, order)


def is_cube_zero(algebra):
    """A^3 = 0 iff every index has a zero row or a zero column."""
    m = algebra.M
    n = algebra.n
    for i in range(n):
        if any(m.row(i)) and any(m.column(i)):
            return False
    return True


@dataclass(frozen=True)
class MinorWitness:
    gamma: tuple    # support of u
    omega: tuple    # support of v and w
    u: Element
    v: Element
    w: Element


@dataclass(frozen=True)
class OrthogonalityScan:
    witness: MinorWitness | None
    truncated: bool
    max_subset_size: int
    minors: int = dataclasses.field(default=0, compare=False)   # square minors evaluated


def _plain_rows(algebra):
    """M as rows of plain numbers with the same vanishing minors, plus the
    reduction and inversion that go with them: residues mod p, or over Q
    integer rows (each row scaled by the lcm of its denominators, which
    multiplies every minor by a nonzero constant) with Fraction inverses."""
    p = algebra.field.p
    if p is not None:
        return ([[x.r for x in row] for row in algebra.M.data],
                lambda x: x % p, lambda x: pow(x, -1, p))
    rows = []
    for row in algebra.M.data:
        scale = lcm(*(x.denominator for x in row))
        rows.append([int(x * scale) for x in row])
    return rows, lambda x: x, lambda x: Fraction(1, x)


def find_orthogonality_witness(algebra, max_subset_size=None):
    """Search index pairs (Gamma, Omega), ordered by size then
    lexicographically, for which every maximal square submatrix of
    M[Gamma, Omega] vanishes (rank below min(|Gamma|, |Omega|)); build a
    verified triple u (v w) = 0 from the first hit.  Only valid for
    perfect algebras.

    The first hit is always square: a rank-deficient M[Gamma, Omega] with
    |Gamma| > |Omega| contains a singular square block on a smaller Gamma,
    and one with |Gamma| < |Omega| a singular square block on the same
    Gamma and a smaller Omega, both earlier in the order.  So only square
    pairs are scanned, one size at a time, each k x k minor built by
    Laplace expansion along the first row of Gamma from the (k-1) x (k-1)
    minors of the size below."""
    if max_subset_size is not None and max_subset_size < 1:
        raise InvalidArgument(f"subset size cap must be at least 1, got {max_subset_size}")
    if not algebra.is_perfect():
        raise NotPerfect("the minor criterion requires a perfect algebra")
    n = algebra.n
    cap = min(n, 12 if max_subset_size is None else max_subset_size)
    rows, red, _ = _plain_rows(algebra)
    # below[gamma][i] = det M[gamma, i-th omega of the size below]; the
    # empty minor is 1.  Only gammas that are the tail of a larger gamma
    # (those without index 0) are kept for the next size.
    below, below_index = {(): [1]}, {(): 0}
    minors = 0
    for k in range(1, cap + 1):
        omegas = list(combinations(range(n), k))
        drops = [[below_index[o[:t] + o[t + 1:]] for t in range(k)] for o in omegas]
        signed = {g: [[-row[j] if t % 2 else row[j] for t, j in enumerate(o)]
                      for o in omegas]
                  for g, row in enumerate(rows[:n - k + 1])}
        level = {}
        for gamma in combinations(range(n), k):
            tail = below[gamma[1:]].__getitem__
            dets = [red(sum(map(mul, coeffs, map(tail, drop))))
                    for coeffs, drop in zip(signed[gamma[0]], drops)]
            minors += len(dets)
            if 0 in dets:
                witness = _witness_for_pair(algebra, gamma, omegas[dets.index(0)])
                return OrthogonalityScan(witness, False, cap, minors)
            if gamma[0] and k < cap:
                level[gamma] = dets
        below, below_index = level, {o: i for i, o in enumerate(omegas)}
    return OrthogonalityScan(None, cap < n, cap, minors)


def _witness_for_pair(algebra, gamma, omega):
    field = algebra.field
    sub = algebra.M.submatrix(gamma, omega)
    if sub.rank() >= min(len(gamma), len(omega)):
        return None
    alpha = next(iter(sub.kernel().basis))
    shrunk = tuple(j for j, a in zip(omega, alpha) if a)
    coeffs = [a for a in alpha if a]
    n = algebra.n
    u = [field.zero] * n
    for t in gamma:
        u[t] = field.one
    v = [field.zero] * n
    w = [field.zero] * n
    for j, a in zip(shrunk, coeffs):
        v[j] = a
        w[j] = field.one
    u, v, w = algebra.element(u), algebra.element(v), algebra.element(w)
    if not (u * (v * w)).is_zero():
        raise SelfCheckFailed("vanishing-minor triple has u (v w) != 0")
    return MinorWitness(tuple(gamma), shrunk, u, v, w)


@dataclass(frozen=True)
class CubeNilpotentScan:
    element: Element | None
    minor_indices: tuple | None   # first vanishing principal minor found
    needs_square_roots: bool
    minors: int = dataclasses.field(default=0, compare=False)   # principal minors evaluated

    @property
    def diagnostic(self):
        if self.needs_square_roots:
            return "minor vanishes, witness needs square roots"
        return None


def cube_witness_from_minor(algebra, gamma):
    """Try to turn a vanishing principal minor over gamma into an element u
    with u^3 = 0 by taking square roots of a kernel vector.  Returns None
    when no scanned kernel vector has all-square entries."""
    field = algebra.field
    gamma = tuple(sorted(gamma))
    sub = algebra.M.submatrix(gamma, gamma)
    kern = sub.kernel()
    for beta in _kernel_candidates(field, kern):
        roots = [field.sqrt(b) for b in beta]
        if any(r is None for r in roots):
            continue
        coords = [field.zero] * algebra.n
        for j, r in zip(gamma, roots):
            coords[j] = r
        u = algebra.element(coords)
        if not u.is_zero() and u.power(3).is_zero():
            return u
    return None


def _kernel_candidates(field, kern):
    basis = [list(v) for v in kern.basis]
    if not basis:
        return
    if field.characteristic == 0 or field.p <= 7:
        coefficients = range(-2, 3) if field.characteristic == 0 else range(field.p)
        for coeffs in product(coefficients, repeat=len(basis)):
            if not any(coeffs):
                continue
            v = [field.zero] * len(basis[0])
            for c, b in zip(coeffs, basis):
                if c:
                    v = [x + c * y for x, y in zip(v, b)]
            yield v
    else:
        # Each b of the RREF basis has a leading 1, so a multiple c * b can
        # have only square entries only for a square c, and then exactly
        # when b has them (Euler's criterion): b stands for all multiples.
        yield from basis


def _border(rows, gamma, q, inverses, red, inv):
    """Inverse of M[gamma, gamma] (in gamma's order) from the kept inverse
    of the block without j = gamma[q], or None when M[gamma, gamma] is
    singular: the Schur complement s = m_jj - M[j, rest] inverse M[rest, j]
    is det M[gamma, gamma] / det M[rest, rest]."""
    j = gamma[q]
    rest = gamma[:q] + gamma[q + 1:]
    inverse = inverses[rest]
    row = [rows[j][i] for i in rest]
    x = [red(sum(map(mul, r, (rows[i][j] for i in rest)))) for r in inverse]
    s = red(rows[j][j] - sum(map(mul, row, x)))
    if not s:
        return None
    s_inv = inv(s)
    y = [red(-sum(map(mul, row, c)) * s_inv) for c in zip(*inverse)]
    grown = []
    for r, xi in zip(inverse, x):
        r = [red(a - xi * b) for a, b in zip(r, y)]
        r.insert(q, red(-xi * s_inv))
        grown.append(r)
    y.insert(q, s_inv)
    grown.insert(q, y)
    return grown


def find_cube_nilpotent(algebra):
    """Scan principal minors by increasing subset size (lexicographic within
    a size); a vanishing minor plus an all-squares kernel vector yields a
    verified u with u^3 = 0.

    Each block M[gamma, gamma] is bordered from a nonsingular block one
    index smaller whose inverse the previous size kept, at O(k^2) per
    subset: the prefix gamma[:-1] first, else another kept block.  Only
    blocks that do not end at the last index are kept, since only they are
    a prefix of a larger block.  With no kept block to border, the minor is
    computed afresh."""
    if not algebra.is_perfect():
        raise NotPerfect("nilpotent-of-order-3 detection requires a perfect algebra")
    n = algebra.n
    rows, red, inv = _plain_rows(algebra)
    first_vanishing = None
    minors = 0
    inverses = {(): []}
    for size in range(1, n + 1):
        grown = {}
        for gamma in combinations(range(n), size):
            minors += 1
            q = next((q for q in reversed(range(size))
                      if gamma[:q] + gamma[q + 1:] in inverses), None)
            if q is None:
                singular = not algebra.M.minor(gamma, gamma)
            else:
                block = _border(rows, gamma, q, inverses, red, inv)
                singular = block is None
                if block is not None and gamma[-1] < n - 1:
                    grown[gamma] = block
            if not singular:
                continue
            if first_vanishing is None:
                first_vanishing = gamma
            u = cube_witness_from_minor(algebra, gamma)
            if u is not None:
                return CubeNilpotentScan(u, gamma, False, minors)
        inverses = grown
    if first_vanishing is not None:
        return CubeNilpotentScan(None, first_vanishing, True, minors)
    return CubeNilpotentScan(None, None, False, minors)
