"""Power sequences, nilpotency analysis, and vanishing-minor witnesses.

Three power sequences are tracked: principal powers A^k (sums of all
products of lower powers), right powers A^<k> = A^<k-1> A, and the
solvable sequence A^[k] = A^[k-1] A^[k-1].  Nilpotency is decided by
the chain ann^1 <= ann^2 <= ... where ann^k is spanned by the basis
vectors whose square falls in ann^(k-1), read from the structure digraph
EvolutionAlgebra.digraph; the chain reaches the whole space exactly for
nilpotent algebras, that is when the digraph has no cycle.
"""

from itertools import combinations, product
from operator import mul
from typing import NamedTuple

from .algebra import Element
from .errors import InvalidArgument, NotPerfect, SelfCheckFailed
from .linalg import Subspace


def product_space(algebra, s, t):
    """Span of all pairwise products of the two subspaces' basis vectors
    (exact by bilinearity), formed on their plain rows; zero products dropped."""
    # Plain rows of another field or length would multiply without
    # complaint.  A zero left factor reads neither.
    if s.dim:
        for space in (s, t):
            if space.dim:
                algebra._check_space(space)
    rows = [r for a in s.plain for b in t.plain if any(r := algebra._product(a, b))]
    return Subspace._from_plain(algebra.field, algebra.n, rows)


class PowerSpaces(NamedTuple):
    principal: Subspace   # A^k
    right: Subspace       # A^<k>
    solvable: Subspace    # A^[k]


def power_spaces(algebra, k):
    if k < 1:
        raise InvalidArgument(f"power index must be at least 1, got {k}")
    full = Subspace.full(algebra.field, algebra.n)
    principal = [None, full]
    for m in range(2, k + 1):
        # The product is commutative, so A^i A^(m-i) = A^(m-i) A^i: each
        # pair is formed once.
        acc = Subspace.zero(algebra.field, algebra.n)
        for i in range(1, m // 2 + 1):
            acc = acc + product_space(algebra, principal[i], principal[m - i])
        principal.append(acc)
    right = full
    for _ in range(k - 1):
        right = product_space(algebra, right, full)
    solv = full
    for _ in range(k - 1):
        solv = product_space(algebra, solv, solv)
    return PowerSpaces(principal[k], right, solv)


class NilpotencyReport(NamedTuple):
    is_nilpotent: bool
    ann_chain_indices: tuple      # ascending index tuples, strictly increasing until stable
    type_sequence: tuple          # dimension increments, empty when not nilpotent
    right_nilpotency_index: int | None
    triangular_order: tuple | None  # basis order making M strictly upper triangular


def _annihilator_chain_indices(algebra):
    """The levels ann^k as ascending index tuples: ann^1 is the indices
    with an empty out-set in the digraph, and ann^k those whose out-set
    lies in ann^(k-1)."""
    chain, below = [], frozenset()
    while True:
        level = tuple(i for i, out in enumerate(algebra.digraph) if out <= below)
        if chain and level == chain[-1]:
            return chain
        chain.append(level)
        below = frozenset(level)


def nilpotency_report(algebra):
    n = algebra.n
    chain_indices = _annihilator_chain_indices(algebra)
    nilpotent = len(chain_indices[-1]) == n
    if not nilpotent:
        return NilpotencyReport(False, tuple(chain_indices), (), None, None)
    dims = [len(s) for s in chain_indices]
    type_sequence = tuple(d - prev for d, prev in zip(dims, [0] + dims[:-1]))
    # Reordering by annihilator stratum makes M strictly upper triangular:
    # the square of a stratum-k vector is supported on strata < k.
    stratum = {}
    for level, s in enumerate(chain_indices):
        for i in s:
            stratum.setdefault(i, level)
    order = tuple(sorted(range(n), key=lambda i: (stratum[i], i)))
    return NilpotencyReport(True, tuple(chain_indices), type_sequence,
                            len(type_sequence) + 1, order)


def is_cube_zero(algebra):
    """A^3 = 0 iff every index has a zero row or a zero column of M: in the
    digraph, an empty out-set or no in-edge."""
    entered = frozenset().union(*algebra.digraph)
    return all(not out or i not in entered for i, out in enumerate(algebra.digraph))


class MinorWitness(NamedTuple):
    gamma: tuple    # support of u
    omega: tuple    # support of v and w
    u: Element
    v: Element
    w: Element


class OrthogonalityScan(NamedTuple):
    witness: MinorWitness | None
    truncated: bool
    max_subset_size: int
    minors: int = 0   # square minors evaluated


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
    # M times one nonzero constant, as plain integers, has the same
    # vanishing minors.
    rows, red = algebra.integral, algebra.field.reduce
    # below[gamma][i] = det M[gamma, i-th omega of the size below]; the
    # empty minor is 1.  Only gammas that are the tail of a larger gamma
    # (those without index 0) are kept for the next size.
    below, below_index = {(): [1]}, {(): 0}
    minors = 0
    for k in range(1, cap + 1):
        omegas = list(combinations(range(n), k))
        drops = [[below_index[o[:t] + o[t + 1:]] for t in range(k)] for o in omegas]
        level, head = {}, None
        for gamma in combinations(range(n), k):
            # The heads gamma[0] come in ascending order: the signed
            # coefficient rows of a head are built when it is first met.
            if gamma[0] != head:
                head, row = gamma[0], rows[gamma[0]]
                signed = [[-row[j] if t % 2 else row[j] for t, j in enumerate(o)]
                          for o in omegas]
            tail = below[gamma[1:]].__getitem__
            dets = [red(sum(map(mul, coeffs, map(tail, drop))))
                    for coeffs, drop in zip(signed, drops)]
            minors += len(dets)
            if 0 in dets:
                witness = _witness_for_pair(algebra, gamma, omegas[dets.index(0)])
                return OrthogonalityScan(witness, False, cap, minors)
            if gamma[0] and k < cap:
                level[gamma] = dets
        below, below_index = level, {o: i for i, o in enumerate(omegas)}
    return OrthogonalityScan(None, cap < n, cap, minors)


def _witness_for_pair(algebra, gamma, omega):
    # The scan found this minor zero on a nonzero multiple of M, so
    # M[gamma, omega] has a null vector.
    alpha = algebra.M.submatrix(gamma, omega).kernel().plain[0]
    shrunk = tuple(j for j, a in zip(omega, alpha) if a)
    n = algebra.n
    u, v, w = [0] * n, [0] * n, [0] * n
    for t in gamma:
        u[t] = 1
    for j, a in zip(omega, alpha):
        if a:
            v[j], w[j] = a, 1
    if any(algebra._product(u, algebra._product(v, w))):
        raise SelfCheckFailed("vanishing-minor triple has u (v w) != 0")
    return MinorWitness(tuple(gamma), shrunk,
                        *(Element._from_plain(algebra, x) for x in (u, v, w)))


class CubeNilpotentScan(NamedTuple):
    element: Element | None
    minor_indices: tuple | None   # first vanishing principal minor found
    needs_square_roots: bool
    minors: int = 0   # principal minors evaluated

    @property
    def diagnostic(self):
        if self.needs_square_roots:
            return "minor vanishes, witness needs square roots"
        return None


def cube_witness_from_minor(algebra, gamma):
    """Try to turn a vanishing principal minor over gamma into an element u
    with u^3 = 0 by taking square roots of a kernel vector beta of
    M[gamma, gamma].  Returns None when no scanned kernel vector has
    all-square entries.  u lives on gamma and u^2 = M beta, which vanishes
    on gamma, so u (u u) = 0 always; a failure raises SelfCheckFailed."""
    field = algebra.field
    gamma = tuple(sorted(gamma))
    kern = algebra.M.submatrix(gamma, gamma).kernel()
    for beta in _kernel_candidates(field, kern):
        roots = [field.plain_sqrt(b) for b in beta]
        if any(r is None for r in roots):
            continue
        u = [0] * algebra.n
        for j, r in zip(gamma, roots):
            u[j] = r
        if not any(u) or any(algebra._product(u, algebra._product(u, u))):
            raise SelfCheckFailed("kernel-vector root u has u^3 != 0")
        return Element._from_plain(algebra, u)
    return None


def _kernel_candidates(field, kern):
    """Plain kernel vectors to try: the small combinations of the RREF basis
    over Q or GF(p), p <= 7, else the basis itself.  A combination's entry
    at a basis vector's pivot is that vector's coefficient, so only square
    coefficients can give all-square entries: 0 and 1 of -2..2 over Q, the
    squares of GF(p).  The survivors keep their order."""
    basis = kern.plain
    if field.p is None or field.p <= 7:
        red = field.reduce
        squares = [c for c in (range(-2, 3) if field.p is None else range(field.p))
                   if field.plain_sqrt(red(c)) is not None]
        for coeffs in product(squares, repeat=len(basis)):
            if not any(coeffs):
                continue
            v = [0] * len(basis[0])
            for c, b in zip(coeffs, basis):
                if c:
                    v = [red(x + c * y) for x, y in zip(v, b)]
            yield v
    else:
        # Each b of the RREF basis has a leading 1, so a multiple c * b can
        # have only square entries only for a square c, and then exactly
        # when b has them (Euler's criterion): b stands for all multiples.
        yield from basis


def _schur(rows, top, lo, d, p):
    """One fraction-free elimination step on column lo with the pivot row
    top: each of rows keeps its columns past lo as (piv a - f b) / d, piv
    = top[lo] and f the row's own entry in column lo, exact on integers
    over Q; over GF(p) the division is skipped and entries are reduced."""
    piv, top = top[lo], top[lo + 1:]
    if p:
        return [[(piv * a - f * b) % p for a, b in zip(row[lo + 1:], top)]
                for row in rows for f in (row[lo],)]
    return [[(piv * a - f * b) // d for a, b in zip(row[lo + 1:], top)]
            for row in rows for f in (row[lo],)]


def _grow(state, j, p):
    """(nonsingular, state of gamma + (j)) from the state of gamma, when
    gamma is singular or the new diagonal entry of its complement is 0.

    A state (rows, d, first, r) is fraction-free (Bareiss) elimination on
    the indices of gamma, stopped with r rows and r columns left without a
    pivot; rows holds those first, then the rows and columns of the indices
    from first = gamma[-1] + 1 on, and d is the last pivot.  With r = 0,
    rows[i][k] = det M[gamma + (first + i), gamma + (first + k)] and
    d = det M[gamma, gamma], up to sign and one nonzero factor (Sylvester's
    identity).  The child adds the row and column of j to the waiting ones
    and eliminates their r + 1 columns, pivots from waiting rows, each step
    (piv a - f b) / d exact on integers (_schur); a column finds no pivot
    exactly when M[gamma + (j), gamma + (j)] is singular.  Over GF(p) only
    zero or not matters, and a step without the division scales the rows
    left by one nonzero constant, so entries are just reduced mod p.

    A child of a nonsingular gamma whose diagonal entry rows[lo][lo] is
    nonzero never comes here: find_cube_nilpotent decides it by that entry
    and runs its one step (_schur on the pivot row rows[lo] and the rows
    below it, in place) only when it expands that child."""
    rows, d, first, r = state
    lo = r + j - first
    rows = [row[:r] + row[lo:] for row in rows[:r] + rows[lo:]]
    for left in range(r + 1, 0, -1):
        for k in range(left):
            if rows[k][0]:
                break
        else:
            return False, (rows, d, j + 1, left)
        top = rows.pop(k)
        rows, d = _schur(rows, top, 0, d, p), top[0]
    return True, (rows, d, j + 1, 0)


def find_cube_nilpotent(algebra):
    """Scan principal minors by increasing subset size (lexicographic within
    a size); a vanishing minor plus an all-squares kernel vector yields a
    verified u with u^3 = 0.

    The subsets form a tree, gamma + (j) for j > gamma[-1] being a child of
    gamma, and each size is the children of the size below, in order.  The
    state of a nonsingular gamma holds its Schur complement (_grow), whose
    diagonal entry at j vanishes exactly when the child gamma + (j) is
    singular, so such a child is decided by reading one entry.  A
    nonsingular child with children of its own is kept as its parent's
    rows and its column lo, and its one elimination step, about
    (n - j)^2 operations, runs only when the next size expands it: the
    leaves, and whatever a witness leaves unexpanded, are never
    eliminated.  A scan that finds nothing thus takes 2^(n-1) - 1 steps,
    about 3 * 2^n operations in all: the all-principal-minors method of
    Griffin and Tsatsomeros, fraction-free as in Bareiss.  A singular
    gamma keeps its elimination where it stopped, and its children go on
    from there (_grow)."""
    if not algebra.is_perfect():
        raise NotPerfect("nilpotent-of-order-3 detection requires a perfect algebra")
    n = algebra.n
    p = algebra.field.p
    # (gamma, state, lo): lo is None when state is gamma's own, else state
    # is its nonsingular parent's and gamma's is one step from it at lo.
    level = [((), (algebra.integral, 1, 0, 0), None)]
    first_vanishing = None
    minors = 0
    while level:
        grown = []
        for gamma, state, lo in level:
            if lo is not None:
                rows, d = state[:2]
                state = (_schur(rows[lo + 1:], rows[lo], lo, d, p), rows[lo][lo],
                         gamma[-1] + 1, 0)
            rows, _, first, r = state
            for j in range(first, n):
                child = gamma + (j,)
                minors += 1
                if not r and rows[j - first][j - first]:
                    if j < n - 1:
                        grown.append((child, state, j - first))
                    continue
                nonsingular, child_state = _grow(state, j, p)
                if j < n - 1:
                    grown.append((child, child_state, None))
                if nonsingular:
                    continue
                if first_vanishing is None:
                    first_vanishing = child
                u = cube_witness_from_minor(algebra, child)
                if u is not None:
                    return CubeNilpotentScan(u, child, False, minors)
        level = grown
    if first_vanishing is not None:
        return CubeNilpotentScan(None, first_vanishing, True, minors)
    return CubeNilpotentScan(None, None, False, minors)
