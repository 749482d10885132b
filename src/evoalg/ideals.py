"""Basic ideals, ideal lattices of perfect algebras, simplicity tests.

The digraph on indices (i -> j whenever e_j appears in e_i^2) drives
everything: coordinate spans of descendant-closed index sets are exactly
the ideals spanned by basis vectors, a reordering to block upper
triangular form exists iff the digraph has a proper nonempty closed set,
and strong connectivity therefore decides both simplicity (together with
a nonsingular structure matrix) and relative basic simplicity.
"""

from dataclasses import dataclass

from .algebra import Element
from .errors import AnswerTooLarge, NotPerfect
from .linalg import Subspace

MAX_CLOSED_SETS = 1 << 16


def structure_digraph(algebra):
    """Adjacency sets: i -> j iff entry (j, i) of M is nonzero."""
    return [frozenset(j for j in range(algebra.n) if algebra.M.entry(j, i))
            for i in range(algebra.n)]


def reachable(adjacency, sources):
    """The sources together with every vertex reachable from them."""
    seen = set(sources)
    frontier = list(seen)
    while frontier:
        for w in adjacency[frontier.pop()]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return frozenset(seen)


def strongly_connected_components(adjacency):
    """Tarjan's algorithm, iterative; components in reverse topological order."""
    n = len(adjacency)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, iter(sorted(adjacency[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(adjacency[w]))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
    return components


def is_ideal(algebra, subspace):
    """A I <= I, checked on basis vectors times RREF rows (bilinearity)."""
    for row in subspace.basis:
        s = Element(algebra, row)
        for i in range(algebra.n):
            if not subspace.contains((algebra.unit(i) * s).coords):
                return False
    return True


def is_basic_ideal(algebra, subspace):
    """An ideal equal to the span of the standard basis vectors it touches."""
    if not is_ideal(algebra, subspace):
        return False
    support = set()
    for row in subspace.basis:
        support.update(i for i, x in enumerate(row) if x)
    return len(support) == subspace.dim


def descendant_closed_sets(algebra):
    """All index sets closed under taking descendants, sorted; these are
    exactly the sets whose coordinate spans are ideals.  Families of more
    than MAX_CLOSED_SETS sets are refused with AnswerTooLarge."""
    adjacency = structure_digraph(algebra)
    closures = [reachable(adjacency, [i]) for i in range(algebra.n)]
    # Closed sets are exactly the unions of single-index closures.
    # The new sets of a step are collected apart and counted as they come,
    # so a family past the cap is refused before it is built.
    family = {frozenset()}
    for c in closures:
        new = set()
        for s in family:
            t = s | c
            if t not in family:
                new.add(t)
                if len(family) + len(new) > MAX_CLOSED_SETS:
                    raise AnswerTooLarge(f"more than {MAX_CLOSED_SETS} (2^16) descendant-closed "
                                         "index sets; the enumeration is capped there")
        family |= new
    return sorted(family, key=lambda s: (len(s), sorted(s)))


@dataclass(frozen=True)
class IdealLattice:
    ideals: tuple         # Subspaces
    basic_flags: tuple    # parallel booleans
    generators: tuple     # index tuple per basic ideal


def ideal_lattice_perfect(algebra):
    """All ideals of a perfect algebra: every nonzero ideal is basic, so the
    lattice is the family of descendant-closed coordinate spans."""
    if not algebra.is_perfect():
        raise NotPerfect("the complete ideal lattice is only available for perfect algebras")
    closed = descendant_closed_sets(algebra)
    ideals = tuple(Subspace.coordinate(algebra.field, algebra.n, s) for s in closed)
    generators = tuple(tuple(sorted(s)) for s in closed)
    return IdealLattice(ideals, tuple(True for _ in ideals), generators)


def is_simple(algebra):
    """Nonsingular structure matrix plus strongly connected digraph."""
    if not algebra.is_perfect():
        return False
    return len(strongly_connected_components(structure_digraph(algebra))) == 1


def is_basic_simple_relative(algebra):
    """No proper nonempty descendant-closed index set, i.e. one SCC."""
    return len(strongly_connected_components(structure_digraph(algebra))) == 1


def is_basic_simple(algebra):
    """True / False / None.  For perfect algebras basic ideals do not depend
    on the natural basis, so the relative test decides.  Otherwise every
    natural basis must be inspected, which is only feasible by exhaustive
    enumeration over small finite fields (dimension <= 3); beyond that the
    answer is None (unknown)."""
    if algebra.n == 1:
        return True
    if algebra.is_perfect():
        return is_basic_simple_relative(algebra)
    if not is_basic_simple_relative(algebra):
        return False
    if algebra.field.characteristic == 0 or algebra.n > 3 or algebra.field.p > 7:
        return None
    from .oracles import enumerate_natural_bases_algebra
    for basis in enumerate_natural_bases_algebra(algebra):
        rebased = algebra.change_basis(basis)
        if not is_basic_simple_relative(rebased):
            return False
    return True
