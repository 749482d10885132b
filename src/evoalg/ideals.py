"""Basic ideals, ideal lattices of perfect algebras, simplicity tests.

The structure digraph EvolutionAlgebra.digraph (i -> j whenever e_j
appears in e_i^2, built once per algebra) drives everything: coordinate
spans of descendant-closed index sets are exactly the ideals spanned by
basis vectors, a reordering to block upper triangular form exists iff
the digraph has a proper nonempty closed set, and strong connectivity
therefore decides relative basic simplicity, and simplicity together
with a nonsingular structure matrix.
"""

from dataclasses import dataclass

from .errors import AnswerTooLarge, NotPerfect
from .linalg import Subspace

MAX_CLOSED_SETS = 1 << 16


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


def reversed_digraph(adjacency):
    """The digraph with every edge turned around."""
    out = [set() for _ in adjacency]
    for i, targets in enumerate(adjacency):
        for j in targets:
            out[j].add(i)
    return out


def is_strongly_connected(adjacency):
    """Vertex 0 reaches every vertex, and every vertex reaches vertex 0."""
    return all(len(reachable(adj, [0])) == len(adjacency)
               for adj in (adjacency, reversed_digraph(adjacency)))


def _support(subspace):
    """The indices where some basis row of the subspace is nonzero."""
    return {i for row in subspace.plain for i, x in enumerate(row) if x}


def is_ideal(algebra, subspace):
    """A I <= I.  By bilinearity it suffices that e_i s = s_i e_i^2 lies in
    I for every RREF row s and every i, that is that e_i^2 does for every
    i in the support of I."""
    if not subspace.dim:
        return True
    algebra._check_space(subspace)
    squares = list(zip(*algebra.M.plain))
    return all(subspace.contains(squares[i]) for i in _support(subspace))


def is_basic_ideal(algebra, subspace):
    """An ideal equal to the span of the standard basis vectors it touches."""
    return is_ideal(algebra, subspace) and len(_support(subspace)) == subspace.dim


def descendant_closed_sets(algebra):
    """All index sets closed under taking descendants, sorted; these are
    exactly the sets whose coordinate spans are ideals.  Families of more
    than MAX_CLOSED_SETS sets are refused with AnswerTooLarge."""
    adjacency = algebra.digraph
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
    return algebra.is_perfect() and is_basic_simple_relative(algebra)


def is_basic_simple_relative(algebra):
    """No proper nonempty descendant-closed index set: strongly connected."""
    return is_strongly_connected(algebra.digraph)


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
    if algebra.field.p is None or algebra.n > 3 or algebra.field.p > 7:
        return None
    from .oracles import enumerate_natural_bases_algebra
    for basis in enumerate_natural_bases_algebra(algebra):
        rebased = algebra.change_basis(basis)
        if not is_basic_simple_relative(rebased):
            return False
    return True
