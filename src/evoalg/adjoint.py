"""Adjoint algebras, descendants, persistent/transient classification.

The adjoint of an algebra relative to its basis transposes the structure
matrix.  A basis vector is algebraically persistent relative to the basis
when the subalgebra it generates is spanned by basis vectors, is not a
zero algebra, and is basic simple; otherwise it is transient.  Grouping
persistent generators by their closures yields the 0th decomposition
A = A_1 + ... + A_s (+) E with E the span of the transient generators,
and iterating on E produces the hierarchy.
"""

from typing import NamedTuple

from .algebra import EvolutionAlgebra, reachable, reversed_digraph
from .errors import IndexOutOfRange, InvalidArgument
from .ideals import is_basic_simple, is_basic_simple_relative, is_simple
from .linalg import Subspace, row_support
from .nilpotency import nilpotency_report


def is_irreducible(algebra):
    """No splitting into two coordinate-closed parts: the underlying
    undirected graph of the structure digraph is connected."""
    adjacency = algebra.digraph
    undirected = [a | b for a, b in zip(adjacency, reversed_digraph(adjacency))]
    return len(reachable(undirected, [0])) == algebra.n


def descendants(algebra, i, k=None):
    """D^k(i) for a given k, or the full reachability closure D(i).

    D^(s+1)(i) is the union of the out-sets of D^s(i), so it depends on
    D^s(i) alone: from the first set that repeats, the sequence is periodic.
    The walk stops at D^k(i) or at that repeat, whichever comes first, and
    reads D^k(i) off the period, so a huge k costs no more steps than there
    are distinct sets."""
    if not 0 <= i < algebra.n:
        raise IndexOutOfRange(f"index {i} out of range for dimension {algebra.n}")
    if k is not None and k < 1:
        raise InvalidArgument(f"power index must be at least 1, got {k}")
    adjacency = algebra.digraph
    if k is not None:
        sets, first = [], {}   # sets[s] is D^(s+1)(i), first its inverse
        current = frozenset(adjacency[i])
        while len(sets) < k and current not in first:
            first[current] = len(sets)
            sets.append(current)
            current = frozenset().union(*(adjacency[j] for j in current))
        # current is D^(len(sets)+1)(i); with no repeat, start 0 reads sets[k - 1].
        start = first.get(current, 0)
        return sets[start + (k - 1 - start) % (len(sets) - start)]
    return reachable(adjacency, adjacency[i])


def adjoint_annihilator(algebra):
    """Span of the basis vectors that are nobody's descendant (no edge of
    the digraph enters them): the zero rows of M, which are the zero
    columns of the adjoint's matrix M^T, so this is the adjoint's
    annihilator.  A^2 annihilates it: every x in A^2 has x_j = 0 on a zero
    row j, and e_j x = x_j e_j^2."""
    return Subspace.coordinate(algebra.field, algebra.n,
                               set(range(algebra.n)).difference(*algebra.digraph))


class AdjointInvariants(NamedTuple):
    irreducible: bool
    simple: bool
    basic_simple_relative: bool
    nilpotent: bool


def adjoint_invariants(algebra):
    """The invariants A shares with its adjoint, read from A alone.
    The adjoint's matrix is M^T, so its edge i -> j (entry (j, i) of M^T
    nonzero) is the edge j -> i of A: its digraph is A's reversed.
    Reversal keeps weak connectivity (irreducible), strong connectivity
    (basic simple relative) and acyclicity, and det M^T = det M, so the
    two are perfect together and simple (perfect and strongly connected)
    together.  The annihilator chain reaches every index iff no index lies
    on a cycle, so nilpotency agrees too.  A closed set C of A
    has no edge leaving it, so the reversed digraph has none entering it:
    its complement is closed in the adjoint."""
    return AdjointInvariants(is_irreducible(algebra), is_simple(algebra),
                             is_basic_simple_relative(algebra),
                             nilpotency_report(algebra).is_nilpotent)


PERSISTENT = "persistent"
TRANSIENT = "transient"
UNKNOWN = "unknown"


class GeneratorClassification(NamedTuple):
    verdict: str                  # persistent / transient / unknown
    closure_support: tuple        # indices touched by the closure of the basis vector
    coordinate_spanned: bool      # the closure is the coordinate span of its support


def classify_generators(algebra):
    """Per-index classification relative to the standard basis, read from
    the closure's independent rows: it is spanned by basis vectors iff it
    has as many rows as its support has indices.  A spanned closure is the
    coordinate span of its support, so generators with equal supports share
    one verdict, decided once."""
    out = []
    verdicts = {}
    for i in range(algebra.n):
        rows = algebra._closure([algebra.unit(i)])
        support = row_support(rows)
        if len(rows) != len(support):
            out.append(GeneratorClassification(TRANSIENT, support, False))
            continue
        if support not in verdicts:
            induced = EvolutionAlgebra(algebra.field, algebra.M.submatrix(support, support))
            if induced.M.is_zero():
                # A zero-product subalgebra is never persistent.
                verdicts[support] = TRANSIENT
            else:
                basic = is_basic_simple(induced)
                verdicts[support] = (PERSISTENT if basic else
                                     UNKNOWN if basic is None else TRANSIENT)
        out.append(GeneratorClassification(verdicts[support], support, True))
    return out


class ZerothDecomposition(NamedTuple):
    components: tuple         # (generator indices, support indices) pairs
    transient_indices: tuple  # ascending; E is their coordinate span
    classifications: tuple
    diagnostics: tuple


def zeroth_decomposition(algebra):
    classes = classify_generators(algebra)
    diagnostics = []
    persistent = [i for i, c in enumerate(classes) if c.verdict == PERSISTENT]
    transient = [i for i, c in enumerate(classes) if c.verdict != PERSISTENT]
    for i, c in enumerate(classes):
        if c.verdict == UNKNOWN:
            diagnostics.append(
                f"generator {i}: basic simplicity of its closure is undecided; treated as transient")
    # A persistent closure is the span of its support T, so it holds e_j^2
    # for each j in T: T is closed and is the set reachable from i.  It is
    # basic simple, so T is strongly connected, and T = reach(k) for every
    # k in T.  So two persistent supports are equal or disjoint.
    groups = {}   # closure support -> persistent generators
    for i in persistent:
        groups.setdefault(classes[i].closure_support, []).append(i)
    if set(transient) & set().union(*groups):
        diagnostics.append("transient span intersects the persistent components")
    return ZerothDecomposition(tuple((tuple(g), s) for s, g in groups.items()),
                               tuple(transient), tuple(classes), tuple(diagnostics))


class HierarchyLevel(NamedTuple):
    algebra: EvolutionAlgebra
    ambient_indices: tuple    # indices of this level inside the original algebra
    decomposition: ZerothDecomposition
    projected: bool           # transient squares left the span and were projected


def hierarchy(algebra):
    """The tuple of HierarchyLevels: iterate the 0th decomposition on the
    transient span until it is empty or stops shrinking.  When the
    transient index set is not closed under descendants, the induced
    structure constants are the projections of the transient squares onto
    the transient coordinates and the level is flagged as projected."""
    levels = []
    current = algebra
    mapping = tuple(range(algebra.n))
    while True:
        dec = zeroth_decomposition(current)
        transient = dec.transient_indices
        projected = any(not current.digraph[j] <= set(transient) for j in transient)
        levels.append(HierarchyLevel(current, mapping, dec, projected))
        if not transient or len(transient) == current.n:
            break
        current = EvolutionAlgebra(current.field,
                                   current.M.submatrix(transient, transient))
        mapping = tuple(mapping[j] for j in transient)
    return tuple(levels)
