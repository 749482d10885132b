"""Natural vectors, Property (2LI), canonical decompositions, extensions.

A nonzero u with support {i_1..i_r} is a natural vector iff either
u^2 != 0 and the squares e_{i_1}^2..e_{i_r}^2 span a line, or u^2 = 0
and all those squares vanish; over GF(2), a u with u^2 != 0 must also
extend inside its class (see is_natural_vector).  The canonical
decomposition splits the standard basis into the annihilator part plus
classes of indices whose squares are pairwise linearly dependent
(projective classes of the nonzero structure-matrix columns).  Every
question here reads that partition from EvolutionAlgebra.column_classes,
which each algebra builds once on plain values, or from the squares of a
given natural basis (decomposition_for_basis).
"""

from itertools import combinations
from typing import NamedTuple

from .algebra import Element, line_classes
from .errors import (Degenerate, NotANaturalBasis, NotExtendable,
                     NotNaturalVector, NotOrthogonal, ZeroVector)
from .fields import rational
from .linalg import Subspace, kernel_rows, reduce_bits, rref_rows


def is_natural_vector(algebra, u):
    """Whether u lies in some natural basis.

    Over GF(2) the support-line condition is not sufficient when u^2 != 0.
    Every nonzero square over supp(u) is then the class line l, so u^2 = l,
    u's class is C = {i : e_i^2 = l}, b(x, y) = sum_{j in C} x_j y_j and
    x^2 = b(x_C, x_C) l for x with support in ann u C.  Each vector f of a
    natural basis passes the line condition, so its support lies in ann and
    one class; those meeting C have b(f_C, f_C) = 1 and are pairwise
    b-orthogonal.  A pairwise orthogonal anisotropic family is independent
    (pair a relation with each member), so exactly |C| of them meet C and
    their C-parts form an orthogonal anisotropic basis of GF(2)^C
    containing u_C.  Conversely u, such a completion of u_C and the unit
    vectors outside C form a natural basis.  So u is natural iff u_C
    extends (_char2_completable): iff |C| = 1 or u_C != 1.
    """
    u = algebra._plain_of(u)
    if not any(u):
        raise ZeroVector("the zero vector is not a natural vector")
    if not _support_line_condition(algebra, u):
        return False
    if algebra.field.p == 2:
        # supp u meets at most one class, and u^2 != 0 when it meets one.
        for cls in algebra.column_classes.members:
            if any(u[i] for i in cls):
                return len(cls) == 1 or not all(u[i] for i in cls)
    return True


def _support_line_condition(algebra, u):
    """Squares over supp(u) span a line (u^2 != 0) or all vanish (u^2 = 0),
    for plain u.  The nonzero squares span a line iff they share one class
    C of algebra.column_classes; supp u then lies in ann u C, so
    u^2 = (sum_{i in C} lambda_i u_i^2) l_C and no product is needed."""
    classes = algebra.column_classes
    met = {classes.class_of[i] for i, x in enumerate(u) if x} - {None}
    if len(met) != 1:
        return not met
    lambdas = classes.lambdas
    return bool(algebra.field.reduce(sum(lambdas[i] * u[i] * u[i]
                                         for i in classes.members[met.pop()])))


def _char2_completable(field, lambdas, members):
    """Completion of pairwise-orthogonal anisotropic local vectors F of
    GF(2)^C to an orthogonal anisotropic basis under b(x, y) = sum x_j y_j
    (every lambda is 1); raises NotExtendable when there is none.

    b(x, x) = b(x, 1) for the all-ones 1, and F has Gram matrix I, so the
    form on F^perp is alternating iff 1 is in span F, i.e. iff 1 = XOR(F)
    (its projection sum b(1, f) f).  A nondegenerate symmetric form in
    characteristic 2 has an orthogonal basis iff it is not alternating
    (A. A. Albert, Trans. AMS 43, 1938): F extends iff |F| = |C| or
    XOR(F) != 1.  Each step appends the least v (bit k is coordinate k)
    with b(v, F) = 0 and b(v, 1) = 1 other than 1 ^ XOR(F), unless v is
    last.  A least-first exhaustive search keeps the same v: a w < v in a
    completion of F + {v} would have been kept first.
    """
    size = len(lambdas)
    ones = (1 << size) - 1
    family = [sum(x << k for k, x in enumerate(m)) for m in members]
    xor = 0
    for f in family:
        xor ^= f
    if len(family) < size and xor == ones:
        raise NotExtendable("no orthogonal completion exists over GF(2)")
    # The equations b(v, f) = c as one semi-echelon basis (reduce_bits),
    # with c at bit size; a row's lowest bit is its pivot.
    rows, pivots = [], []

    def least(v):
        # A pivot bit is fixed by the bits above it, so filling the pivots
        # from the highest gives the least solution with the free bits of v.
        for b, r in sorted(zip(pivots, rows), reverse=True):
            if ((r >> size) ^ (r & v).bit_count()) & 1:
                v |= 1 << b
        return v

    def search(family, xor, new):   # bench/layers.py hooks it by name
        while len(family) < size:
            for row in new:
                row = reduce_bits(rows, pivots, row)
                rows.append(row)
                pivots.append((row & -row).bit_length() - 1)
            v = least(0)
            free = ones & ~sum(1 << b for b in pivots)
            if v == ones ^ xor and free:   # on the last step no bit is free
                v = least(free & -free)
            family.append(v)
            xor ^= v
            new = [v]
        return family[len(members):]

    found = search(family, xor, family + [ones | 1 << size])
    return [[v >> k & 1 for k in range(size)] for v in found]


def has_property_2li(algebra):
    """Squares of any two distinct basis vectors are linearly independent:
    no square vanishes and no two share a class."""
    return algebra.n == 1 or len(algebra.column_classes.members) == algebra.n


def has_unique_natural_basis(algebra):
    """Whether the natural basis is unique up to order and scalars.

    Without an annihilator the natural bases are the orthogonal anisotropic
    bases of the classes under b = sum lambda_i x_i y_i (is_natural_vector).
    Over GF(2) a class of at most 3 indices has only the unit vectors, and
    the rows of J - I on 4 of its indices form another basis.  Over GF(3)
    lambda = +-1: two equal lambdas give the basis (1, 1), (1, -1) on their
    indices, and lambda (x^2 - y^2) vanishes off the axes.  Over larger
    fields (2LI) decides.
    """
    if algebra.n == 1:
        return True
    classes = algebra.column_classes
    if None in classes.class_of:
        # Annihilator vectors mix freely into other basis vectors.
        return False
    p, lambdas = algebra.field.p, classes.lambdas
    return all(len(idx) == 1 or (p == 2 and len(idx) <= 3)
               or (p == 3 and len(idx) == 2 and not sum(lambdas[i] for i in idx) % 3)
               for idx in classes.members)


class Decomposition(NamedTuple):
    """ann(A) + A_1 + ... + A_m as index sets of the natural basis: each
    summand is the coordinate span of its indices."""
    annihilator_indices: tuple   # ascending
    component_indices: tuple     # index tuple per class, ordered by smallest index
    component_squares: tuple     # normalized line generator per class (plain tuples)
    square_dim: int              # dim A^2, reported separately from the class count

    @property
    def component_count_matches_square_dim(self):
        return len(self.component_indices) == self.square_dim


def decompose(algebra):
    """The canonical decomposition, read from algebra.column_classes with
    each class line scaled to leading entry 1: the lines are monic over
    GF(p) and primitive integer rows with a positive lead over Q, so
    rational(x, lead) is that scaling over both fields."""
    classes = algebra.column_classes
    squares = []
    for line in classes.lines:
        lead = next(x for x in line if x)
        squares.append(tuple(rational(x, lead) for x in line))
    ann = tuple(i for i, c in enumerate(classes.class_of) if c is None)
    return Decomposition(ann, classes.members, tuple(squares), algebra.M.rank())


def decomposition_for_basis(algebra, basis_vectors):
    """Annihilator/component subspaces and class lines, in ambient coordinates,
    of the decomposition induced by a natural basis: its vectors grouped by
    the lines of their squares.  With P the basis as columns, P^-1 v_i^2 is 0
    or a multiple of P^-1 v_j^2 exactly when v_i^2 is.

    The grouping does not depend on the basis modulo ann(A), by this theorem.
    For a natural basis B, x f = x_f f^2 for f in B, so ann(A) =
    span{f in B : f^2 = 0}, and for a line L the space A_L = {x : x A <= L}
    is ann(A) + span{f in B : f^2 in L, f^2 != 0}.  So any two natural
    bases have the same square lines (the L with A_L != ann(A)), the same
    annihilator span, and, line by line, components equal modulo ann(A):
    they differ by a block change of basis."""
    vecs = [algebra._plain_of(v) for v in basis_vectors]
    if not algebra.verify_natural_basis(vecs):
        raise NotANaturalBasis("candidates are not a natural basis")
    classes = line_classes(algebra.field, [algebra._product(v, v) for v in vecs])

    def span(rows):
        return Subspace._from_plain(algebra.field, algebra.n, rows)

    return (span([v for v, c in zip(vecs, classes.class_of) if c is None]),
            tuple(span([vecs[i] for i in idx]) for idx in classes.members),
            tuple(span([line]) for line in classes.lines))


class ExtensionResult(NamedTuple):
    completed_basis: tuple   # Elements; the input family is a prefix
    added_vectors: tuple


def extend_family(algebra, family):
    """Extend a pairwise-orthogonal family of natural vectors of a
    non-degenerate algebra to a full natural basis: one completion call per
    class, on the class's local coordinates and lambdas (a class with no
    member gets its unit vectors)."""
    family = [f if isinstance(f, Element) else algebra.element(f) for f in family]
    classes = algebra.column_classes
    if None in classes.class_of:
        raise Degenerate("extension requires a non-degenerate algebra")
    plain = [algebra._plain_of(u) for u in family]
    for a in range(len(plain)):
        for b in range(a + 1, len(plain)):
            if any(algebra._product(plain[a], plain[b])):
                raise NotOrthogonal(f"family members {a} and {b} are not orthogonal")
    by_class = [[] for _ in classes.members]
    for u in plain:
        if not any(u) or not _support_line_condition(algebra, u):
            raise NotNaturalVector("family contains a non-natural vector")
        by_class[classes.class_of[next(i for i, x in enumerate(u) if x)]].append(u)

    field = algebra.field
    complete = _char2_completable if field.p == 2 else _complete_orthogonal
    added = []
    for idx, family_in_class in zip(classes.members, by_class):
        for loc in complete(field, [classes.lambdas[i] for i in idx],
                            [[u[i] for i in idx] for u in family_in_class]):
            v = [0] * algebra.n
            for pos, x in zip(idx, loc):
                v[pos] = x
            added.append(Element._from_plain(algebra, v))
    completed = family + added
    if not algebra.verify_natural_basis(completed):
        raise NotANaturalBasis("internal completion failed verification")
    return ExtensionResult(tuple(completed), tuple(added))


def _complete_orthogonal(field, lambdas, members):
    """Complete an orthogonal anisotropic family of plain vectors to an
    orthogonal basis of the diagonal form sum lambda_i x_i y_i
    (characteristic != 2); the empty family gets the unit vectors."""
    size = len(lambdas)
    red, inv = field.reduce, field.inv

    def bilinear(x, y):
        return red(sum(l * a * b for l, a, b in zip(lambdas, x, y)))

    # Orthogonal complement of the members; each round works on the RREF
    # basis of what is left.
    rows = [[red(l * c) for l, c in zip(lambdas, m)] for m in members]
    vecs = kernel_rows(rows, size, rref_rows(rows, size, field), red)
    out = []
    while vecs := vecs[:len(rref_rows(vecs, size, field))]:
        v = next((x for x in vecs if bilinear(x, x)), None)
        if v is None:
            # All isotropic: some cross pairing is nonzero; u+w is anisotropic
            # because b(u+w, u+w) = 2 b(u, w) and the characteristic is not 2.
            pair = next((x, y) for x, y in combinations(vecs, 2) if bilinear(x, y))
            v = [red(a + b) for a, b in zip(*pair)]
        out.append(v)
        scale = inv(bilinear(v, v))
        projected = []
        for x in vecs:
            f = red(bilinear(x, v) * scale)
            projected.append([red(a - f * b) for a, b in zip(x, v)])
        vecs = projected
    return out
