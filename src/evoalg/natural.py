"""Natural vectors, Property (2LI), canonical decompositions, extensions.

A nonzero u with support {i_1..i_r} is a natural vector iff either
u^2 != 0 and the squares e_{i_1}^2..e_{i_r}^2 span a line, or u^2 = 0
and all those squares vanish; over GF(2), a u with u^2 != 0 must also
extend inside its class (see is_natural_vector).  The canonical
decomposition splits the standard basis into the annihilator part plus
classes of indices whose squares are pairwise linearly dependent
(projective classes of the nonzero structure-matrix columns).
"""

from dataclasses import dataclass
from itertools import combinations

from .algebra import Element
from .errors import (Degenerate, NotANaturalBasis, NotExtendable,
                     NotNaturalVector, NotOrthogonal, ZeroVector)
from .linalg import Matrix, Subspace


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
    if not isinstance(u, Element):
        u = algebra.element(u)
    if u.is_zero():
        raise ZeroVector("the zero vector is not a natural vector")
    if not _support_line_condition(algebra, u):
        return False
    line = u.square().coords
    if algebra.field.characteristic == 2 and any(line):
        cls = [i for i in range(algebra.n) if algebra.column_square(i) == line]
        return len(cls) == 1 or not all(u.coords[i] for i in cls)
    return True


def _support_line_condition(algebra, u):
    """Squares over supp(u) span a line (u^2 != 0) or all vanish (u^2 = 0).
    When u^2 != 0 some square is nonzero, and the squares span a line iff
    the nonzero ones share one class key of decompose."""
    columns = [algebra.column_square(i) for i in u.support()]
    if u.square().is_zero():
        return all(not any(col) for col in columns)
    return len({_normalize_line(algebra.field, col) for col in columns if any(col)}) == 1


def _char2_completable(size, members):
    """Completion of pairwise-orthogonal anisotropic bitmasks F of GF(2)^size
    to an orthogonal anisotropic basis under b(x, y) = sum x_j y_j, or None.

    b(x, x) = b(x, 1) for the all-ones 1, and F has Gram matrix I, so the
    form on F^perp is alternating iff 1 is in span F, i.e. iff 1 = XOR(F)
    (its projection sum b(1, f) f).  A nondegenerate symmetric form in
    characteristic 2 has an orthogonal basis iff it is not alternating
    (A. A. Albert, Trans. AMS 43, 1938): F extends iff |F| = size or
    XOR(F) != 1.  Each step appends the least v with b(v, F) = 0 and
    b(v, 1) = 1 other than 1 ^ XOR(F), unless v is last.  A least-first
    exhaustive search keeps the same v: a w < v in a completion of F + {v}
    would have been kept first.
    """
    ones = (1 << size) - 1
    xor = 0
    for f in members:
        xor ^= f
    if len(members) < size and xor == ones:
        return None
    pivots = {}   # lowest bit (a mask) -> (row, rhs); no other row has it

    def search(family, xor, new):   # bench/layers.py hooks it by name
        # A pivot bit is fixed by the free bits above it, so the least
        # solution clears every free bit and the next sets the lowest one.
        while len(family) < size:
            for row, rhs in new:
                for low, (r, c) in pivots.items():
                    if row & low:
                        row, rhs = row ^ r, rhs ^ c
                low = row & -row
                for p, (r, c) in list(pivots.items()):
                    if r & low:
                        pivots[p] = (r ^ row, c ^ rhs)
                pivots[low] = (row, rhs)
            v = sum(p for p, (_, c) in pivots.items() if c)
            if v == ones ^ xor:   # on the last step no bit is free: j = 0
                j = ones & ~sum(pivots)
                j &= -j
                v ^= j | sum(p for p, (r, _) in pivots.items() if r & j)
            family.append(v)
            xor ^= v
            new = [(v, 0)]
        return family[len(members):]

    return search(list(members), xor, [(f, 0) for f in members] + [(ones, 1)])


def has_property_2li(algebra):
    """Squares of any two distinct basis vectors are linearly independent:
    no square vanishes and no two share a class."""
    return algebra.n == 1 or len(decompose(algebra).components) == algebra.n


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
    if algebra.annihilator().dim > 0:
        # Annihilator vectors mix freely into other basis vectors.
        return False
    p = algebra.field.characteristic
    dec = decompose(algebra)
    return all(len(idx) == 1 or (p == 2 and len(idx) <= 3)
               or (p == 3 and len(idx) == 2
                   and not sum(_component_lambdas(algebra, idx, line), algebra.field.zero))
               for idx, line in zip(dec.component_indices, dec.component_squares))


def _normalize_line(field, vec):
    lead = next(x for x in vec if x)
    inv = field.one / lead
    return tuple(inv * x for x in vec)


@dataclass(frozen=True)
class Decomposition:
    annihilator: Subspace
    components: tuple            # Subspace per class, ordered by smallest index
    component_indices: tuple     # tuple of index tuples
    component_squares: tuple     # normalized line generator per class (coord tuples)
    square_dim: int              # dim A^2, reported separately from the class count

    @property
    def component_count_matches_square_dim(self):
        return len(self.components) == self.square_dim


def decompose(algebra):
    field = algebra.field
    ann_indices = []
    classes = {}   # normalized column -> list of indices
    order = []
    for i in range(algebra.n):
        col = algebra.column_square(i)
        if not any(col):
            ann_indices.append(i)
            continue
        key = _normalize_line(field, col)
        if key not in classes:
            classes[key] = []
            order.append(key)
        classes[key].append(i)

    ann = Subspace.coordinate(field, algebra.n, ann_indices)
    components, indices, squares = [], [], []
    for key in sorted(order, key=lambda k: classes[k][0]):
        idx = tuple(classes[key])
        components.append(Subspace.coordinate(field, algebra.n, idx))
        indices.append(idx)
        squares.append(key)
    return Decomposition(ann, tuple(components), tuple(indices), tuple(squares),
                         algebra.square_space().dim)


def decomposition_for_basis(algebra, basis_vectors):
    """Annihilator/component subspaces, in ambient coordinates, of the
    decomposition induced by an arbitrary natural basis."""
    vecs = [algebra._coords_of(v) for v in basis_vectors]
    rebased = algebra.change_basis(vecs)
    dec = decompose(rebased)

    def to_ambient(rows):
        out = []
        for row in rows:
            v = [algebra.field.zero] * algebra.n
            for c, bv in zip(row, vecs):
                v = [x + c * y for x, y in zip(v, bv)]
            out.append(v)
        return Subspace.from_vectors(algebra.field, algebra.n, out)

    ann = to_ambient(dec.annihilator.basis)
    components = tuple(to_ambient(comp.basis) for comp in dec.components)
    return ann, components, tuple(to_ambient([key]) for key in dec.component_squares)


def verify_block_form(algebra, basis1, basis2):
    """Check the block change-of-basis shape between two natural bases:
    annihilator vectors map into the annihilator span, and each component
    maps into the span of the matching component plus the annihilator."""
    v1 = [algebra._coords_of(v) for v in basis1]
    v2 = [algebra._coords_of(v) for v in basis2]
    if not algebra.verify_natural_basis(v1) or not algebra.verify_natural_basis(v2):
        raise NotANaturalBasis("both candidates must be natural bases")
    ann1, comps1, lines1 = decomposition_for_basis(algebra, v1)
    ann2, comps2, lines2 = decomposition_for_basis(algebra, v2)
    if len(comps1) != len(comps2):
        return False
    # Align components by their square-lines.
    sigma = []
    for line in lines1:
        match = next((j for j, other in enumerate(lines2) if other == line), None)
        if match is None or match in sigma:
            return False
        sigma.append(match)
    if not ann2.contains_subspace(ann1):
        return False
    for i, comp in enumerate(comps1):
        target = ann2 + comps2[sigma[i]]
        if not target.contains_subspace(comp):
            return False
    return True


@dataclass(frozen=True)
class ExtensionResult:
    completed_basis: tuple   # Elements; the input family is a prefix
    added_vectors: tuple


def extend_family(algebra, family):
    """Extend a pairwise-orthogonal family of natural vectors of a
    non-degenerate algebra to a full natural basis."""
    family = [f if isinstance(f, Element) else algebra.element(f) for f in family]
    if algebra.annihilator().dim > 0:
        raise Degenerate("extension requires a non-degenerate algebra")
    for a in range(len(family)):
        for b in range(a + 1, len(family)):
            if not (family[a] * family[b]).is_zero():
                raise NotOrthogonal(f"family members {a} and {b} are not orthogonal")
    for u in family:
        if u.is_zero() or not _support_line_condition(algebra, u):
            raise NotNaturalVector("family contains a non-natural vector")

    dec = decompose(algebra)
    field = algebra.field
    by_component = {i: [] for i in range(len(dec.components))}
    for u in family:
        first = min(u.support())
        comp = next(i for i, idx in enumerate(dec.component_indices) if first in idx)
        by_component[comp].append(u)

    completed = list(family)
    added = []
    for ci, idx in enumerate(dec.component_indices):
        members = [[u.coords[i] for i in idx] for u in by_component[ci]]
        if not members:
            local_added = Subspace.full(field, len(idx)).basis
        elif field.characteristic == 2:
            found = _char2_completable(len(idx), [sum(1 << k for k, x in enumerate(m) if x)
                                                  for m in members])
            if found is None:
                raise NotExtendable("no orthogonal completion exists over GF(2)")
            local_added = [[field.one if v >> k & 1 else field.zero
                            for k in range(len(idx))] for v in found]
        else:
            lambdas = _component_lambdas(algebra, idx, dec.component_squares[ci])
            local_added = _complete_orthogonal(field, lambdas, members)
        for loc in local_added:
            v = [field.zero] * algebra.n
            for pos, x in zip(idx, loc):
                v[pos] = x
            el = algebra.element(v)
            added.append(el)
            completed.append(el)
    if not algebra.verify_natural_basis(completed):
        raise NotANaturalBasis("internal completion failed verification")
    return ExtensionResult(tuple(completed), tuple(added))


def _component_lambdas(algebra, indices, line_key):
    pivot = next(k for k, x in enumerate(line_key) if x)
    return [algebra.column_square(i)[pivot] for i in indices]


def _bilinear(field, lambdas, x, y):
    return sum((l * a * b for l, a, b in zip(lambdas, x, y)), field.zero)


def _complete_orthogonal(field, lambdas, members):
    """Complete an orthogonal anisotropic family to an orthogonal basis of
    the diagonal form sum lambda_i x_i y_i (characteristic != 2)."""
    size = len(lambdas)
    # Orthogonal complement of the members.
    rows = [[l * c for l, c in zip(lambdas, m)] for m in members]
    comp = Matrix(field, rows).kernel() if rows else Subspace.full(field, size)
    vecs = [list(v) for v in comp.basis]
    out = []
    while vecs:
        v = next((x for x in vecs if _bilinear(field, lambdas, x, x)), None)
        if v is None:
            # All isotropic: some cross pairing is nonzero; u+w is anisotropic
            # because b(u+w, u+w) = 2 b(u, w) and the characteristic is not 2.
            pair = next((x, y) for x, y in combinations(vecs, 2)
                        if _bilinear(field, lambdas, x, y))
            v = [a + b for a, b in zip(*pair)]
        out.append(v)
        bvv = _bilinear(field, lambdas, v, v)
        projected = []
        for x in vecs:
            f = _bilinear(field, lambdas, x, v) / bvv
            projected.append([a - f * b for a, b in zip(x, v)])
        vecs = [list(r) for r in Subspace.from_vectors(field, size, projected).basis]
    return out
