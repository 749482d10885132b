"""Natural vectors, Property (2LI), canonical decompositions, extensions.

A nonzero u with support {i_1..i_r} is a natural vector iff either
u^2 != 0 and the squares e_{i_1}^2..e_{i_r}^2 span a line, or u^2 = 0
and all those squares vanish.  The canonical decomposition splits the
standard basis into the annihilator part plus classes of indices whose
squares are pairwise linearly dependent (projective classes of the
nonzero structure-matrix columns).
"""

from dataclasses import dataclass
from itertools import combinations

from .algebra import Element, EvolutionAlgebra
from .errors import (CharTwoUnsupported, Degenerate, NotANaturalBasis,
                     NotNaturalVector, NotOrthogonal, ZeroVector)
from .linalg import Matrix, Subspace


def is_natural_vector(algebra, u):
    if not isinstance(u, Element):
        u = algebra.element(u)
    if u.is_zero():
        raise ZeroVector("the zero vector is not a natural vector")
    if not _support_line_condition(algebra, u):
        return False
    if algebra.field.characteristic == 2 and not u.square().is_zero():
        # In characteristic 2 the support condition is necessary but not
        # sufficient: the orthogonal complement of u need not contain a
        # pairwise-orthogonal basis, so check completability directly.
        return _char2_completable(algebra, u)
    return True


def _support_line_condition(algebra, u):
    """Squares over supp(u) span a line (u^2 != 0) or all vanish (u^2 = 0)."""
    columns = [algebra.column_square(i) for i in sorted(u.support())]
    if u.square().is_zero():
        return all(not any(col) for col in columns)
    return Matrix(algebra.field, columns).rank() == 1


def _char2_completable(algebra, u):
    """Whether {u} extends to a natural basis, by bounded backtracking over
    GF(2)^n: pick pairwise-orthogonal vectors, keeping the family
    independent, until a full basis is reached."""
    n = algebra.n
    if n > 16:
        raise CharTwoUnsupported(
            "natural-vector completability over GF(2) is only decided "
            "exhaustively up to dimension 16")
    field = algebra.field
    candidates = []
    for mask in range(1, 1 << n):
        vec = [field.one if mask >> k & 1 else field.zero for k in range(n)]
        el = algebra.element(vec)
        if (u * el).is_zero():
            candidates.append(el)

    def search(start, chosen, span):
        if len(chosen) == n:
            return True
        for k in range(start, len(candidates)):
            el = candidates[k]
            if span.contains(el.coords):
                continue
            if any(not (el * other).is_zero() for other in chosen):
                continue
            grown = span + Subspace.from_vectors(field, n, [el.coords])
            if search(k + 1, chosen + [el], grown):
                return True
        return False

    return search(0, [u], Subspace.from_vectors(field, n, [u.coords]))


def has_property_2li(algebra):
    """Squares of any two distinct basis vectors are linearly independent."""
    for i, j in combinations(range(algebra.n), 2):
        pair = Matrix(algebra.field,
                      [algebra.column_square(i), algebra.column_square(j)])
        if pair.rank() != 2:
            return False
    return True


def has_unique_natural_basis(algebra):
    """True / False / None (None = undecided over GF(2) and GF(3))."""
    if algebra.n == 1:
        return True
    if algebra.annihilator().dim > 0:
        # Annihilator vectors mix freely into other basis vectors.
        return False
    if algebra.field.characteristic in (2, 3) and algebra.field.p in (2, 3):
        return None
    return has_property_2li(algebra)


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

    def to_ambient(subspace):
        out = []
        for row in subspace.basis:
            v = [algebra.field.zero] * algebra.n
            for c, bv in zip(row, vecs):
                v = [x + c * y for x, y in zip(v, bv)]
            out.append(v)
        return Subspace.from_vectors(algebra.field, algebra.n, out)

    ann = to_ambient(dec.annihilator)
    components = tuple(to_ambient(comp) for comp in dec.components)
    lines = []
    for key in dec.component_squares:
        v = [algebra.field.zero] * algebra.n
        for c, bv in zip(key, vecs):
            v = [x + c * y for x, y in zip(v, bv)]
        lines.append(Subspace.from_vectors(algebra.field, algebra.n, [v]))
    return ann, components, tuple(lines)


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
        lambdas = _component_lambdas(algebra, idx, dec.component_squares[ci])
        members = [[u.coords[i] for i in idx] for u in by_component[ci]]
        if not members:
            local_added = Subspace.full(field, len(idx)).basis
        elif field.characteristic == 2:
            local_added = _complete_char2(field, lambdas, members)
        else:
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


def _complete_char2(field, lambdas, members):
    """Exhaustive completion over GF(2): diagonal forms need not admit
    orthogonal bases in characteristic 2, so search all extensions."""
    size = len(lambdas)
    if size > 16:
        raise CharTwoUnsupported("component too large for exhaustive GF(2) completion")
    candidates = []
    for mask in range(1, 1 << size):
        candidates.append([field.one if mask >> k & 1 else field.zero
                           for k in range(size)])
    need = size - len(members)

    def ok(v, chosen):
        if not _bilinear(field, lambdas, v, v):
            return False
        for m in members:
            if _bilinear(field, lambdas, v, m):
                return False
        for c in chosen:
            if _bilinear(field, lambdas, v, c):
                return False
        return True

    def independent(chosen):
        rows = members + chosen
        return Matrix(field, rows).rank() == len(rows)

    def search(start, chosen):
        if len(chosen) == need:
            return list(chosen)
        for k in range(start, len(candidates)):
            v = candidates[k]
            if ok(v, chosen) and independent(chosen + [v]):
                found = search(k + 1, chosen + [v])
                if found is not None:
                    return found
        return None

    found = search(0, [])
    if found is None:
        raise CharTwoUnsupported("no orthogonal completion exists over GF(2)")
    return found
