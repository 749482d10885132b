"""Evolution algebras: elements, products, supports, closures, bases.

An evolution algebra is stored as a field descriptor, a dimension n and
an n x n structure matrix M whose column i holds the coordinates of
e_i^2 (so M[j][i] is the coefficient of e_j in e_i^2).  Distinct basis
vectors multiply to zero, which makes the product of two elements
u = sum a_i e_i and v = sum b_i e_i equal to M (a_1 b_1, ..., a_n b_n)^T.
Elements store plain coordinates (``fields``); ``Element.coords`` boxes
them when a caller reads it.
"""

from functools import partial, reduce
from operator import add, lshift, mul, neg, sub, xor
from typing import NamedTuple

from .errors import (AlgebraMismatch, FieldMismatch, IndexOutOfRange, NotANaturalBasis,
                     ShapeMismatch)
from .linalg import (Matrix, Subspace, integral_rows, matvec_rows, normalize_row, reduce_bits,
                     reduce_packed, reduce_row, row_support, rref_rows)


class ColumnClasses(NamedTuple):
    """Nonzero squares grouped by line, on plain values: e_i^2 = lambdas[i] * l
    for i in members[c], l being lines[c] scaled to leading entry 1.  On the
    columns of M the classes are the A_k of A = ann(A) + A_1 + ... + A_m."""
    class_of: tuple      # class id per index, None for a zero square
    lines: tuple         # per class: monic over GF(p), primitive with lead > 0 over Q
    members: tuple       # index tuple per class, classes ordered by first index
    lambdas: tuple       # first nonzero entry of each square (0 for a zero square)


def line_classes(field, squares):
    """ColumnClasses of plain vectors, keyed by the canonical multiple of each
    nonzero one: monic over GF(p); over Q primitive, with the sign of its lead."""
    classes, lambdas = {}, []   # line -> member indices; lambda_i
    for i, sq in enumerate(squares):
        lead = next((x for x in sq if x), 0)
        lambdas.append(lead)
        if lead:
            line = tuple(normalize_row(sq, field.p))
            classes.setdefault(line if lead > 0 else tuple(-x for x in line), []).append(i)
    class_of = {i: c for c, idx in enumerate(classes.values()) for i in idx}
    return ColumnClasses(tuple(map(class_of.get, range(len(lambdas)))), tuple(classes),
                         tuple(map(tuple, classes.values())), tuple(lambdas))


class EvolutionAlgebra:
    __slots__ = ("field", "n", "M", "labels", "_classes", "_digraph", "_integral", "_perfect")

    def __init__(self, field, structure, labels=None):
        self.field = field
        self.M = structure if isinstance(structure, Matrix) else Matrix(field, structure)
        if self.M.field != field:
            raise FieldMismatch(f"structure matrix over {self.M.field!r}, algebra over {field!r}")
        if not self.M.is_square:
            raise ShapeMismatch("structure matrix must be square")
        if self.M.rows < 1:
            raise ShapeMismatch("dimension must be at least 1")
        self.n = self.M.rows
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != self.n:
                raise ShapeMismatch("label count does not match dimension")
        self.labels = labels
        self._classes = self._digraph = self._integral = self._perfect = None

    def element(self, coords):
        return Element(self, coords)

    def unit(self, i):
        """The i-th natural basis vector (0-based)."""
        if not 0 <= i < self.n:
            raise IndexOutOfRange(f"basis index {i} out of range for dimension {self.n}")
        return Element._from_plain(self, [int(j == i) for j in range(self.n)])

    def is_perfect(self):
        """det M != 0, decided once (M is immutable)."""
        if self._perfect is None:
            self._perfect = bool(self.M.det())
        return self._perfect

    @property
    def integral(self):
        """M times one common nonzero constant, as plain integer rows
        (integral_rows), built once.  The scale keeps the span of every
        product M (u o w) and the vanishing of every minor, which is all
        that closures over Q and the minor scans read."""
        if self._integral is None:
            self._integral = tuple(map(tuple, integral_rows(self.M.plain, self.field.p)))
        return self._integral

    @property
    def column_classes(self):
        """The columns of M grouped by line (line_classes), built once."""
        if self._classes is None:
            self._classes = line_classes(self.field, zip(*self.M.plain))
        return self._classes

    @property
    def digraph(self):
        """The structure digraph as out-sets, built once from the plain
        columns of M: i -> j iff e_j occurs in e_i^2, i.e. M[j][i] != 0."""
        if self._digraph is None:
            self._digraph = tuple(frozenset(j for j, x in enumerate(col) if x)
                                  for col in zip(*self.M.plain))
        return self._digraph

    def annihilator(self):
        """Span of the e_i with zero square: the empty out-sets of the digraph."""
        empty = [i for i, out in enumerate(self.digraph) if not out]
        return Subspace.coordinate(self.field, self.n, empty)

    def is_nondegenerate(self):
        return all(self.digraph)

    def square_space(self):
        """A^2 as a subspace (span of the columns of M)."""
        return Subspace._from_plain(self.field, self.n, list(zip(*self.M.plain)))

    def subalgebra_closure(self, elements):
        rows = self._closure(elements)
        if len(rows) == self.n:
            return Subspace.full(self.field, self.n)
        return Subspace._from_plain(self.field, self.n, rows)

    def ideal_closure(self, elements):
        """The span of the elements and of e_i^2 for every index i reachable
        in the structure digraph from their supports.  It is an ideal: its
        support lies in the reachable set, and e_i v = v_i e_i^2.  It is the
        least one: an ideal holding v holds v_i e_i^2, so e_i^2, for each i in
        the support of v, and the support of e_i^2 is the successors of i."""
        gens = [self._plain_of(x) for x in elements]
        squares = list(zip(*self.M.plain))
        gens += [squares[i] for i in reachable(self.digraph, row_support(gens))]
        return Subspace._from_plain(self.field, self.n, gens)

    def _product(self, u, w):
        """Plain coordinates of u w from plain coordinates: M (u o w)."""
        return matvec_rows(self.M.plain, list(map(mul, u, w)), self.field.reduce)

    def _closure(self, elements):
        # The plain rows of a semi-echelon basis of the subalgebra the
        # elements generate, grown from one worklist (_rounds): every row is
        # nonzero at its pivot and 0 at the pivots of the rows before it.
        # Over Q the rows are primitive integer rows; over GF(p) they are
        # monic residue rows, each also packed into one int, so a product and
        # a reduction step are O(n) big-int operations (_gfp_rounds,
        # _gf2_rounds).
        p = self.field.p
        rounds = (self._rational_rounds if p is None
                  else self._gf2_rounds if p == 2 else self._gfp_rounds)
        return rounds([normalize_row(self._plain_of(x), p) for x in elements])

    def _rational_rounds(self, gens):
        # Products come from one integer multiple of M, which keeps their
        # span, so every row stays a primitive integer row.
        red, M = self.field.reduce, self.integral
        rows, pivots = [], []

        def adjoin(v):
            v = normalize_row(reduce_row(rows, pivots, v, None), None)
            pc = next((j for j, x in enumerate(v) if x), None)
            if pc is not None:
                rows.append(v)
                pivots.append(pc)

        def products(k):
            u = rows[k]
            for w in rows[:k + 1]:
                yield matvec_rows(M, list(map(mul, u, w)), red)

        _rounds(self.n, rows, gens, adjoin, products)
        return rows

    def _gfp_rounds(self, gens):
        # Odd p.  A packed row holds coordinate j in the s-bit slot at bit
        # s*j.  The product M (u o w) = sum_k (u_k w_k mod p) C_k of the
        # packed columns C_k starts below n p^2 in every slot (a generator
        # below p).  Reducing against a kept row r (1 at its pivot slot) reads
        # f = pivot slot mod p and adds (p - f) r: no subtraction, so no
        # borrow, and less than p^2 per slot, once per kept row, at most n
        # times.  So every slot stays below 2 n p^2 < 2^s and no carry
        # crosses a slot.  The remainder is unpacked once and, when nonzero,
        # made monic (its pivot is then its first 1) and repacked.
        n, p = self.n, self.field.p
        s = (2 * n * p * p).bit_length() + 1
        mask, slots = (1 << s) - 1, range(0, n * s, s)
        cols = [sum(map(lshift, col, slots)) for col in zip(*self.M.plain)]
        rows, packed, shifts = [], [], []   # monic rows, the same packed, pivot bits

        def adjoin(v):
            v = reduce_packed(packed, shifts, v, p, mask)
            row = [(v >> b & mask) % p for b in slots]
            if any(row):
                row = normalize_row(row, p)
                rows.append(row)
                packed.append(sum(map(lshift, row, slots)))
                shifts.append(row.index(1) * s)

        def products(k):
            u = rows[k]
            support = [i for i, x in enumerate(u) if x]
            for w in rows[:k + 1]:
                yield sum(u[i] * w[i] % p * cols[i] for i in support if w[i])

        _rounds(n, rows, [sum(map(lshift, g, slots)) for g in gens], adjoin, products)
        return rows

    def _gf2_rounds(self, gens):
        # Over GF(2) addition is XOR, so a slot is one bit and nothing is
        # reduced mod p: u o w is u & w, M h is the XOR of the packed columns
        # C_k over the set bits k of h, and a reduction step is v ^= r.
        n = self.n
        bits = range(n)
        cols = [sum(map(lshift, col, bits)) for col in zip(*self.M.plain)]
        rows, pivots = [], []   # packed rows, their lowest set bits

        def adjoin(v):
            v = reduce_bits(rows, pivots, v)
            if v:
                rows.append(v)
                pivots.append((v & -v).bit_length() - 1)

        def columns(h):
            while h:
                low = h & -h
                yield cols[low.bit_length() - 1]
                h ^= low

        def products(k):
            u = rows[k]
            for w in rows[:k + 1]:
                yield reduce(xor, columns(u & w), 0)

        _rounds(n, rows, [sum(map(lshift, g, bits)) for g in gens], adjoin, products)
        return [[v >> j & 1 for j in bits] for v in rows]

    def _plain_of(self, x):
        """Plain coordinates of an Element of this algebra or a coordinate list."""
        if isinstance(x, Element):
            if x.algebra is not self and x.algebra != self:
                raise AlgebraMismatch("element from a different algebra")
            return x.plain
        v = self.field.unbox(x)
        if len(v) != self.n:
            raise ShapeMismatch(f"vectors of length {len(v)} in ambient dimension {self.n}")
        return v

    def _check_space(self, space):
        """Raise what making an Element of this algebra from a basis row of
        the subspace raises: FieldMismatch for another field, ShapeMismatch
        for another length."""
        if space.field != self.field:
            self.field(space.field.one)
        if space.ambient != self.n:
            raise ShapeMismatch("coordinate length does not match algebra dimension")

    def verify_natural_basis(self, candidates):
        """True iff the candidates pairwise multiply to zero and span everything."""
        vecs = [self._plain_of(c) for c in candidates]
        if len(vecs) != self.n:
            return False
        if Matrix._from_plain(self.field, vecs).rank() != self.n:
            return False
        # u w = M (u o w) is zero when u o w is.
        products = (list(map(mul, u, w)) for a, u in enumerate(vecs) for w in vecs[a + 1:])
        return not any(any(uw) and any(matvec_rows(self.M.plain, uw, self.field.reduce))
                       for uw in products)

    def change_basis(self, candidates):
        """The same algebra written relative to a new natural basis: column k
        of the new structure matrix solves P y = v_k^2, P with the basis
        vectors as columns, so one Gauss-Jordan elimination of
        [P | v_1^2 ... v_n^2] leaves [I | new matrix]."""
        if not self.verify_natural_basis(candidates):
            raise NotANaturalBasis("candidates are not a natural basis")
        field, n = self.field, self.n
        vecs = [self._plain_of(c) for c in candidates]
        squares = [self._product(v, v) for v in vecs]
        m = [list(p_row) + list(s_row) for p_row, s_row in zip(zip(*vecs), zip(*squares))]
        rref_rows(m, n, field)
        return EvolutionAlgebra(field, Matrix._from_plain(field, [row[n:] for row in m]))

    def adjoint(self):
        """Evolution algebra on the same basis with transposed structure matrix."""
        return EvolutionAlgebra(self.field, self.M.transpose(), labels=self.labels)

    def __eq__(self, other):
        return (isinstance(other, EvolutionAlgebra) and self.field == other.field
                and self.M == other.M)

    def __hash__(self):
        return hash((self.field, self.M))

    def __repr__(self):
        return f"EvolutionAlgebra({self.field!r}, n={self.n})"


class Element:
    __slots__ = ("algebra", "plain")

    def __init__(self, algebra, coords):
        self.algebra = algebra
        self.plain = tuple(algebra.field.unbox(coords))
        if len(self.plain) != algebra.n:
            raise ShapeMismatch("coordinate length does not match algebra dimension")

    @classmethod
    def _from_plain(cls, algebra, plain):
        """An element of canonical plain coordinates, taken as they are."""
        el = cls.__new__(cls)
        el.algebra, el.plain = algebra, tuple(plain)
        return el

    @property
    def coords(self):
        """The coordinates as public scalars."""
        return tuple(map(self.algebra.field.box, self.plain))

    def _check(self, other):
        if not isinstance(other, Element):
            raise AlgebraMismatch(f"expected an Element, got {type(other).__name__}")
        if other.algebra is not self.algebra and other.algebra != self.algebra:
            raise AlgebraMismatch("elements from different algebras")

    def _map(self, op, *others):
        """The element whose plain coordinates are op of this one's (and others')."""
        red = self.algebra.field.reduce
        return Element._from_plain(self.algebra, [red(op(*xs)) for xs in
                                                  zip(self.plain, *(o.plain for o in others))])

    def __add__(self, other):
        self._check(other)
        return self._map(add, other)

    def __sub__(self, other):
        self._check(other)
        return self._map(sub, other)

    def __neg__(self):
        return self._map(neg)

    def scale(self, scalar):
        (c,) = self.algebra.field.unbox([scalar])
        return self._map(partial(mul, c))

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __mul__(self, other):
        self._check(other)
        return Element._from_plain(self.algebra, self.algebra._product(self.plain, other.plain))

    def power(self, k):
        """Left-normed principal power: u^1 = u, u^k = u * u^(k-1)."""
        if k < 1:
            raise IndexOutOfRange("power exponent must be >= 1")
        out = self
        for _ in range(k - 1):
            out = self * out
        return out

    def support(self):
        """0-based indices of the nonzero coordinates."""
        return frozenset(i for i, c in enumerate(self.plain) if c)

    def is_zero(self):
        return not any(self.plain)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        return (isinstance(other, Element) and self.algebra == other.algebra
                and self.plain == other.plain)

    def __hash__(self):
        return hash((self.algebra, self.plain))

    def __repr__(self):
        return f"Element({list(self.coords)!r})"


def reachable(adjacency, sources):
    """The sources together with every vertex reachable from them in the
    digraph of out-sets adjacency (EvolutionAlgebra.digraph)."""
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


def _rounds(n, rows, gens, adjoin, products):
    """Grow a closure's semi-echelon basis ``rows`` from one worklist.  Each
    generator is adjoined (kept only if a remainder survives reduction
    against the basis), then k walks the kept rows in order, new ones
    included: ``products(k)`` yields row k times every row up to and
    including itself, which by commutativity forms every pair once.  The
    walk stops at the last row or when the span is the whole space."""
    for v in gens:
        adjoin(v)
    k = 0
    while k < len(rows) < n:
        for v in products(k):
            adjoin(v)
            if len(rows) == n:
                return
        k += 1


def check_algebra_homomorphism(source, target, f):
    """True iff the linear map f (matrix on coordinates) respects products.

    Bilinearity makes the basis checks sufficient: f(e_i^2) = f(e_i)^2 and
    f(e_i) f(e_j) = 0 for i != j.
    """
    if not isinstance(f, Matrix):
        f = Matrix(target.field, f)
    if f.cols != source.n or f.rows != target.n:
        raise ShapeMismatch("homomorphism matrix shape does not match the algebras")
    if not source.field == target.field == f.field:
        raise FieldMismatch("homomorphism between algebras over different fields")
    red = target.field.reduce
    images = list(zip(*f.plain))
    squares = zip(*source.M.plain)
    if any(matvec_rows(f.plain, sq, red) != target._product(im, im)
           for sq, im in zip(squares, images)):
        return False
    return not any(any(target._product(images[i], images[j]))
                   for i in range(source.n) for j in range(i + 1, source.n))
