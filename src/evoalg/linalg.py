"""Exact dense linear algebra over a field descriptor.

Matrices are immutable, row-major, with a deterministic reduced row
echelon form (first nonzero entry scanning left-to-right, top-to-bottom
picks the pivot).  RREF, rank, kernels, solutions and determinants all
come from one elimination, ``bareiss_rows``, over both fields:
fraction-free (Bareiss) on rows scaled to integers over Q, monic
Gauss-Jordan on residues over GF(p), and over GF(2) on bit rows (one int
per row, cleared by XOR).  A matrix runs its forward sweep once and keeps
it, so rank and det share one elimination.
Subspaces are stored as canonical RREF bases, so equality of subspaces is
structural.

A matrix or subspace stores only the descriptor's plain values
(``fields``), and elimination, products and reduction run on them in the
module-level kernels below.  These are the package's only row
arithmetic, the closures of ``algebra`` included: integer scaling
(``integer_row``, ``integral_rows``), canonical row multiples
(``normalize_row``) and reduction along semi-echelon rows, as lists
(``reduce_row``), packed residue slots (``reduce_packed``) or GF(2) bits
(``reduce_bits``).  Each takes plain rows and the modulus p, None over Q,
never a field descriptor.  Over Q a plain value is an int whenever it
is an integer: the one division that ends an RREF and the quotient of a
determinant go through ``fields.rational``, so an entry of an RREF,
kernel or solution is a Fraction only where it is not an integer.  The
three boxing views, ``Matrix.data`` (with ``row``, ``column`` and
``entry``), ``Subspace.basis`` and ``algebra.Element.coords``, turn plain
values into public scalars (``Mod`` or ``Fraction``) when a caller reads
them.
"""

from math import gcd, lcm, prod
from operator import mul

from .errors import (FieldMismatch, IndexOutOfRange, InvalidArgument, NonSquareMatrix,
                     ShapeMismatch)
from .fields import rational


def integer_row(row, scale=None):
    """The rationals (Fractions or ints) of row times scale, as ints, and
    scale, by default the lcm of their denominators.

    Scaling one row by a nonzero constant keeps its span, the row space of
    a matrix and the vanishing of every minor, and multiplies the
    determinant by that constant.  It is not enough for the products
    M (u o w) of a structure matrix: scaling row j of M by its own d_j
    multiplies coordinate j of every product by d_j and changes their span,
    so M needs one scale common to all its rows (integral_rows)."""
    if scale is None:
        scale = lcm(*(x.denominator for x in row))
    if scale == 1:   # only ints: a canonical Fraction has a denominator > 1
        return list(row), 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def integral_rows(rows, p):
    """The plain rows times one common nonzero constant, as ints: over Q
    (p None) the lcm of all their denominators; residues are already
    integers and come back as they are."""
    if p is not None:
        return rows
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [integer_row(row, scale)[0] for row in rows]


def integer_rows(rows, p):
    """The plain rows as integers for bareiss_rows, with the product of
    their scales: over Q (p None) each row times its lcm of denominators."""
    if p is not None:
        return list(rows), 1
    rows = [integer_row(row) for row in rows]
    return [row for row, _ in rows], prod(s for _, s in rows)


def rref_rows(m, cols, field):
    """Gauss-Jordan on the list m of plain rows, in place: rows are swapped
    and replaced, never modified.  Returns the pivot columns.  Over GF(p)
    bareiss_rows leaves the RREF itself; over Q it leaves the last pivot d
    at every pivot, so one division by d ends it."""
    p = field.p
    if p is not None:
        return bareiss_rows(m, cols, above=True, p=p)[0]
    m[:] = integer_rows(m, p)[0]
    pivots, d, _ = bareiss_rows(m, cols, above=True, p=p)
    if d != 1:
        m[:len(pivots)] = [[rational(x, d) for x in row] for row in m[:len(pivots)]]
    return pivots


def bareiss_rows(m, cols, above, p):
    """Elimination of the rows m, in place: rows below each pivot are
    cleared, and with above the rows above it too (Gauss-Jordan).  Returns
    the pivot columns, d and the sign of the row swaps, where sign * d is
    the determinant of the pivot block.  With above false m is consumed:
    only the returned values are meaningful afterwards.

    Over Q (p None), on integer rows, it is fraction-free (Bareiss): every
    update piv*a - f*b is divided exactly by the previous pivot, so each
    entry stays a minor of m (Sylvester's identity) and d, the last pivot,
    is the determinant up to sign; Gauss-Jordan leaves d at every pivot.
    Over GF(p), on residues, each pivot row is scaled by the inverse of its
    pivot and a - f*b clears the other rows, so d is the product of the
    pivots and Gauss-Jordan leaves the RREF.  Over GF(2) every pivot is 1,
    so the sweep runs on bit rows (_bit_sweep)."""
    if p == 2:
        return _bit_sweep(m, cols, above)
    pivots, prev, sign = [], 1, 1
    for pc in range(cols):
        pr = len(pivots)
        for pivot_row in range(pr, len(m)):
            if m[pivot_row][pc]:
                break
        else:
            continue
        if pivot_row != pr:
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            sign = -sign
        row = m[pr]
        piv = row[pc]
        if p is not None:
            if piv != 1:
                c = pow(piv, -1, p)
                row = m[pr] = [x * c % p for x in row]
            piv = piv * prev % p
        for i in range(0 if above else pr + 1, len(m)):
            other = m[i]
            f = other[pc]
            if i == pr:
                continue
            if p is not None:
                if f:
                    m[i] = [(a - f * b) % p for a, b in zip(other, row)]
            elif f or piv != prev and any(other):
                m[i] = [(piv * a - f * b) // prev for a, b in zip(other, row)]
        prev = piv
        pivots.append(pc)
        if pr + 1 == len(m):
            break
    return pivots, prev, sign


# 0/1 bytes to binary digits and back: a GF(2) row read right to left is
# the binary numeral of its bit row.
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _bit_sweep(m, cols, above):
    """bareiss_rows over GF(2), on the 0/1 rows m: each row is packed into
    one int, bit j holding column j as in reduce_bits, and the pivot row
    clears a row by XOR.  d is 1.  With above every row goes back into m as
    a 0/1 list; with above false m is not touched."""
    width, rows = (len(m[0]) if m else 0), len(m)
    bits = [int(bytes(row[::-1]).translate(_TO_DIGITS) or b"0", 2) for row in m]
    pivots, sign = [], 1
    for pc in range(cols):
        pr, bit = len(pivots), 1 << pc
        for i in range(pr, rows):
            if bits[i] & bit:
                break
        else:
            continue
        if i != pr:
            bits[pr], bits[i] = bits[i], bits[pr]
            sign = -sign
        row = bits[pr]
        for i in range(0 if above else pr + 1, rows):
            if bits[i] & bit and i != pr:
                bits[i] ^= row
        pivots.append(pc)
        if pr + 1 == rows:
            break
    if above:
        # The bit at width gives every numeral width + 1 digits, width 0
        # included; it is the first digit and the reversed slice drops it.
        top = 1 << width
        m[:] = [list(f"{b | top:b}"[:0:-1].encode().translate(_FROM_DIGITS)) for b in bits]
    return pivots, 1, sign


def normalize_row(v, p):
    """The canonical multiple of the plain row v (0 stays 0): over GF(p)
    scaled to 1 at its first nonzero entry; over Q (p None) the primitive
    integer multiple.  Integer rows, the common case over Q, skip the lcm
    of the denominators."""
    if p is not None:
        c = pow(next((x for x in v if x), 1), -1, p)
        return [x * c % p for x in v]
    try:
        g = gcd(*v)
    except TypeError:   # a Fraction is present
        v = integer_row(v)[0]
        g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def reduce_row(rows, pivots, v, p):
    """v reduced along rows that are nonzero at their pivot and 0 at the
    pivots of the rows before it: 0 at every pivot, and a nonzero multiple
    of the remainder (the remainder itself when every row is 1 at its
    pivot).  Over GF(p) every row is 1 at its pivot and a step is
    (a - f b) mod p, f = v[pc].  Over Q a step is a - f b at a pivot d = 1
    (the rows may hold Fractions there), else (d/g) a - (f/g) b, g the gcd
    of d and f, which keeps integer rows integral."""
    for row, pc in zip(rows, pivots):
        f, d = v[pc], row[pc]
        if not f:
            continue
        if p is not None:
            v = [(a - f * b) % p for a, b in zip(v, row)]
        elif d == 1:
            v = [a - f * b for a, b in zip(v, row)]
        else:
            g = gcd(d, f)
            d, f = d // g, f // g
            v = [d * a - f * b for a, b in zip(v, row)]
    return v


def reduce_packed(rows, shifts, v, p, mask):
    """The packed v reduced along packed rows that are 1 at their pivot slot
    (the s-bit slot at bit ``shifts[k]``, s = mask.bit_length()) and 0 at
    the pivot slots of the rows before it: each step adds (p - f) r, f the
    pivot slot mod p, which leaves that slot 0 mod p (see
    ``algebra.EvolutionAlgebra._gfp_rounds``)."""
    for r, b in zip(rows, shifts):
        f = (v >> b & mask) % p
        if f:
            v += (p - f) * r
    return v


def reduce_bits(rows, pivots, v):
    """The GF(2) row v (one bit per coordinate) reduced along rows whose
    lowest set bit is their pivot and which are 0 at the pivots of the rows
    before them."""
    for r, b in zip(rows, pivots):
        if v >> b & 1:
            v ^= r
    return v


def matvec_rows(rows, v, red):
    """The plain product of rows and the vector v."""
    return [red(sum(map(mul, row, v))) for row in rows]


def row_support(rows):
    """The ascending indices where some of the plain rows is nonzero."""
    return tuple(j for j, column in enumerate(zip(*rows)) if any(column))


def kernel_rows(m, cols, pivots, red):
    """Null-space vectors of the reduced rows m: one per free column f, 1 at
    f and minus the pivot rows' entries of column f at their pivots."""
    out = []
    for f in sorted(set(range(cols)) - set(pivots)):
        v = [0] * cols
        v[f] = 1
        for row, pc in zip(m, pivots):
            v[pc] = red(-row[f])
        out.append(v)
    return out


class Matrix:
    __slots__ = ("field", "plain", "_sweep")

    def __init__(self, field, data):
        self.field = field
        self.plain = tuple(tuple(field.unbox(row)) for row in data)
        self._sweep = None
        if any(len(row) != self.cols for row in self.plain):
            raise ShapeMismatch("ragged rows")

    @classmethod
    def _from_plain(cls, field, plain):
        """A matrix of canonical plain rows, taken as they are."""
        m = cls.__new__(cls)
        m.field, m.plain, m._sweep = field, tuple(map(tuple, plain)), None
        return m

    @property
    def rows(self):
        return len(self.plain)

    @property
    def cols(self):
        return len(self.plain[0]) if self.plain else 0

    @property
    def data(self):
        """The rows as public scalars."""
        box = self.field.box
        return tuple(tuple(map(box, row)) for row in self.plain)

    def entry(self, i, j):
        return self.field.box(self.plain[i][j])

    def row(self, i):
        return tuple(map(self.field.box, self.plain[i]))

    def column(self, j):
        return tuple(self.field.box(row[j]) for row in self.plain)

    @property
    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return not any(map(any, self.plain))

    def transpose(self):
        return Matrix._from_plain(self.field, zip(*self.plain))

    def submatrix(self, row_indices, col_indices):
        """The entries in the given rows and columns, in the given order;
        each index set must be distinct and in range."""
        row_indices, col_indices = tuple(row_indices), tuple(col_indices)
        for indices, size in ((row_indices, self.rows), (col_indices, self.cols)):
            if not all(0 <= i < size for i in indices):
                raise IndexOutOfRange(f"submatrix index out of range for size {size}")
            if len(set(indices)) != len(indices):
                raise InvalidArgument("submatrix index repeated")
        return Matrix._from_plain(self.field, [[self.plain[i][j] for j in col_indices]
                                               for i in row_indices])

    def matvec(self, v):
        if len(v) != self.cols:
            raise ShapeMismatch(f"matvec: {self.cols} columns vs vector of length {len(v)}")
        field = self.field
        return tuple(map(field.box, matvec_rows(self.plain, field.unbox(v), field.reduce)))

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch(f"matmul: {self.field!r} vs {other.field!r}")
        if self.cols != other.rows:
            raise ShapeMismatch(f"matmul: {self.cols} vs {other.rows}")
        cols = list(zip(*other.plain))
        red = self.field.reduce
        return Matrix._from_plain(self.field, [matvec_rows(cols, row, red)
                                               for row in self.plain])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.plain == other.plain)

    def __hash__(self):
        return hash((self.field, self.plain))

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(r) for r in self.data]!r})"

    def rref(self):
        """(rref matrix, rank, pivot columns) by exact Gauss-Jordan."""
        m = list(self.plain)
        pivots = rref_rows(m, self.cols, self.field)
        return Matrix._from_plain(self.field, m), len(pivots), tuple(pivots)

    def _forward(self):
        """The forward sweep of M (no row above a pivot is touched and
        nothing is divided at the end): its pivots, d, sign and the product
        of the row scales, run once, since M is immutable, and shared by
        rank and det."""
        if self._sweep is None:
            p = self.field.p
            m, scale = integer_rows(self.plain, p)
            self._sweep = (*bareiss_rows(m, self.cols, above=False, p=p), scale)
        return self._sweep

    def rank(self):
        """The pivot count of the forward sweep."""
        return len(self._forward()[0])

    def kernel(self):
        """Canonical RREF basis of the right null space, from one sweep of M
        with its columns reversed: turned back, the null vector of that RREF
        for a free column f is 1 at f and 0 before f and at the other free
        columns, so in order of f these vectors are the canonical basis."""
        n, field = self.cols, self.field
        m = [row[::-1] for row in self.plain]
        pivots = rref_rows(m, n, field)
        basis = tuple(tuple(v[::-1]) for v in reversed(kernel_rows(m, n, pivots, field.reduce)))
        return Subspace(field, n, basis, tuple(v.index(1) for v in basis))

    def det(self):
        """sign * d over the product of the row scales, where d is the last
        pivot of the forward sweep; 0 below full rank."""
        if not self.is_square:
            raise NonSquareMatrix("determinant of a non-square matrix")
        field = self.field
        pivots, d, sign, scale = self._forward()
        if len(pivots) < self.rows:
            return field.box(0)
        return field.box(rational(sign * d, scale) if field.p is None else sign * d)

    def minor(self, row_indices, col_indices):
        row_indices, col_indices = sorted(row_indices), sorted(col_indices)
        if len(row_indices) != len(col_indices):
            raise ShapeMismatch("minor needs equally sized row and column sets")
        return self.submatrix(row_indices, col_indices).det()

    def solve(self, b):
        """One exact solution of self @ x = b, or None when inconsistent."""
        if len(b) != self.rows:
            raise ShapeMismatch(f"solve: {self.rows} rows vs rhs of length {len(b)}")
        field = self.field
        m = [list(row) + [x] for row, x in zip(self.plain, field.unbox(b))]
        pivots = rref_rows(m, self.cols + 1, field)
        if self.cols in pivots:  # pivot in the rhs column
            return None
        x = [0] * self.cols
        for row, pc in zip(m, pivots):
            x[pc] = row[-1]
        return tuple(map(field.box, x))


class Subspace:
    """Linear subspace given by its canonical RREF basis (rows)."""

    __slots__ = ("field", "ambient", "plain", "pivots")

    def __init__(self, field, ambient, plain, pivots):
        self.field = field
        self.ambient = ambient
        self.plain = plain  # tuple of plain row tuples, already RREF, no zero rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        rows = []
        for v in vectors:
            if len(v) != ambient:
                raise ShapeMismatch(f"vectors of length {len(v)} in ambient dimension {ambient}")
            rows.append(field.unbox(v))
        return cls._from_plain(field, ambient, rows)

    @classmethod
    def _from_plain(cls, field, ambient, rows):
        """Span of canonical plain vectors of length ambient, given as a list
        that rref_rows may reorder and overwrite."""
        pivots = rref_rows(rows, ambient, field)
        return cls(field, ambient, tuple(map(tuple, rows[:len(pivots)])), tuple(pivots))

    @classmethod
    def coordinate(cls, field, ambient, indices):
        """Span of the unit vectors e_i, i in indices.  Sorted distinct unit
        rows are already their own canonical RREF basis."""
        pivots = tuple(sorted(set(indices)))
        if pivots and not (0 <= pivots[0] and pivots[-1] < ambient):
            raise IndexOutOfRange(f"coordinate index out of range for ambient dimension {ambient}")
        return cls(field, ambient,
                   tuple(tuple(int(j == i) for j in range(ambient)) for i in pivots), pivots)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient):
        return cls.coordinate(field, ambient, range(ambient))

    @property
    def basis(self):
        """The basis rows as public scalars."""
        box = self.field.box
        return tuple(tuple(map(box, row)) for row in self.plain)

    @property
    def dim(self):
        return len(self.plain)

    def _remainder(self, v):
        if len(v) != self.ambient:
            raise ShapeMismatch("vector length does not match ambient dimension")
        return reduce_row(self.plain, self.pivots, self.field.unbox(v), self.field.p)

    def reduce(self, v):
        """Remainder of v after eliminating along the basis."""
        return tuple(map(self.field.box, self._remainder(v)))

    def contains(self, v):
        return not any(self._remainder(v))

    def contains_subspace(self, other):
        self._check(other)
        return all(self.contains(row) for row in other.plain)

    def __add__(self, other):
        self._check(other)
        return Subspace._from_plain(self.field, self.ambient, list(self.plain + other.plain))

    def _check(self, other):
        """Another ambient dimension raises ShapeMismatch, then another field
        FieldMismatch, the zero subspace included."""
        if other.ambient != self.ambient:
            raise ShapeMismatch("subspace length does not match ambient dimension")
        if other.field != self.field:
            raise FieldMismatch(f"subspace over {other.field!r} in a space over {self.field!r}")

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.plain == other.plain)

    def __hash__(self):
        return hash((self.field, self.ambient, self.plain))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"
