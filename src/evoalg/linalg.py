"""Exact dense linear algebra over a field descriptor.

Matrices are immutable, row-major, with a deterministic reduced row
echelon form (first nonzero entry scanning left-to-right, top-to-bottom
picks the pivot).  Over Q, RREF and determinants use fraction-free
Bareiss elimination on rows scaled to integers; over GF(p), plain
Gaussian elimination on residues.  Subspaces are stored as canonical
RREF bases, so equality of subspaces is structural.

Entries are public scalars (``Mod`` or ``Fraction``), but elimination,
products and reduction run once, in the module-level kernels below, over
the descriptor's plain values (``fields``); a matrix or subspace keeps its
plain view, and a result is boxed once on the way out.
"""

from fractions import Fraction
from operator import mul

from .errors import FieldMismatch, IndexOutOfRange, NonSquareMatrix, ShapeMismatch
from .fields import QQ, integer_row


def rref_rows(m, cols, field):
    """Gauss-Jordan on the list m of plain rows, in place: rows are swapped
    and replaced, never modified.  Returns the pivot columns."""
    if field.p is None:
        # Over Q: one division by the last pivot d ends fraction-free
        # Gauss-Jordan on the rows scaled to integers.
        m[:] = [integer_row(row)[0] for row in m]
        pivots, d, _ = bareiss_rows(m, cols, above=True)
        m[:len(pivots)] = [[Fraction(x, d) for x in row] for row in m[:len(pivots)]]
        return pivots
    # Over GF(p): the row at pc is 0 left of pc, so normalize makes it 1
    # at pc.
    normalize, eliminate = field.normalize, field.eliminate
    pivots = []
    for pc in range(cols):
        pr = len(pivots)
        pivot_row = next((i for i in range(pr, len(m)) if m[i][pc]), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        row = m[pr] = normalize(m[pr])
        for i, other in enumerate(m):
            if other[pc] and i != pr:
                m[i] = eliminate(other, row, pc)
        pivots.append(pc)
        if pr + 1 == len(m):
            break
    return pivots


def bareiss_rows(m, cols, above):
    """Fraction-free (Bareiss) elimination of the integer rows m, in place:
    every update p*a - f*b is divided exactly by the previous pivot, so each
    entry stays an integer minor of m.  Rows below the pivot are cleared,
    and with above the rows above it too (Gauss-Jordan), which leaves the
    last pivot at the pivot of every pivot row.  Returns the pivot columns,
    the last pivot and the sign of the row swaps."""
    pivots, prev, sign = [], 1, 1
    for pc in range(cols):
        pr = len(pivots)
        pivot_row = next((i for i in range(pr, len(m)) if m[i][pc]), None)
        if pivot_row is None:
            continue
        if pivot_row != pr:
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            sign = -sign
        row = m[pr]
        p = row[pc]
        for i in range(0 if above else pr + 1, len(m)):
            if i == pr:
                continue
            other = m[i]
            f = other[pc]
            if f:
                m[i] = [(p * a - f * b) // prev for a, b in zip(other, row)]
            elif p != prev:
                m[i] = [p * a // prev for a in other]
        prev = p
        pivots.append(pc)
        if pr + 1 == len(m):
            break
    return pivots, prev, sign


def reduce_row(rows, pivots, v, field):
    """v reduced along rows that are nonzero at their pivot and 0 at the
    pivots of the rows before it: 0 at every pivot, and a nonzero multiple
    of the remainder (the remainder itself when every row is 1 at its
    pivot)."""
    eliminate = field.eliminate
    for row, pc in zip(rows, pivots):
        if v[pc]:
            v = eliminate(v, row, pc)
    return v


def matvec_rows(rows, v, red):
    """The plain product of rows and the vector v."""
    return [red(sum(map(mul, row, v))) for row in rows]


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
    __slots__ = ("field", "rows", "cols", "data", "_plain")

    def __init__(self, field, data):
        self.field = field
        self.data = tuple(tuple(field(x) for x in row) for row in data)
        self._plain = None
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ShapeMismatch("ragged rows")

    @classmethod
    def _trusted(cls, field, data, plain=None):
        """A matrix of rows already in the field, with their plain view if known."""
        m = cls.__new__(cls)
        m.field, m.data, m._plain = field, data, plain
        m.rows = len(data)
        m.cols = len(data[0]) if data else 0
        return m

    @classmethod
    def _from_plain(cls, field, plain):
        """Box canonical plain rows once."""
        plain = tuple(map(tuple, plain))
        box = field.box
        return cls._trusted(field, tuple(tuple(map(box, row)) for row in plain), plain)

    @property
    def plain(self):
        """The rows as plain values (residues over GF(p))."""
        if self._plain is None:
            view = self.field.view
            self._plain = tuple(tuple(view(row)) for row in self.data)
        return self._plain

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[field.one if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def zero(cls, field, rows, cols):
        z = field.zero
        return cls(field, [[z] * cols for _ in range(rows)])

    @classmethod
    def diagonal(cls, field, entries):
        entries = [field(x) for x in entries]
        n = len(entries)
        return cls(field, [[entries[i] if i == j else field.zero for j in range(n)]
                           for i in range(n)])

    @classmethod
    def from_columns(cls, field, columns):
        return cls(field, list(zip(*columns))) if columns else cls(field, [])

    def entry(self, i, j):
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(row[j] for row in self.data)

    @property
    def is_square(self):
        return self.rows == self.cols

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def transpose(self):
        plain = tuple(zip(*self._plain)) if self._plain is not None else None
        return Matrix._trusted(self.field, tuple(zip(*self.data)), plain)

    def submatrix(self, row_indices, col_indices):
        return Matrix._trusted(self.field, tuple(tuple(self.data[i][j] for j in col_indices)
                                                 for i in row_indices))

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
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(r) for r in self.data]!r})"

    def _reduced(self):
        """Plain RREF rows and pivot columns."""
        m = list(self.plain)
        return m, rref_rows(m, self.cols, self.field)

    def rref(self):
        """(rref matrix, rank, pivot columns) by exact Gauss-Jordan."""
        m, pivots = self._reduced()
        return Matrix._from_plain(self.field, m), len(pivots), tuple(pivots)

    def rank(self):
        if self.field.p is None:
            # Over Q only the pivots are needed: forward Bareiss, no Fractions.
            m = [integer_row(row)[0] for row in self.plain]
            return len(bareiss_rows(m, self.cols, above=False)[0])
        return len(self._reduced()[1])

    def kernel(self):
        """Canonical RREF basis of the right null space."""
        m, pivots = self._reduced()
        return Subspace._from_plain(self.field, self.cols,
                                    kernel_rows(m, self.cols, pivots, self.field.reduce))

    def det(self):
        if not self.is_square:
            raise NonSquareMatrix("determinant of a non-square matrix")
        if self.rows == 0:
            return self.field.one
        if self.field == QQ:
            return self._det_bareiss()
        return self._det_gauss()

    def _det_bareiss(self):
        # Each row scaled to integers multiplies the determinant by its scale.
        m, denom = [], 1
        for row in self.data:
            row, scale = integer_row(row)
            m.append(row)
            denom *= scale
        pivots, d, sign = bareiss_rows(m, self.cols, above=False)
        return Fraction(sign * d if len(pivots) == self.rows else 0, denom)

    def _det_gauss(self):
        field = self.field
        red, inv = field.reduce, field.inv
        n = self.rows
        m = list(self.plain)
        det = 1
        for k in range(n):
            pivot = next((i for i in range(k, n) if m[i][k]), None)
            if pivot is None:
                return field.box(0)
            if pivot != k:
                m[k], m[pivot] = m[pivot], m[k]
                det = -det
            det = red(det * m[k][k])
            c = inv(m[k][k])
            for i in range(k + 1, n):
                if m[i][k]:
                    f = red(m[i][k] * c)
                    m[i] = [red(a - f * b) for a, b in zip(m[i], m[k])]
        return field.box(det)

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

    __slots__ = ("field", "ambient", "basis", "pivots", "_plain")

    def __init__(self, field, ambient, basis, pivots, plain=None):
        self.field = field
        self.ambient = ambient
        self.basis = basis  # tuple of row tuples, already RREF, no zero rows
        self.pivots = pivots
        self._plain = plain

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
        plain = tuple(map(tuple, rows[:len(pivots)]))
        box = field.box
        return cls(field, ambient, tuple(tuple(map(box, row)) for row in plain),
                   tuple(pivots), plain)

    @classmethod
    def coordinate(cls, field, ambient, indices):
        """Span of the unit vectors e_i, i in indices.  Sorted distinct unit
        rows are already their own canonical RREF basis."""
        pivots = tuple(sorted(set(indices)))
        if pivots and not (0 <= pivots[0] and pivots[-1] < ambient):
            raise IndexOutOfRange(f"coordinate index out of range for ambient dimension {ambient}")
        zero, one = field.zero, field.one
        basis = tuple(tuple(one if j == i else zero for j in range(ambient)) for i in pivots)
        return cls(field, ambient, basis, pivots)

    @classmethod
    def zero(cls, field, ambient):
        return cls(field, ambient, (), ())

    @classmethod
    def full(cls, field, ambient):
        return cls.coordinate(field, ambient, range(ambient))

    @property
    def plain(self):
        """The basis rows as plain values."""
        if self._plain is None:
            view = self.field.view
            self._plain = tuple(tuple(view(row)) for row in self.basis)
        return self._plain

    @property
    def dim(self):
        return len(self.basis)

    def vectors(self):
        return list(self.basis)

    def _remainder(self, v):
        if len(v) != self.ambient:
            raise ShapeMismatch("vector length does not match ambient dimension")
        return reduce_row(self.plain, self.pivots, self.field.unbox(v), self.field)

    def reduce(self, v):
        """Remainder of v after eliminating along the basis."""
        return tuple(map(self.field.box, self._remainder(v)))

    def contains(self, v):
        return not any(self._remainder(v))

    def contains_subspace(self, other):
        return all(self.contains(row) for row in other.basis)

    def __add__(self, other):
        self._check(other)
        return Subspace._from_plain(self.field, self.ambient, list(self.plain + other.plain))

    def intersect(self, other):
        """Kernel method: solutions of a.U - b.V = 0 give the intersection."""
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        red = self.field.reduce
        columns = list(self.plain) + [[red(-x) for x in row] for row in other.plain]
        m = list(zip(*columns))
        size = len(columns)
        pivots = rref_rows(m, size, self.field)
        mine = list(zip(*self.plain))
        return Subspace._from_plain(self.field, self.ambient,
                                    [matvec_rows(mine, c[:self.dim], red)
                                     for c in kernel_rows(m, size, pivots, red)])

    def _check(self, other):
        if self.field != other.field or self.ambient != other.ambient:
            raise ShapeMismatch("subspaces live in different ambient spaces")

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.field == other.field
                and self.ambient == other.ambient and self.basis == other.basis)

    def __hash__(self):
        return hash((self.field, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"
