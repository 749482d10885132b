"""Exact dense linear algebra over a field descriptor.

Matrices are immutable, row-major, with a deterministic reduced row
echelon form (first nonzero entry scanning left-to-right, top-to-bottom
picks the pivot).  Determinants use fraction-free Bareiss elimination
over Q and plain Gaussian elimination over GF(p).  Subspaces are stored
as canonical RREF bases, so equality of subspaces is structural.

Entries are public scalars (``Mod`` or ``Fraction``), but elimination,
products and reduction run once, in the module-level kernels below, over
the descriptor's plain values (``fields``); a matrix or subspace keeps its
plain view, and a result is boxed once on the way out.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import FieldMismatch, IndexOutOfRange, NonSquareMatrix, ShapeMismatch
from .fields import QQ


def rref_rows(m, cols, red, inv):
    """Gauss-Jordan on the list m of plain rows, in place: rows are swapped
    and replaced, never modified.  Returns the pivot columns."""
    pivots = []
    for pc in range(cols):
        pr = len(pivots)
        pivot_row = next((i for i in range(pr, len(m)) if m[i][pc]), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        c = inv(m[pr][pc])
        row = m[pr] = [red(x * c) for x in m[pr]]
        for i, other in enumerate(m):
            f = other[pc]
            if f and i != pr:
                m[i] = [red(a - f * b) for a, b in zip(other, row)]
        pivots.append(pc)
        if pr + 1 == len(m):
            break
    return pivots


def reduce_row(rows, pivots, v, red):
    """Remainder of the plain vector v after eliminating along rows that are
    1 at their pivot and 0 at the pivots of the rows before them."""
    for row, pc in zip(rows, pivots):
        f = v[pc]
        if f:
            v = [red(a - f * b) for a, b in zip(v, row)]
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
        return m, rref_rows(m, self.cols, self.field.reduce, self.field.inv)

    def rref(self):
        """(rref matrix, rank, pivot columns) by exact Gauss-Jordan."""
        m, pivots = self._reduced()
        return Matrix._from_plain(self.field, m), len(pivots), tuple(pivots)

    def rank(self):
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
        # Scale each row to integers, then fraction-free elimination.
        n = self.rows
        denom = 1
        m = []
        for row in self.data:
            scale = lcm(*(x.denominator for x in row)) if row else 1
            m.append([int(x * scale) for x in row])
            denom *= scale
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                swap = next((i for i in range(k + 1, n) if m[i][k]), None)
                if swap is None:
                    return Fraction(0)
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return Fraction(sign * m[n - 1][n - 1], denom)

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
        pivots = rref_rows(m, self.cols + 1, field.reduce, field.inv)
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
        pivots = rref_rows(rows, ambient, field.reduce, field.inv)
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
        return reduce_row(self.plain, self.pivots, self.field.unbox(v), self.field.reduce)

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
        pivots = rref_rows(m, size, red, self.field.inv)
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
