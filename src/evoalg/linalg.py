"""Exact dense linear algebra over a field descriptor.

Matrices are immutable, row-major, with a deterministic reduced row
echelon form (first nonzero entry scanning left-to-right, top-to-bottom
picks the pivot).  Determinants use fraction-free Bareiss elimination
over Q and plain Gaussian elimination over GF(p).  Subspaces are stored
as canonical RREF bases, so equality of subspaces is structural.
"""

from fractions import Fraction
from math import lcm

from .errors import IndexOutOfRange, NonSquareMatrix, ShapeMismatch
from .fields import QQ


class Matrix:
    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, data):
        self.field = field
        self.data = tuple(tuple(field(x) for x in row) for row in data)
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        if any(len(row) != self.cols for row in self.data):
            raise ShapeMismatch("ragged rows")

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
        return Matrix(self.field, list(zip(*self.data)))

    def submatrix(self, row_indices, col_indices):
        return Matrix(self.field,
                      [[self.data[i][j] for j in col_indices] for i in row_indices])

    def matvec(self, v):
        if len(v) != self.cols:
            raise ShapeMismatch(f"matvec: {self.cols} columns vs vector of length {len(v)}")
        v = [self.field(x) for x in v]
        return tuple(sum((row[j] * v[j] for j in range(self.cols)), self.field.zero)
                     for row in self.data)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(f"matmul: {self.cols} vs {other.rows}")
        cols = [other.column(j) for j in range(other.cols)]
        return Matrix(self.field,
                      [[sum((row[k] * col[k] for k in range(self.cols)), self.field.zero)
                        for col in cols] for row in self.data])

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data == other.data)

    def __hash__(self):
        return hash((self.field, self.data))

    def __repr__(self):
        return f"Matrix({self.field!r}, {[list(r) for r in self.data]!r})"

    def rref(self):
        """(rref matrix, rank, pivot columns) by exact Gauss-Jordan."""
        m = [list(row) for row in self.data]
        pivots = []
        pr = 0
        for pc in range(self.cols):
            pivot_row = next((i for i in range(pr, self.rows) if m[i][pc]), None)
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            inv = self.field.one / m[pr][pc]
            m[pr] = [x * inv for x in m[pr]]
            for i in range(self.rows):
                if i != pr and m[i][pc]:
                    f = m[i][pc]
                    m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        return Matrix(self.field, m), pr, tuple(pivots)

    def rank(self):
        return self.rref()[1]

    def kernel(self):
        """Canonical RREF basis of the right null space."""
        red, rank, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        vectors = []
        for f in free:
            v = [self.field.zero] * self.cols
            v[f] = self.field.one
            for r, pc in enumerate(pivots):
                v[pc] = -red.entry(r, f)
            vectors.append(v)
        return Subspace.from_vectors(self.field, self.cols, vectors)

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
        n = self.rows
        m = [list(row) for row in self.data]
        det = self.field.one
        for k in range(n):
            pivot = next((i for i in range(k, n) if m[i][k]), None)
            if pivot is None:
                return self.field.zero
            if pivot != k:
                m[k], m[pivot] = m[pivot], m[k]
                det = -det
            det = det * m[k][k]
            inv = self.field.one / m[k][k]
            for i in range(k + 1, n):
                if m[i][k]:
                    f = m[i][k] * inv
                    m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        return det

    def minor(self, row_indices, col_indices):
        row_indices, col_indices = sorted(row_indices), sorted(col_indices)
        if len(row_indices) != len(col_indices):
            raise ShapeMismatch("minor needs equally sized row and column sets")
        return self.submatrix(row_indices, col_indices).det()

    def solve(self, b):
        """One exact solution of self @ x = b, or None when inconsistent."""
        if len(b) != self.rows:
            raise ShapeMismatch(f"solve: {self.rows} rows vs rhs of length {len(b)}")
        aug = Matrix(self.field,
                     [list(row) + [self.field(x)] for row, x in zip(self.data, b)])
        red, rank, pivots = aug.rref()
        if self.cols in pivots:  # pivot in the rhs column
            return None
        x = [self.field.zero] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = red.entry(r, self.cols)
        return tuple(x)


class Subspace:
    """Linear subspace given by its canonical RREF basis (rows)."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient, basis, pivots):
        self.field = field
        self.ambient = ambient
        self.basis = basis  # tuple of row tuples, already RREF, no zero rows
        self.pivots = pivots

    @classmethod
    def from_vectors(cls, field, ambient, vectors):
        vectors = [v for v in vectors]
        if not vectors:
            return cls(field, ambient, (), ())
        m = Matrix(field, vectors)
        if m.cols != ambient:
            raise ShapeMismatch(f"vectors of length {m.cols} in ambient dimension {ambient}")
        red, rank, pivots = m.rref()
        return cls(field, ambient, red.data[:rank], pivots)

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
    def dim(self):
        return len(self.basis)

    def vectors(self):
        return list(self.basis)

    def reduce(self, v):
        """Remainder of v after eliminating along the basis."""
        v = [self.field(x) for x in v]
        if len(v) != self.ambient:
            raise ShapeMismatch("vector length does not match ambient dimension")
        for row, pc in zip(self.basis, self.pivots):
            if v[pc]:
                f = v[pc]
                v = [a - f * b for a, b in zip(v, row)]
        return tuple(v)

    def contains(self, v):
        return not any(self.reduce(v))

    def contains_subspace(self, other):
        return all(self.contains(row) for row in other.basis)

    def __add__(self, other):
        self._check(other)
        return Subspace.from_vectors(self.field, self.ambient,
                                     list(self.basis) + list(other.basis))

    def intersect(self, other):
        """Kernel method: solutions of a.U - b.V = 0 give the intersection."""
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        columns = [list(row) for row in self.basis] + [[-x for x in row] for row in other.basis]
        stacked = Matrix.from_columns(self.field, columns)
        coeffs = stacked.kernel()
        vectors = []
        for c in coeffs.basis:
            v = [self.field.zero] * self.ambient
            for a, row in zip(c[:self.dim], self.basis):
                v = [x + a * y for x, y in zip(v, row)]
            vectors.append(v)
        return Subspace.from_vectors(self.field, self.ambient, vectors)

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
