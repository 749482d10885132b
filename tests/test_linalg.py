"""Exact matrices and subspaces: rank, kernels, determinants, minors."""

import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from evoalg.errors import (FieldMismatch, IndexOutOfRange, InvalidArgument, NonSquareMatrix,
                           ShapeMismatch)
from evoalg.fields import GF, QQ
from evoalg.linalg import Matrix, Subspace


def _det_cofactor(field, rows):
    """Reference determinant by Leibniz expansion (independent route)."""
    n = len(rows)
    total = field.zero
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = field.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + (term if sign == 1 else -term)
    return total


def intersect(u, w):
    """Reference U ∩ W by the kernel method: every solution (a, b) of
    a.U - b.W = 0 gives the vector a.U of the intersection."""
    field = u.field
    if not (u.dim and w.dim):
        return Subspace.zero(field, u.ambient)
    stacked = Matrix(field, list(u.basis) + [[-x for x in row] for row in w.basis])
    mine = Matrix(field, u.basis).transpose()
    return Subspace.from_vectors(field, u.ambient, [mine.matvec(c[:u.dim])
                                                    for c in stacked.transpose().kernel().basis])


def test_rank_singular_example():
    m = Matrix(GF(5), [[0, 1, 1], [1, 0, 1], [1, 1, 2]])
    assert m.rank() == 2
    assert m.det() == GF(5).zero
    mq = Matrix(QQ, [[0, 1, 1], [1, 0, 1], [1, 1, 2]])
    assert mq.det() == 0 and mq.rank() == 2


def test_rational_rank_counts_rref_pivots():
    # Over Q rank runs forward elimination only; it must count the pivots
    # of the full RREF, zero rows, empty and non-square shapes included.
    assert Matrix(QQ, []).rank() == 0
    rng = random.Random(33)
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        data = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * (rng.random() < 0.7)
                 for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.3:
            data[rng.randrange(rows)] = [0] * cols
        if rng.random() < 0.3:
            data.append([2 * x for x in data[0]])
        m = Matrix(QQ, data)
        assert m.rank() == len(m.rref()[2]), data


def test_rref_canonical():
    m = Matrix(QQ, [[2, 4], [1, 2]])
    red, rank, pivots = m.rref()
    assert rank == 1 and pivots == (0,)
    assert red.row(0) == (Fraction(1), Fraction(2))
    assert not any(red.row(1))


def test_det_bareiss_vs_cofactor():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(n)] for _ in range(n)]
        m = Matrix(QQ, rows)
        assert m.det() == _det_cofactor(QQ, [m.row(i) for i in range(n)])


def test_det_gf_vs_cofactor():
    rng = random.Random(12)
    F = GF(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[F(rng.randrange(7)) for _ in range(n)] for _ in range(n)]
        m = Matrix(F, rows)
        assert m.det() == _det_cofactor(F, [m.row(i) for i in range(n)])


def test_det_requires_square():
    with pytest.raises(NonSquareMatrix):
        Matrix(QQ, [[1, 2, 3], [4, 5, 6]]).det()


def test_minor_matches_submatrix_det():
    rng = random.Random(13)
    rows = [[Fraction(rng.randint(-4, 4)) for _ in range(4)] for _ in range(4)]
    m = Matrix(QQ, rows)
    for k in range(1, 4):
        for rs in combinations(range(4), k):
            for cs in combinations(range(4), k):
                sub = m.submatrix(rs, cs)
                assert m.minor(rs, cs) == sub.det()
    with pytest.raises(ShapeMismatch):
        m.minor((0, 1), (0,))


def test_kernel_rank_nullity():
    rng = random.Random(14)
    for F in (QQ, GF(3)):
        for _ in range(40):
            rows_n = rng.randint(1, 4)
            cols_n = rng.randint(1, 4)
            rows = [[F(rng.randint(-3, 3)) for _ in range(cols_n)]
                    for _ in range(rows_n)]
            m = Matrix(F, rows)
            ker = m.kernel()
            assert m.rank() + ker.dim == cols_n
            for v in ker.basis:
                assert not any(m.matvec(v))


def test_solve():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    x = m.solve([5, 11])
    assert x is not None
    assert list(m.matvec(x)) == [Fraction(5), Fraction(11)]
    singular = Matrix(QQ, [[1, 1], [1, 1]])
    assert singular.solve([1, 2]) is None
    x = singular.solve([2, 2])
    assert x is not None and list(singular.matvec(x)) == [Fraction(2)] * 2


def test_matmul_and_transpose():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, [[0, 1], [1, 0]])
    assert (a * b) == Matrix(QQ, [[2, 1], [4, 3]])
    assert a.transpose() == Matrix(QQ, [[1, 3], [2, 4]])
    with pytest.raises(ShapeMismatch, match="ragged rows"):
        Matrix(QQ, [[1, 2], [3]])
    assert Matrix(QQ, [[1, 0], [0, 1]]) * a == a


def test_products_and_solve_check_shapes():
    a = Matrix(QQ, [[1, 2], [3, 4]])
    with pytest.raises(ShapeMismatch, match=r"^matvec: 2 columns vs vector of length 3$"):
        a.matvec([1, 2, 3])
    with pytest.raises(ShapeMismatch, match=r"^matmul: 2 vs 1$"):
        a * Matrix(QQ, [[1, 2]])
    with pytest.raises(TypeError):
        a * 3
    with pytest.raises(ShapeMismatch, match=r"^solve: 2 rows vs rhs of length 3$"):
        a.solve([1, 2, 3])


def test_subspace_sum_and_intersection_dims():
    rng = random.Random(15)
    F = GF(5)
    for _ in range(50):
        n = rng.randint(1, 4)
        u = Subspace.from_vectors(F, n, [[F(rng.randrange(5)) for _ in range(n)]
                                         for _ in range(rng.randint(0, 3))])
        w = Subspace.from_vectors(F, n, [[F(rng.randrange(5)) for _ in range(n)]
                                         for _ in range(rng.randint(0, 3))])
        s = u + w
        i = intersect(u, w)
        # dim(U + W) + dim(U ∩ W) = dim U + dim W
        assert s.dim + i.dim == u.dim + w.dim
        for v in i.basis:
            assert u.contains(v) and w.contains(v)
        assert s.contains_subspace(u) and s.contains_subspace(w)


def test_subspace_canonical_equality():
    F = QQ
    a = Subspace.from_vectors(F, 3, [[1, 1, 0], [0, 0, 1]])
    b = Subspace.from_vectors(F, 3, [[2, 2, 3], [0, 0, -1]])
    assert a == b
    assert a.contains([5, 5, -2])
    assert not a.contains([1, 0, 0])
    # A zero subspace lies in every subspace of its ambient space; a zero or
    # nonzero one over another field or ambient dimension raises, and so
    # does a sum: another dimension first, then another field.
    assert a.contains_subspace(Subspace.zero(QQ, 3))
    full5 = Subspace.full(GF(5), 3)
    operations = (Subspace.contains_subspace, Subspace.__add__)
    for space, other in ((a, Subspace.coordinate(GF(5), 3, [0])), (full5, a),
                         (full5, Subspace.full(GF(7), 3)), (a, Subspace.zero(GF(5), 3))):
        for op in operations:
            with pytest.raises(FieldMismatch):
                op(space, other)
    for space, other in ((a, Subspace.full(QQ, 2)), (full5, Subspace.coordinate(GF(5), 4, [3])),
                         (a, Subspace.zero(QQ, 2)), (full5, Subspace.zero(QQ, 2))):
        for op in operations:
            with pytest.raises(ShapeMismatch):
                op(space, other)


def test_subspace_reduce():
    a = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    assert list(a.reduce([3, 4, 5])) == [0, 0, 5]
    assert list(a.reduce([3, 4, 0])) == [0, 0, 0]


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("indices", [[], [0, 1, 2, 3], [3, 0, 2], [1, 1, 3, 1]])
def test_subspace_coordinate_matches_rref(field, indices):
    # The rref route is the reference for the direct unit-row construction.
    n = 4
    units = [[field.one if j == i else field.zero for j in range(n)] for i in indices]
    reference = Subspace.from_vectors(field, n, units)
    direct = Subspace.coordinate(field, n, indices)
    assert direct == reference
    assert direct.basis == reference.basis
    assert direct.pivots == reference.pivots
    assert hash(direct) == hash(reference)
    if len(set(indices)) == n:
        assert direct == Subspace.full(field, n)


def test_subspace_vector_lengths_are_checked():
    with pytest.raises(ShapeMismatch, match="^vectors of length 2 in ambient dimension 3$"):
        Subspace.from_vectors(QQ, 3, [[1, 0, 0], [1, 0]])
    space = Subspace.from_vectors(GF(5), 3, [[1, 2, 0]])
    for method in (space.contains, space.reduce):
        with pytest.raises(ShapeMismatch,
                           match="^vector length does not match ambient dimension$"):
            method([1, 2])


def test_subspace_coordinate_rejects_out_of_range():
    for bad in ([3], [-1], [0, 4]):
        with pytest.raises(IndexOutOfRange):
            Subspace.coordinate(QQ, 3, bad)


def test_submatrix_and_minor_check_indices():
    # Out of range and negative indices (which would wrap to the last row)
    # are refused, and so is a repeated index (whose minor would read 0).
    m = Matrix(GF(7), [[1, 2, 3], [4, 5, 6], [0, 1, 1]])
    for rows, cols in (([3], [0]), ([-1], [0]), ([0, 1], [0, 3])):
        with pytest.raises(IndexOutOfRange):
            m.minor(rows, cols)
        with pytest.raises(IndexOutOfRange):
            m.submatrix(rows, cols)
    for rows, cols in (([0, 0], [0, 1]), ([0, 1], [2, 2])):
        with pytest.raises(InvalidArgument):
            m.minor(rows, cols)
        with pytest.raises(InvalidArgument):
            m.submatrix(rows, cols)
    assert m.minor([2, 0], [1, 0]) == GF(7)(1)
