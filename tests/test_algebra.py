"""Algebra construction, products, closures, basis changes, homomorphisms."""

import random
from fractions import Fraction
from math import isqrt

import pytest

import evoalg.algebra as algebra_module
import evoalg.generate as generate
import evoalg.linalg as linalg_module
from evoalg.algebra import (Element, EvolutionAlgebra,
                            check_algebra_homomorphism)
from evoalg.errors import (AlgebraMismatch, IndexOutOfRange, NotANaturalBasis,
                           SamplingExhausted, ShapeMismatch)
from evoalg.fields import GF, QQ
from evoalg.generate import random_algebra
from evoalg.linalg import Matrix, Subspace, rref_rows


def algebra_q(rows):
    return EvolutionAlgebra(QQ, rows)


def test_shape_checks():
    with pytest.raises(ShapeMismatch):
        EvolutionAlgebra(QQ, [[1, 2]])
    with pytest.raises(ShapeMismatch):
        EvolutionAlgebra(QQ, [[1, 2], [3, 4]], labels=["a"])
    with pytest.raises(IndexOutOfRange):
        algebra_q([[1]]).unit(1)


def test_empty_matrix_and_bad_exponent_and_homomorphism_shape():
    for structure in ([], Matrix(QQ, [])):
        with pytest.raises(ShapeMismatch, match="^dimension must be at least 1$"):
            EvolutionAlgebra(QQ, structure)
    a = algebra_q([[1, 0], [0, 1]])
    for k in (0, -1):
        with pytest.raises(IndexOutOfRange, match="^power exponent must be >= 1$"):
            a.unit(0).power(k)
    for f in ([[1, 0, 0], [0, 1, 0]], [[1, 0]]):
        with pytest.raises(ShapeMismatch,
                           match="^homomorphism matrix shape does not match the algebras$"):
            check_algebra_homomorphism(a, a, f)


def test_basis_products():
    # e_1^2 = e_1 + e_2, e_2^2 = e_2: columns of the structure matrix.
    a = algebra_q([[1, 0], [1, 1]])
    e1, e2 = a.basis()
    assert (e1 * e1).coords == (Fraction(1), Fraction(1))
    assert (e2 * e2).coords == (Fraction(0), Fraction(1))
    assert (e1 * e2).is_zero()
    u = a.element([1, 1])
    assert (u * u).coords == (Fraction(1), Fraction(2))


def test_element_ops():
    a = algebra_q([[1, 0], [1, 1]])
    u = a.element([1, 2])
    v = a.element([3, -1])
    assert (u + v).coords == (Fraction(4), Fraction(1))
    assert (u - v).coords == (Fraction(-2), Fraction(3))
    assert (-u).coords == (Fraction(-1), Fraction(-2))
    assert (2 * u).coords == (Fraction(2), Fraction(4))
    assert u.support() == frozenset({0, 1})
    assert u.power(1) == u and u.power(2) == u * u
    assert u.power(3) == u * (u * u)
    with pytest.raises(AlgebraMismatch):
        u * algebra_q([[1, 0], [0, 1]]).element([1, 0])
    with pytest.raises(AlgebraMismatch, match="^expected an Element, got int$"):
        u * 3


def test_ideal_closure_reaches_whole_algebra():
    # Span and ideal closure of {e_1, e_2, e_3} differ: the closure picks up
    # e_3^2 = e_4 and becomes the whole four dimensional algebra.
    a = algebra_q([[1, 1, 0, 0],
                   [0, 0, 0, 0],
                   [0, 1, 0, 1],
                   [0, 0, 1, 0]])
    gens = [a.unit(0), a.unit(1), a.unit(2)]
    span = Subspace.from_vectors(QQ, 4, [g.coords for g in gens])
    assert span.dim == 3
    closure = a.ideal_closure(gens)
    assert closure == Subspace.full(QQ, 4)
    assert a.subalgebra_closure(gens) == Subspace.full(QQ, 4)


def test_subalgebra_closure_single_generator():
    a = algebra_q([[1, 1, 0, 0],
                   [0, 0, 0, 0],
                   [0, 1, 0, 1],
                   [0, 0, 1, 0]])
    assert a.subalgebra_closure([a.unit(0)]).dim == 1
    # e_3 generates e_3, e_4 = e_3^2, e_3 = e_4^2: a 2-dim subalgebra.
    assert a.subalgebra_closure([a.unit(2)]).dim == 2


def annihilator_definitional(algebra):
    """Reference: the kernel {x : x e_j = 0 for all j}, independent of the
    zero-column rule (x e_j = x_j e_j^2, one equation per entry of M)."""
    rows = []
    for j, col in enumerate(zip(*algebra.M.plain)):
        for x in col:
            row = [0] * algebra.n
            row[j] = x
            rows.append(row)
    return Matrix._from_plain(algebra.field, rows).kernel()


def test_annihilator_two_routes():
    rng = random.Random(3)
    for field in (QQ, GF(5)):
        for _ in range(60):
            a = random_algebra(field, rng.randint(1, 4), rng=rng)
            assert a.annihilator() == annihilator_definitional(a)


def test_random_algebra_budget(monkeypatch):
    monkeypatch.setattr(generate, "MAX_TRIES", 0)
    with pytest.raises(SamplingExhausted,
                       match="^rejection sampling found no algebra in 0 tries$"):
        random_algebra(GF(2), 3, seed=1, perfect=True)


def test_annihilator_membership_brute():
    a = algebra_q([[0, 1], [0, -1]])
    ann = a.annihilator()
    assert ann.dim == 1 and ann.contains([1, 0])
    # A vector with zero square need not annihilate the algebra.
    b = algebra_q([[1, -1], [0, 0]])
    u = b.element([1, 1])
    assert u.square().is_zero()
    assert b.annihilator().dim == 0


def test_square_space_and_perfect():
    a = algebra_q([[1, 1], [1, 1]])
    assert a.square_space().dim == 1
    assert not a.is_perfect()
    b = algebra_q([[1, 0], [0, 1]])
    assert b.is_perfect()


def test_verify_and_change_basis():
    F = GF(5)
    a = EvolutionAlgebra(F, [[1, 1, 1], [1, 1, 1], [1, 1, 0]])
    bprime = [[1, 1, 0], [1, 4, 0], [0, 0, 1]]   # e1+e2, e1-e2, e3
    assert a.verify_natural_basis(bprime)
    rebased = a.change_basis(bprime)
    expected = Matrix(F, [[2, 2, 1], [0, 0, 0], [2, 2, 0]])
    assert rebased.M == expected
    with pytest.raises(NotANaturalBasis):
        a.change_basis([[1, 0, 0], [1, 1, 0], [0, 0, 1]])


def test_change_basis_roundtrip_products():
    # Products agree after mapping coordinates through the new basis.
    F = GF(7)
    a = EvolutionAlgebra(F, [[1, 1, 2], [1, 1, 2], [1, 1, 2]])
    vecs = [[1, 1, 0], [1, 6, 0], [0, 0, 1]]
    rebased = a.change_basis(vecs)
    P = Matrix.from_columns(F, [list(map(F, v)) for v in vecs])
    rng = random.Random(4)
    for _ in range(20):
        x = [F(rng.randrange(7)) for _ in range(3)]
        y = [F(rng.randrange(7)) for _ in range(3)]
        lhs = P.matvec((rebased.element(x) * rebased.element(y)).coords)
        rhs = (a.element(P.matvec(x)) * a.element(P.matvec(y))).coords
        assert tuple(lhs) == tuple(rhs)


def test_homomorphism_swap_is_not_algebraic():
    # Swapping e_1 and e_2 when e_1^2 = e_1 + e_2, e_2^2 = e_2 breaks squares.
    a = algebra_q([[1, 0], [1, 1]])
    swap = [[0, 1], [1, 0]]
    assert not check_algebra_homomorphism(a, a, swap)
    assert check_algebra_homomorphism(a, a, [[1, 0], [0, 1]])


def test_homomorphism_onto_square_zero_line():
    # f(e_1) = -f(e_2) = e_1 + e_2 respects products when e_1^2 = -e_2^2.
    a = algebra_q([[1, -1], [1, -1]])
    f = [[1, -1], [1, -1]]
    assert check_algebra_homomorphism(a, a, f)


def test_adjoint_transpose():
    a = algebra_q([[1, 2], [3, 4]])
    adj = a.adjoint()
    assert adj.M == a.M.transpose()
    assert adj.adjoint().M == a.M


def test_labels_roundtrip():
    a = EvolutionAlgebra(QQ, [[1]], labels=["x"])
    assert a.labels == ("x",)
    assert a.adjoint().labels == ("x",)


def boxed_coords(algebra, x):
    """The public coordinates of an element, or of a coordinate list."""
    return (x if isinstance(x, Element) else algebra.element(x)).coords


def fixpoint_closure(algebra, elements, ideal):
    """Reference: all products of the current RREF basis (or of the basis
    with e_1..e_n), re-reduced each round, until a round adds nothing."""
    n = algebra.n
    span = Subspace.from_vectors(algebra.field, n,
                                 [boxed_coords(algebra, x) for x in elements])
    while True:
        rows = span.vectors()
        if ideal:
            products = [(algebra.unit(i) * Element(algebra, r)).coords
                        for r in rows for i in range(n)]
        else:
            products = [(Element(algebra, rows[a]) * Element(algebra, rows[b])).coords
                        for a in range(len(rows)) for b in range(a, len(rows))]
        bigger = Subspace.from_vectors(algebra.field, n, rows + products)
        if bigger.dim == span.dim:
            return span
        span = bigger


def closure_generators(rng, a):
    """Empty, zero, unit, random and linearly dependent generator lists."""
    F, n = a.field, a.n
    rand = [F(rng.randint(-2, 2)) if F == QQ else F(rng.randrange(F.p))
            for _ in range(n)]
    u = a.element(rand)
    v = a.unit(rng.randrange(n))
    return [[], [a.zero()], [v], [u], [u, a.zero(), u.scale(2)],
            [u, v, u + v], [list(u.coords), v]]


def test_closure_matches_fixpoint():
    rng = random.Random(11)
    for field in (QQ, GF(2), GF(3), GF(101)):
        for n in range(1, 8):
            for _ in range(3):
                a = random_algebra(field, n, rng=rng)
                if rng.random() < 0.5:
                    # Sparse structure matrices give proper closures.
                    rows = [[x if rng.random() < 0.3 else 0 for x in row]
                            for row in a.M.data]
                    a = EvolutionAlgebra(field, rows)
                for gens in closure_generators(rng, a):
                    assert a.subalgebra_closure(gens) == fixpoint_closure(a, gens, False)
                    assert a.ideal_closure(gens) == fixpoint_closure(a, gens, True)
    a = algebra_q([[1, 0], [0, 1]])
    other = algebra_q([[1, 1], [0, 1]])
    for closure in (a.subalgebra_closure, a.ideal_closure):
        with pytest.raises(AlgebraMismatch):
            closure([other.unit(0)])
        with pytest.raises(ShapeMismatch):
            closure([[1, 0, 0]])


def test_closure_product_count(monkeypatch):
    # A subalgebra closure of dimension d forms each unordered pair of basis
    # rows once, at most d(d+1)/2 products.  Every generator and product is
    # reduced against the basis exactly once, so the reductions count them:
    # reduce_row over Q, reduce_packed over odd p and reduce_bits over GF(2).
    # An ideal closure is one span of the generators and the reachable
    # squares: no rounds, no product, no reduction and one rref_rows.
    count, rrefs = [0], [0]

    def counted(fn, counter):
        def wrapper(*args):
            counter[0] += 1
            return fn(*args)
        return wrapper

    def forbidden(*args):
        raise AssertionError("an ideal closure formed a product or ran closure rounds")

    for module, name in ((algebra_module, "reduce_row"), (algebra_module, "reduce_packed"),
                         (algebra_module, "reduce_bits"), (linalg_module, "reduce_row")):
        monkeypatch.setattr(module, name, counted(getattr(module, name), count))
    monkeypatch.setattr(linalg_module, "rref_rows", counted(rref_rows, rrefs))
    rng = random.Random(5)
    for field, n in ((GF(101), 11), (GF(2), 9), (QQ, 7)):
        a = random_algebra(field, n, rng=rng)
        sparse = EvolutionAlgebra(field, [[x if (i + j) % 3 == 0 else 0
                                           for j, x in enumerate(row)]
                                          for i, row in enumerate(a.M.data)])
        for alg in (a, sparse):
            for i in range(n):
                count[0] = 0
                d = alg.subalgebra_closure([alg.unit(i)]).dim
                assert 1 <= count[0] - 1 <= d * (d + 1) // 2
            with monkeypatch.context() as m:
                m.setattr(EvolutionAlgebra, "_closure", forbidden)
                m.setattr(EvolutionAlgebra, "_product", forbidden)
                for gens in closure_generators(rng, alg):
                    count[0] = rrefs[0] = 0
                    alg.ideal_closure(gens)
                    assert (count[0], rrefs[0]) == (0, 1)


def test_packed_closure_keeps_slots_apart():
    # Over GF(p) closures run on packed rows, n slots of s bits in one int,
    # whose slots grow until a remainder is unpacked.  Entries at or near
    # p - 1 push the slots towards their bound.
    rng = random.Random(19)
    for p in (2, 3, 10007, 2**61 - 1):
        field = GF(p)
        near = (p - 1, p - 2, 1, 0)
        r = isqrt(p - 1)
        for n in range(1, 13):
            top = EvolutionAlgebra(field, [[p - 1] * n for _ in range(n)])
            noisy = EvolutionAlgebra(field, [[rng.choice(near) % p for _ in range(n)]
                                             for _ in range(n)])
            u = [rng.choice(near) % p for _ in range(n)]
            v = [(x - 1) % p for x in u]
            cases = [(a, g) for a in (top, noisy)
                     for g in ([[0] * n], [u], [u, [2 * x % p for x in u], [0] * n, v])]
            # Under top every product is a multiple of the all-ones vector,
            # which these generators span.  The square of (1, r, ..., r),
            # r^2 just below p, starts near n p^2 in every slot, and its
            # reduction against the echelon rows (0, ..., 0, 1, p - 1, ...,
            # p - 1) adds up to p^2 per row: slots pass n p^2 on the way to
            # a zero remainder, which a carry would leave nonzero.
            for k in range(1, n):
                echelon = [[0] * i + [1] + [p - 1] * (n - 1 - i) for i in range(1, k)]
                cases.append((top, [[1] + [r] * (n - 1)] + echelon + [[1] * n, [0] * n]))
            for a, g in cases:
                assert a.subalgebra_closure(g) == fixpoint_closure(a, g, False)
                assert a.ideal_closure(g) == fixpoint_closure(a, g, True)
