"""Natural vectors, decompositions, orthogonal-family extension."""

import random
from itertools import combinations, product

import pytest

from evoalg.algebra import EvolutionAlgebra
from evoalg.errors import Degenerate, NotExtendable, NotOrthogonal, ZeroVector
from evoalg.fields import GF, QQ
from evoalg.generate import random_algebra
from evoalg.linalg import Matrix
from evoalg.natural import (_char2_completable, decompose, decomposition_for_basis,
                            extend_family, has_property_2li,
                            has_unique_natural_basis, is_natural_vector,
                            verify_block_form)
from evoalg.oracles import (enumerate_natural_bases, enumerate_natural_bases_algebra,
                            natural_basis_membership)


def test_natural_vector_criterion():
    # e_1^2 = -e_2^2 = e_1 + e_2: the square-zero line is not natural.
    a = EvolutionAlgebra(QQ, [[1, -1], [1, -1]])
    assert not is_natural_vector(a, [1, 1])
    assert is_natural_vector(a, [1, 0])
    assert is_natural_vector(a, [0, 3])
    with pytest.raises(ZeroVector):
        is_natural_vector(a, [0, 0])


def test_natural_vector_zero_square_branch():
    # u with u^2 = 0 is natural only when its support squares all vanish.
    a = EvolutionAlgebra(QQ, [[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    assert is_natural_vector(a, [1, 1, 0])
    assert is_natural_vector(a, [0, 0, 1])
    b = EvolutionAlgebra(QQ, [[1, -1], [1, -1]])
    assert not is_natural_vector(b, [1, 1])


def test_natural_vector_rank_one_mix():
    # Mixed support is natural only when the support columns span one line.
    a = EvolutionAlgebra(QQ, [[1, 2, 0], [1, 2, 0], [0, 0, 1]])
    assert is_natural_vector(a, [1, 1, 0])
    assert not is_natural_vector(a, [1, 0, 1])


def test_natural_vector_char2_needs_completability():
    # Over GF(2) the support-line condition is not sufficient: with every
    # square equal to e_2 + e_3 no two even-weight vectors are orthogonal,
    # so (1,1,1) sits in no natural basis despite its rank-one support.
    a = EvolutionAlgebra(GF(2), [[0, 0, 0], [1, 1, 1], [1, 1, 1]])
    assert not is_natural_vector(a, [1, 1, 1])
    assert is_natural_vector(a, [1, 0, 0])
    assert natural_basis_membership(((0, 0, 0), (1, 1, 1), (1, 1, 1)), 2,
                                    (1, 1, 1)) is False
    # With nine equal columns, every vector orthogonal to the all-ones u has
    # even weight; eight of them can be pairwise orthogonal (a totally
    # isotropic 4-space has 15 nonzero vectors), but never independent,
    # since the even-weight space carries a nondegenerate form.  Only
    # anisotropic vectors count.
    ones = EvolutionAlgebra(GF(2), [[1] * 9 for _ in range(9)])
    assert not is_natural_vector(ones, [1] * 9)
    assert is_natural_vector(ones, [1, 1, 1] + [0] * 6)
    with pytest.raises(NotExtendable):
        extend_family(ones, [ones.element([1] * 9)])


def test_property_2li_family():
    # e_1^2 = e_1, e_2^2 = e_2, e_i^2 = e_1 + i e_2 has (2LI) for all n.
    for n in (3, 4, 5):
        rows = [[QQ.zero] * n for _ in range(n)]
        rows[0][0] = QQ.one
        rows[1][1] = QQ.one
        for i in range(2, n):
            rows[0][i] = QQ.one
            rows[1][i] = QQ(i + 1)
        a = EvolutionAlgebra(QQ, rows)
        assert has_property_2li(a)
        assert a.square_space().dim == 2
        assert has_unique_natural_basis(a) is True


def test_unique_basis_tri_state():
    assert has_unique_natural_basis(EvolutionAlgebra(QQ, [[1]])) is True
    degenerate = EvolutionAlgebra(QQ, [[0, 0], [0, 1]])
    assert has_unique_natural_basis(degenerate) is False
    small = EvolutionAlgebra(GF(3), [[1, 0], [0, 1]])
    assert has_unique_natural_basis(small) is True
    not_2li = EvolutionAlgebra(QQ, [[1, 2], [1, 2]])
    assert has_unique_natural_basis(not_2li) is False


def test_decompose_fixture():
    # e_1^2 = 0, e_2^2 = e_2, e_3^2 = e_3.
    a = EvolutionAlgebra(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    dec = decompose(a)
    assert dec.annihilator.dim == 1 and dec.annihilator.contains([1, 0, 0])
    assert dec.component_indices == ((1,), (2,))
    assert dec.square_dim == 2
    assert dec.component_count_matches_square_dim


def test_decompose_class_merging():
    # Proportional squares share a component.
    a = EvolutionAlgebra(QQ, [[1, 2, 0], [1, 2, 0], [0, 0, 1]])
    dec = decompose(a)
    assert dec.component_indices == ((0, 1), (2,))
    assert dec.square_dim == 2


def test_decompose_count_can_exceed_square_dim():
    # Three pairwise independent columns inside a 2-dim square space.
    a = EvolutionAlgebra(QQ, [[1, 0, 1], [0, 1, 1], [0, 0, 0]])
    dec = decompose(a)
    assert len(dec.components) == 3
    assert dec.square_dim == 2
    assert not dec.component_count_matches_square_dim


def test_decomposition_for_basis_differs_but_invariants_agree():
    a = EvolutionAlgebra(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    b1 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    b2 = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]   # e1, e1+e2, e3
    ann1, comps1, _ = decomposition_for_basis(a, b1)
    ann2, comps2, _ = decomposition_for_basis(a, b2)
    assert ann1 == ann2
    assert len(comps1) == len(comps2) == 2
    assert comps1 != comps2
    assert verify_block_form(a, b1, b2)


def test_decomposition_unique_when_nondegenerate():
    F = GF(5)
    rng = random.Random(9)
    checked = 0
    while checked < 25:
        a = random_algebra(F, rng.randint(2, 3), rng=rng, nondegenerate=True)
        bases = enumerate_natural_bases_algebra(a)
        reference = None
        for basis in bases:
            ann, comps, _ = decomposition_for_basis(a, basis)
            assert ann.dim == 0
            key = frozenset(comps)
            if reference is None:
                reference = key
            assert key == reference
        checked += 1


def test_extend_family_rationals():
    a = EvolutionAlgebra(QQ, [[1, 2, 0], [1, 2, 0], [0, 0, 1]])
    result = extend_family(a, [a.element([1, 1, 0])])
    assert a.verify_natural_basis(result.completed_basis)
    assert len(result.added_vectors) == 2


def test_extend_family_empty_family():
    a = EvolutionAlgebra(GF(5), [[1, 0], [0, 1]])
    result = extend_family(a, [])
    assert a.verify_natural_basis(result.completed_basis)


def test_extend_family_errors():
    degenerate = EvolutionAlgebra(QQ, [[0, 0], [0, 1]])
    with pytest.raises(Degenerate):
        extend_family(degenerate, [])
    a = EvolutionAlgebra(QQ, [[1, 2, 0], [1, 2, 0], [0, 0, 1]])
    with pytest.raises(NotOrthogonal):
        extend_family(a, [a.element([1, 0, 0]), a.element([1, 1, 0])])


def test_extend_family_char2():
    a = EvolutionAlgebra(GF(2), [[1, 0], [0, 1]])
    result = extend_family(a, [a.element([1, 0])])
    assert a.verify_natural_basis(result.completed_basis)
    # All-ones structure matrix over GF(2): the complement of (1,1,1) under
    # b(x, y) = x1 y1 + x2 y2 + x3 y3 is the even-weight plane, where every
    # vector is isotropic, so no orthogonal completion exists.
    b = EvolutionAlgebra(GF(2), [[1, 1, 1], [1, 1, 1], [1, 1, 1]])
    with pytest.raises(NotExtendable):
        extend_family(b, [b.element([1, 1, 1])])


def test_extend_family_isotropic_complement():
    # Complement of the family can start all-isotropic; the u + w trick
    # must still produce an anisotropic vector.
    a = EvolutionAlgebra(QQ, [[1, 1, 1], [2, 2, 2], [-3, -3, -3]])
    # b(x, y) = x1 y1 + x2 y2 - x3 y3 restricted to the single component.
    result = extend_family(a, [a.element([1, 0, 0])])
    assert a.verify_natural_basis(result.completed_basis)


def test_extend_random_families():
    rng = random.Random(21)
    for field in (QQ, GF(5), GF(7)):
        for _ in range(25):
            a = random_algebra(field, rng.randint(1, 3), rng=rng,
                               nondegenerate=True)
            result = extend_family(a, [])
            assert a.verify_natural_basis(result.completed_basis)


def gf2_rank(masks):
    pivots = {}
    for v in masks:
        while v and v.bit_length() in pivots:
            v ^= pivots[v.bit_length()]
        if v:
            pivots[v.bit_length()] = v
    return len(pivots)


def whole_space_natural(cols, u):
    """Reference over GF(2), on bitmasks (bit i is coordinate i): extend
    {u} by backtracking over all of GF(2)^n, choosing vectors in increasing
    order that are orthogonal to every chosen one and keep the family
    independent.  A node is cut when its family and the candidates still
    open cannot span GF(2)^n."""
    n = len(cols)

    def mul(x, y):
        out = 0
        for i in range(n):
            if (x & y) >> i & 1:
                out ^= cols[i]
        return out

    def search(chosen, cands):
        if len(chosen) == n:
            return True
        if gf2_rank(chosen + cands) < n:
            return False
        for k, v in enumerate(cands):
            if gf2_rank(chosen + [v]) > len(chosen):
                rest = [w for w in cands[k + 1:] if not mul(v, w)]
                if search(chosen + [v], rest):
                    return True
        return False

    return search([u], [v for v in range(1, 1 << n) if not mul(u, v)])


def test_natural_vector_char2_matches_whole_space_search():
    # Columns come from a small pool, so zero columns (an annihilator) and
    # repeated columns (classes of several indices) both occur.
    F = GF(2)
    rng = random.Random(31)
    pairs = zero_cols = repeated = 0
    while pairs < 2000 or not (zero_cols and repeated):
        n = rng.randint(1, 7)
        pool = [(0,) * n] + [tuple(rng.randrange(2) for _ in range(n)) for _ in range(2)]
        cols = [rng.choice(pool) for _ in range(n)]
        rows = tuple(tuple(cols[i][j] for i in range(n)) for j in range(n))
        a = EvolutionAlgebra(F, [list(r) for r in rows])
        masks = [sum(x << j for j, x in enumerate(c)) for c in cols]
        zero_cols += 0 in masks
        repeated += len(set(masks) - {0}) < n - masks.count(0)
        us = list(product((0, 1), repeat=n))[1:]
        for u in rng.sample(us, min(len(us), 12)):
            expected = whole_space_natural(masks, sum(x << j for j, x in enumerate(u)))
            assert is_natural_vector(a, u) == expected, (cols, u)
            if n <= 4:
                assert natural_basis_membership(rows, 2, u) == expected, (cols, u)
            pairs += 1
    assert zero_cols and repeated


def complete_char2_reference(field, lambdas, members):
    """Reference: exhaustive completion over GF(2) with a rank check on
    every accepted candidate."""
    size = len(lambdas)
    candidates = [[field.one if mask >> k & 1 else field.zero for k in range(size)]
                  for mask in range(1, 1 << size)]
    need = size - len(members)

    def b(x, y):
        return sum((l * p * q for l, p, q in zip(lambdas, x, y)), field.zero)

    def ok(v, chosen):
        return b(v, v) and not any(b(v, c) for c in members + chosen)

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

    return search(0, [])


def test_extend_family_char2_matches_reference():
    # Index 0 is its own class; indices 1..size share the all-ones square,
    # so b is the standard dot product there.  Every orthogonal anisotropic
    # family of up to two members is completed as the reference completes it.
    F = GF(2)
    families = 0
    for size in range(1, 7):
        n = size + 1
        cols = [[1] + [0] * size] + [[1] * n for _ in range(size)]
        a = EvolutionAlgebra(F, [[cols[i][j] for i in range(n)] for j in range(n)])
        odd = [v for v in product((0, 1), repeat=size) if sum(v) % 2]
        fams = [[]] + [[v] for v in odd] + [
            [v, w] for v, w in combinations(odd, 2)
            if sum(x * y for x, y in zip(v, w)) % 2 == 0]
        for fam in fams:
            members = [[F(x) for x in v] for v in fam]
            expected = complete_char2_reference(F, [F.one] * size, members)
            family = [a.element([0] + list(v)) for v in fam]
            families += 1
            if expected is None:
                with pytest.raises(NotExtendable):
                    extend_family(a, family)
                continue
            added = [[F.one] + [F.zero] * size] + [[F.zero] + v for v in expected]
            result = extend_family(a, family)
            assert [list(e.coords) for e in result.added_vectors] == added
            assert list(result.completed_basis[:len(family)]) == family
    assert families >= 400


def test_property_2li_matches_pairwise_rank():
    rng = random.Random(12)
    for field in (QQ, GF(2), GF(3), GF(5)):
        for _ in range(60):
            n = rng.randint(1, 5)
            a = random_algebra(field, n, rng=rng)
            pool = [a.column_square(i) for i in range(n)] + [[field.zero] * n]
            cols = [rng.choice(pool) for _ in range(n)]
            b = EvolutionAlgebra(field, [[cols[i][j] for i in range(n)]
                                         for j in range(n)])
            for alg in (a, b):
                expected = all(
                    Matrix(field, [alg.column_square(i), alg.column_square(j)]).rank() == 2
                    for i, j in combinations(range(n), 2))
                assert has_property_2li(alg) == expected


def exhaustive_completable(size, members):
    """Reference: the least-first exhaustive completion search over
    GF(2)^size on bitmasks, without a size limit."""
    def search(start, family):
        if len(family) == size:
            return family[len(members):]
        for v in range(start, 1 << size):
            if v.bit_count() & 1 and not any((v & f).bit_count() & 1
                                             for f in family):
                found = search(v + 1, family + [v])
                if found is not None:
                    return found
        return None

    return search(1, list(members))


def test_char2_completion_matches_exhaustive_search():
    # Random orthogonal anisotropic families, grown one random admissible
    # vector at a time, complete as the exhaustive search completes them.
    rng = random.Random(61)
    larger = stuck = 0
    for _ in range(2000):
        size = rng.randint(1, 9)
        family = []
        for _ in range(rng.randint(0, 5)):
            admissible = [v for v in range(1, 1 << size) if v.bit_count() & 1
                          and not any((v & f).bit_count() & 1 for f in family)]
            if not admissible:
                break
            family.append(rng.choice(admissible))
        expected = exhaustive_completable(size, family)
        assert _char2_completable(size, family) == expected, (size, family)
        larger += len(family) >= 3
        stuck += expected is None
    assert larger and stuck


def test_char2_classes_past_sixteen_indices():
    # Forty (and forty-one) equal GF(2) columns form one class.  The
    # criterion: u_C extends iff |C| = 1 or u_C is not all-ones.
    forty = EvolutionAlgebra(GF(2), [[1] * 40 for _ in range(40)])
    e1 = [1] + [0] * 39
    assert is_natural_vector(forty, e1)
    assert not is_natural_vector(forty, [1] * 40)        # u^2 = 0
    assert is_natural_vector(forty, [0] + [1] * 39)
    assert not is_natural_vector(EvolutionAlgebra(GF(2), [[1] * 41] * 41), [1] * 41)
    result = extend_family(forty, [forty.element(e1)])
    assert forty.verify_natural_basis(result.completed_basis)
    with pytest.raises(NotExtendable):
        extend_family(forty, [forty.element(e1), forty.element([0] + [1] * 39)])


def unique_by_enumeration(algebra):
    rows = [[algebra.M.entry(i, j).r for j in range(algebra.n)]
            for i in range(algebra.n)]
    return len(enumerate_natural_bases(rows, algebra.field.p)) == 1


def test_unique_basis_matches_enumeration():
    # Columns come from a small pool and its multiples, so classes of
    # several indices, both GF(3) sign patterns and zero columns occur.
    rng = random.Random(62)
    for field, top in ((GF(2), 4), (GF(3), 3)):
        verdicts = set()
        for _ in range(300):
            n = rng.randint(1, top)
            pool = [[rng.randrange(field.p) for _ in range(n)] for _ in range(2)]
            cols = []
            for _ in range(n):
                c = rng.randrange(1, field.p)
                cols.append([c * x for x in rng.choice(pool)])
            a = EvolutionAlgebra(field, [[cols[i][j] for i in range(n)]
                                         for j in range(n)])
            verdict = has_unique_natural_basis(a)
            assert verdict == unique_by_enumeration(a), cols
            verdicts.add(verdict)
        assert verdicts == {True, False}
