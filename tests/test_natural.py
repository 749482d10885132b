"""Natural vectors, decompositions, orthogonal-family extension."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest

from evoalg.algebra import Element, EvolutionAlgebra
from evoalg.errors import (AlgebraMismatch, Degenerate, NotANaturalBasis, NotExtendable,
                           NotNaturalVector, NotOrthogonal, ZeroVector)
from evoalg.fields import GF, QQ, Mod
from evoalg.generate import random_algebra
from evoalg.linalg import Matrix, Subspace, matvec_rows
from evoalg.natural import (Decomposition, _char2_completable, _complete_orthogonal,
                            _support_line_condition,
                            decompose, decomposition_for_basis,
                            extend_family, has_property_2li,
                            has_unique_natural_basis, is_natural_vector,
                            verify_block_form)
from evoalg.oracles import enumerate_natural_bases, natural_basis_membership


def natural_bases(algebra):
    """Every natural basis of a GF(p) algebra: the oracles' enumeration on
    its integer structure matrix."""
    return enumerate_natural_bases(algebra.M.plain, algebra.field.p)


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
        bases = natural_bases(a)
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
            pool = [a.M.column(i) for i in range(n)] + [[field.zero] * n]
            cols = [rng.choice(pool) for _ in range(n)]
            b = EvolutionAlgebra(field, [[cols[i][j] for i in range(n)]
                                         for j in range(n)])
            for alg in (a, b):
                expected = all(
                    Matrix(field, [alg.M.column(i), alg.M.column(j)]).rank() == 2
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
        assert char2_completable_reference(size, family) == expected, (size, family)
        local = [[f >> k & 1 for k in range(size)] for f in family]
        if expected is None:
            with pytest.raises(NotExtendable):
                _char2_completable(GF(2), [1] * size, local)
        else:
            assert _char2_completable(GF(2), [1] * size, local) == [
                [v >> k & 1 for k in range(size)] for v in expected], (size, family)
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


def ref_support_line_condition(algebra, u):
    """Reference: the rank of the support's squares, by a full RREF."""
    columns = [algebra.M.column(i) for i in sorted(u.support())]
    if u.square().is_zero():
        return all(not any(col) for col in columns)
    return Matrix(algebra.field, columns).rank() == 1


def pooled_algebra(field, n, rng):
    """Columns are zero or multiples of two pool vectors, so classes of
    several indices and annihilator indices both occur."""
    def scalar():
        return rng.choice([-2, -1, 1, 2, 3]) if field == QQ else rng.randrange(1, field.p)
    pool = [[rng.choice([0, scalar()]) for _ in range(n)] for _ in range(2)]
    cols = []
    for _ in range(n):
        c = scalar()
        cols.append([0] * n if rng.random() < 0.25 else [c * x for x in rng.choice(pool)])
    return EvolutionAlgebra(field, [[cols[i][j] for i in range(n)] for j in range(n)])


def test_support_line_condition_matches_rank():
    rng = random.Random(71)
    for field in (QQ, GF(2), GF(3), GF(101)):
        cases = set()
        for _ in range(400):
            n = rng.randint(1, 5)
            a = pooled_algebra(field, n, rng)
            coords = [0] * n
            for i in rng.sample(range(n), rng.randint(1, n)):
                coords[i] = rng.choice([-1, 1, 2]) if field == QQ else rng.randrange(1, field.p)
            u = a.element(coords)
            verdict = _support_line_condition(a, a._plain_of(u))
            assert verdict == ref_support_line_condition(a, u), (a.M.data, coords)
            zero_cols = [i for i in u.support() if not any(a.M.column(i))]
            cases.add(verdict)
            if zero_cols and not u.square().is_zero():
                cases.add("zero columns in the support")
            if u.square().is_zero():
                cases.add("u^2 = 0")
            if len(zero_cols) == len(u.support()):
                cases.add("supported on the annihilator")
        assert cases == {True, False, "zero columns in the support", "u^2 = 0",
                         "supported on the annihilator"}, field


def test_natural_vector_makes_no_rank_call(monkeypatch):
    calls = []
    rank = Matrix.rank

    def counted(self):
        calls.append(self)
        return rank(self)

    monkeypatch.setattr(Matrix, "rank", counted)
    Matrix(QQ, [[1, 2], [2, 4]]).rank()
    assert len(calls) == 1
    calls.clear()
    rng = random.Random(72)
    for field in (QQ, GF(2), GF(3), GF(101)):
        for _ in range(50):
            n = rng.randint(1, 5)
            a = pooled_algebra(field, n, rng)
            u = a.element([rng.randrange(3) for _ in range(n)])
            if not u.is_zero():
                is_natural_vector(a, u)
    assert calls == []


def test_natural_vector_builds_no_mod(monkeypatch):
    # Natural-vector questions run on plain values: building the column
    # classes and answering repeated calls on one algebra creates no Mod.
    rng = random.Random(73)
    made = []
    init = Mod.__init__

    def counted(self, r, p):
        made.append(p)
        init(self, r, p)

    verdicts = set()
    for field in (GF(2), GF(5), GF(101)):
        for _ in range(20):
            n = rng.randint(1, 5)
            a = pooled_algebra(field, n, rng)
            us = [[rng.randrange(field.p) for _ in range(n)] for _ in range(8)]
            us = [u for u in us if any(u)]
            us += [a.element(u) for u in us]
            with monkeypatch.context() as m:
                m.setattr(Mod, "__init__", counted)
                verdicts.update(is_natural_vector(a, u) for u in us)
            assert made == [], field
    assert verdicts == {True, False}


def test_verify_block_form_builds_no_mod(monkeypatch):
    # Containment of the decompositions' subspaces reads plain rows.
    a = random_algebra(GF(101), 10, seed=5)
    made = []
    init = Mod.__init__

    def counted(self, r, p):
        made.append(p)
        init(self, r, p)

    monkeypatch.setattr(Mod, "__init__", counted)
    basis = [[int(i == j) for j in range(10)] for i in range(10)]
    assert verify_block_form(a, basis, basis) and made == []


def test_natural_vector_rejects_foreign_elements():
    a = EvolutionAlgebra(QQ, [[1, 0], [0, 1]])
    longer = EvolutionAlgebra(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    other = EvolutionAlgebra(QQ, [[1, 1], [1, 1]])
    with pytest.raises(AlgebraMismatch):
        is_natural_vector(a, longer.element([1, 0, 0]))
    with pytest.raises(AlgebraMismatch):
        is_natural_vector(a, other.element([1, 1]))
    # An equal algebra built separately is the same algebra.
    assert is_natural_vector(a, EvolutionAlgebra(QQ, [[1, 0], [0, 1]]).element([0, 2]))


def normalize_line_reference(field, vec):
    lead = next(x for x in vec if x)
    inv = field.one / lead
    return tuple(inv * x for x in vec)


def decompose_reference(algebra):
    """Reference: the classes keyed by each boxed column scaled to leading
    entry 1, one column at a time."""
    field = algebra.field
    ann_indices = []
    classes = {}   # normalized column -> list of indices
    for i in range(algebra.n):
        col = algebra.M.column(i)
        if not any(col):
            ann_indices.append(i)
            continue
        classes.setdefault(normalize_line_reference(field, col), []).append(i)
    order = sorted(classes, key=lambda k: classes[k][0])
    return Decomposition(
        Subspace.coordinate(field, algebra.n, ann_indices),
        tuple(Subspace.coordinate(field, algebra.n, classes[k]) for k in order),
        tuple(tuple(classes[k]) for k in order), tuple(order),
        algebra.square_space().dim)


def decomposition_for_basis_reference(algebra, basis_vectors):
    """Reference: decompose the rebased algebra and map every basis row
    back to ambient coordinates with boxed arithmetic."""
    vecs = [(v if isinstance(v, Element) else algebra.element(v)).coords
            for v in basis_vectors]
    dec = decompose_reference(algebra.change_basis(vecs))

    def to_ambient(rows):
        out = []
        for row in rows:
            v = [algebra.field.zero] * algebra.n
            for c, bv in zip(row, vecs):
                v = [x + c * y for x, y in zip(v, bv)]
            out.append(v)
        return Subspace.from_vectors(algebra.field, algebra.n, out)

    return (to_ambient(dec.annihilator.basis),
            tuple(to_ambient(comp.basis) for comp in dec.components),
            tuple(to_ambient([key]) for key in dec.component_squares))


def random_natural_basis(algebra, rng):
    """A natural basis other than the standard one: an orthogonal pair
    (1, t), (lambda_j t, -lambda_i) on two indices of a class where it is
    anisotropic, annihilator vectors mixed into the others, random scales."""
    field, n = algebra.field, algebra.n

    def scalar():
        return field(rng.randint(1, 4) if field == QQ else rng.randrange(1, field.p))

    classes = decompose_reference(algebra)
    basis = [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    for idx in classes.component_indices:
        if len(idx) < 2:
            continue
        i, j = rng.sample(idx, 2)
        line = classes.component_squares[classes.component_indices.index(idx)]
        li, lj = (algebra.M.column(k)[next(k for k, x in enumerate(line) if x)]
                  for k in (i, j))
        t = scalar()
        if li + lj * t * t:
            basis[i][j], basis[j][i], basis[j][j] = t, lj * t, -li
    ann = classes.annihilator.pivots
    for i, v in enumerate(basis):
        if ann and i not in ann and rng.random() < 0.5:
            v[rng.choice(ann)] += scalar()
    scaled = []
    for v in basis:
        c = scalar()
        scaled.append([c * x for x in v])
    return scaled


def test_column_classes_match_reference():
    rng = random.Random(74)
    for field in (QQ, GF(2), GF(3), GF(101)):
        seen = set()
        for _ in range(150):
            a = pooled_algebra(field, rng.randint(1, 6), rng)
            classes = a.column_classes
            reference = decompose_reference(a)
            assert decompose(a) == reference
            assert a.annihilator() == reference.annihilator
            assert tuple(i for i, c in enumerate(classes.class_of) if c is None) == \
                reference.annihilator.pivots
            assert classes.members == reference.component_indices
            for c, line in enumerate(classes.lines):
                # A canonical multiple of the leading-1 line: itself over
                # GF(p), a primitive integer vector with positive lead over Q.
                unit = reference.component_squares[c]
                lead = next(x for x in line if x)
                assert tuple(map(field.box, line)) == tuple(field.box(lead) * x for x in unit)
                assert lead == 1 if field.p else (lead > 0 and gcd(*line) == 1)
            for i in range(a.n):
                c = classes.class_of[i]
                unit = [0] * a.n if c is None else reference.component_squares[c]
                assert a.M.column(i) == tuple(field.box(classes.lambdas[i]) * x for x in unit)
                assert (c is None) == (i in reference.annihilator.pivots)
                if c is not None:
                    assert i in classes.members[c]
            basis = random_natural_basis(a, rng)
            assert decomposition_for_basis(a, basis) == \
                decomposition_for_basis_reference(a, basis), (a.M.data, basis)
            seen.add("zero column" if None in classes.class_of else "no zero column")
            seen.add("multi-index class" if any(len(m) > 1 for m in classes.members)
                     else "singleton classes")
        assert seen == {"zero column", "no zero column", "multi-index class",
                        "singleton classes"}, field


def decomposition_for_basis_rebased(algebra, basis_vectors):
    """decomposition_for_basis as it was: rebase the algebra over the basis
    (change_basis), read the rebased column classes, and map each class
    line l back to ambient coordinates as P l, P with the basis as columns."""
    field, n = algebra.field, algebra.n
    vecs = [algebra._plain_of(v) for v in basis_vectors]
    classes = algebra.change_basis(vecs).column_classes
    P = list(zip(*vecs))

    def span(rows):
        return Subspace._from_plain(field, n, rows)

    return (span([vecs[i] for i, c in enumerate(classes.class_of) if c is None]),
            tuple(span([vecs[i] for i in idx]) for idx in classes.members),
            tuple(span([matvec_rows(P, line, field.reduce)]) for line in classes.lines))


def mixed_rational_basis(algebra, rng):
    """A natural basis of a Q algebra in which every class C of two or more
    indices gets vectors mixing all of C: a random anisotropic u supported
    on C and an orthogonal completion of it under sum_{i in C} lambda_i x_i y_i.
    Annihilator vectors are then mixed into the others, every vector is
    scaled and the order shuffled."""
    n = algebra.n
    classes = algebra.column_classes
    ann = [i for i, c in enumerate(classes.class_of) if c is None]
    basis = [[int(j == i) for j in range(n)] for i in ann]
    for idx in classes.members:
        lambdas = [classes.lambdas[i] for i in idx]
        local = [[int(j == k) for j in range(len(idx))] for k in range(len(idx))]
        u = [rng.choice([-2, -1, 1, 2, 3]) for _ in idx]
        if len(idx) > 1 and sum(l * x * x for l, x in zip(lambdas, u)):
            local = [u] + _complete_orthogonal(QQ, lambdas, [u])
        for loc in local:
            v = [0] * n
            for i, x in zip(idx, loc):
                v[i] = x
            basis.append(v)
    mixed = []
    for v in basis:
        if ann and not any(v[i] for i in ann) and rng.random() < 0.5:
            v[rng.choice(ann)] += rng.randint(1, 3)
        c = rng.choice([-3, -1, 1, 2, Fraction(1, 2)])
        mixed.append([c * x for x in v])
    rng.shuffle(mixed)
    return mixed


def test_decomposition_for_basis_matches_rebase():
    # Enumerated natural bases over GF(2), GF(3), GF(5) at n <= 3.
    rng = random.Random(76)
    for field in (GF(2), GF(3), GF(5)):
        seen = set()
        for _ in range(60):
            a = pooled_algebra(field, rng.randint(1, 3), rng)
            bases = natural_bases(a)
            for basis in rng.sample(bases, min(len(bases), 40)):
                got = decomposition_for_basis(a, basis)
                assert got == decomposition_for_basis_rebased(a, basis), (a.M.data, basis)
                assert got == decomposition_for_basis_reference(a, basis)
                seen.add("standard" if all(sum(map(bool, v)) == 1 for v in basis)
                         else "mixed")
        assert seen == {"standard", "mixed"}, field
    # Q bases whose vectors mix several indices of one class.
    seen = set()
    for _ in range(150):
        a = pooled_algebra(QQ, rng.randint(1, 6), rng)
        basis = mixed_rational_basis(a, rng)
        got = decomposition_for_basis(a, basis)
        assert got == decomposition_for_basis_rebased(a, basis), (a.M.data, basis)
        assert got == decomposition_for_basis_reference(a, basis)
        classes = a.column_classes
        if any(len({classes.class_of[i] for i, x in enumerate(v) if x} - {None}) == 1
               and sum(classes.class_of[i] is not None for i, x in enumerate(v) if x) > 1
               for v in basis):
            seen.add("mixed class")
        if None in classes.class_of:
            seen.add("annihilator")
    assert seen == {"mixed class", "annihilator"}
    # Not a natural basis: the same error as a rebase.
    a = EvolutionAlgebra(QQ, [[1, 1], [0, 0]])
    for bad in ([[1, 0], [1, 1]], [[1, 0]], [[1, 0], [2, 0]]):
        with pytest.raises(NotANaturalBasis, match="^candidates are not a natural basis$"):
            decomposition_for_basis(a, bad)
        with pytest.raises(NotANaturalBasis, match="^candidates are not a natural basis$"):
            decomposition_for_basis_rebased(a, bad)


def change_basis_reference(algebra, candidates):
    """change_basis as it was: the rank and every pairwise product of the
    candidates checked, then one boxed square and one P.solve per vector."""
    field, n = algebra.field, algebra.n
    vecs = [(c if isinstance(c, Element) else algebra.element(c)).coords for c in candidates]
    if (len(vecs) != n or Matrix(field, vecs).rank() != n
            or any(not (Element(algebra, u) * Element(algebra, w)).is_zero()
                   for u, w in combinations(vecs, 2))):
        raise NotANaturalBasis("candidates are not a natural basis")
    P = Matrix.from_columns(field, [list(v) for v in vecs])
    columns = [list(P.solve(Element(algebra, v).square().coords)) for v in vecs]
    return EvolutionAlgebra(field, Matrix.from_columns(field, columns))


def test_change_basis_matches_per_vector_solve():
    rng = random.Random(75)

    def outcome(f, *args):
        try:
            return f(*args)
        except NotANaturalBasis:
            return "not a natural basis"

    for field in (QQ, GF(2), GF(3), GF(101)):
        seen = set()
        for case in range(120):
            n = rng.randint(1, 6)
            a = pooled_algebra(field, n, rng) if case % 2 else random_algebra(field, n, rng=rng)
            basis = random_natural_basis(a, rng)
            rng.shuffle(basis)
            tries = [basis, basis[1:], basis[:1] + basis[:-1],
                     [[x + y for x, y in zip(basis[0], basis[-1])]] + basis[1:],
                     [[field(rng.randrange(3)) for _ in range(n)] for _ in range(n)]]
            for candidates in tries:
                expected = outcome(change_basis_reference, a, candidates)
                assert outcome(a.change_basis, candidates) == expected, (a.M.data, candidates)
                assert a.verify_natural_basis(candidates) == (expected != "not a natural basis")
                seen.add(expected == "not a natural basis")
        assert seen == {True, False}, field


def complete_orthogonal_reference(field, lambdas, members):
    """Reference: Gram-Schmidt on the RREF basis of the orthogonal
    complement, with boxed scalars and one Subspace per round."""
    def b(x, y):
        return sum((l * p * q for l, p, q in zip(lambdas, x, y)), field.zero)

    rows = [[l * c for l, c in zip(lambdas, m)] for m in members]
    comp = Matrix(field, rows).kernel() if rows else Subspace.full(field, len(lambdas))
    vecs = [list(v) for v in comp.basis]
    out = []
    while vecs:
        v = next((x for x in vecs if b(x, x)), None)
        if v is None:
            pair = next((x, y) for x, y in combinations(vecs, 2) if b(x, y))
            v = [p + q for p, q in zip(*pair)]
        out.append(v)
        vecs = [list(r) for r in Subspace.from_vectors(
            field, len(lambdas), [[p - b(x, v) / b(v, v) * q for p, q in zip(x, v)]
                                  for x in vecs]).basis]
    return out


def test_extend_family_matches_boxed_completion():
    # One random anisotropic vector in some classes of an algebra whose
    # columns are multiples of few pool vectors (classes of several indices,
    # isotropic complements over GF(3) and GF(5)); every added vector equals
    # the boxed reference's.
    rng = random.Random(75)
    for field in (QQ, GF(3), GF(5), GF(101)):
        extended = 0
        while extended < 60:
            n = rng.randint(1, 6)
            pool = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
            cols = [[rng.choice([-2, -1, 1, 2]) * x for x in rng.choice(pool)]
                    for _ in range(n)]
            a = EvolutionAlgebra(field, [[cols[i][j] for i in range(n)] for j in range(n)])
            if not a.is_nondegenerate():
                continue
            dec = decompose(a)
            family, expected = [], []
            for idx, line in zip(dec.component_indices, dec.component_squares):
                pivot = next(k for k, x in enumerate(line) if x)
                lambdas = [a.M.column(i)[pivot] for i in idx]
                v = [field(rng.randint(-2, 2)) for _ in idx]
                members = []
                if rng.random() < 0.7 and sum((l * x * x for l, x in zip(lambdas, v)),
                                              field.zero):
                    members = [v]
                    coords = [field.zero] * n
                    for pos, x in zip(idx, v):
                        coords[pos] = x
                    family.append(a.element(coords))
                for loc in complete_orthogonal_reference(field, lambdas, members):
                    coords = [field.zero] * n
                    for pos, x in zip(idx, loc):
                        coords[pos] = x
                    expected.append(tuple(coords))
            result = extend_family(a, family)
            assert [e.coords for e in result.added_vectors] == expected, (cols, family)
            extended += 1


def char2_completable_reference(size, members):
    """_char2_completable as it was: bitmasks in and out, None when the
    family does not extend, and a Gauss-Jordan elimination on a dict from
    each pivot (the row's lowest bit) to its fully reduced row."""
    ones = (1 << size) - 1
    xor = 0
    for f in members:
        xor ^= f
    if len(members) < size and xor == ones:
        return None
    pivots = {}
    family, new = list(members), [(f, 0) for f in members] + [(ones, 1)]
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
        if v == ones ^ xor:
            j = ones & ~sum(pivots)
            j &= -j
            v ^= j | sum(p for p, (r, _) in pivots.items() if r & j)
        family.append(v)
        xor ^= v
        new = [(v, 0)]
    return family[len(members):]


def extend_family_reference(algebra, family):
    """extend_family as it was: per class, an empty-class branch, GF(2)
    bitmasks with a None return, or the completion of any other field."""
    family = [f if isinstance(f, Element) else algebra.element(f) for f in family]
    classes = algebra.column_classes
    if None in classes.class_of:
        raise Degenerate("extension requires a non-degenerate algebra")
    plain = [algebra._plain_of(u) for u in family]
    for a in range(len(plain)):
        for b in range(a + 1, len(plain)):
            if any(algebra._product(plain[a], plain[b])):
                raise NotOrthogonal(f"family members {a} and {b} are not orthogonal")
    by_class = [[] for _ in classes.members]
    for u in plain:
        if not any(u) or not _support_line_condition(algebra, u):
            raise NotNaturalVector("family contains a non-natural vector")
        by_class[classes.class_of[next(i for i, x in enumerate(u) if x)]].append(u)
    field = algebra.field
    added = []
    for idx, family_in_class in zip(classes.members, by_class):
        size = len(idx)
        members = [[u[i] for i in idx] for u in family_in_class]
        if not members:
            local_added = [[int(j == k) for j in range(size)] for k in range(size)]
        elif field.p == 2:
            found = char2_completable_reference(
                size, [sum(x << k for k, x in enumerate(m)) for m in members])
            if found is None:
                raise NotExtendable("no orthogonal completion exists over GF(2)")
            local_added = [[v >> k & 1 for k in range(size)] for v in found]
        else:
            local_added = _complete_orthogonal(field, [classes.lambdas[i] for i in idx],
                                               members)
        for loc in local_added:
            v = [0] * algebra.n
            for pos, x in zip(idx, loc):
                v[pos] = x
            added.append(Element._from_plain(algebra, v))
    completed = family + added
    if not algebra.verify_natural_basis(completed):
        raise NotANaturalBasis("internal completion failed verification")
    return completed, added


def extension_family(algebra, rng):
    """Up to three vectors: part of a natural basis, vectors inside one
    class each (orthogonal or not, extendable or not over GF(2)), or
    vectors over all indices (mostly not natural, sometimes zero)."""
    field, n = algebra.field, algebra.n
    members = algebra.column_classes.members

    def scalar():
        return rng.choice([-2, -1, 1, 2, 3]) if field == QQ else rng.randrange(1, field.p)

    kind = rng.randrange(3)
    if kind == 0:
        basis = random_natural_basis(algebra, rng)
        return rng.sample(basis, rng.randint(0, min(3, n)))
    family = []
    for _ in range(rng.randint(1, 3)):
        v = [0] * n
        if kind == 1 and members:
            for i in rng.choice(members):
                v[i] = scalar() if rng.random() < 0.7 else 0
        else:
            for i in range(n):
                v[i] = scalar() if rng.random() < 0.4 else 0
        family.append(v)
    return family


def test_extend_family_matches_parent_reference():
    # Seeded families over every field kind, n <= 8: each completion and
    # each refusal (type and message) is the reference's.
    rng = random.Random(78)
    refusals = (Degenerate, NotExtendable, NotNaturalVector, NotOrthogonal)

    def outcome(f, a, family):
        try:
            completed, added = f(a, family)
        except refusals as exc:
            return type(exc), str(exc)
        return [list(e.plain) for e in completed], [list(e.plain) for e in added]

    def ours(a, family):
        result = extend_family(a, family)
        return result.completed_basis, result.added_vectors

    for field in (QQ, GF(2), GF(3), GF(5), GF(101)):
        seen = set()
        for _ in range(300):
            a = pooled_algebra(field, rng.randint(1, 8), rng)
            family = extension_family(a, rng)
            expected = outcome(extend_family_reference, a, family)
            assert outcome(ours, a, family) == expected, (a.M.data, family)
            seen.add(expected[0] if isinstance(expected[0], type) else "extended")
        assert seen == {"extended", Degenerate, NotNaturalVector, NotOrthogonal} | (
            {NotExtendable} if field.p == 2 else set()), field


def verify_block_form_reference(algebra, basis1, basis2):
    """verify_block_form as it was: classes aligned by a scan over the
    square lines, with a length check and a duplicate check."""
    ann1, comps1, lines1 = decomposition_for_basis(algebra, basis1)
    ann2, comps2, lines2 = decomposition_for_basis(algebra, basis2)
    if len(comps1) != len(comps2):
        return False
    sigma = []
    for line in lines1:
        match = next((j for j, other in enumerate(lines2) if other == line), None)
        if match is None or match in sigma:
            return False
        sigma.append(match)
    if not ann2.contains_subspace(ann1):
        return False
    for i, comp in enumerate(comps1):
        if not (ann2 + comps2[sigma[i]]).contains_subspace(comp):
            return False
    return True


def test_verify_block_form_matches_parent_reference():
    # Every ordered pair of (up to 12 sampled) enumerated natural bases of
    # small algebras, plus a candidate that is not a basis.  Two natural
    # bases always differ by a block change of basis, so both answer True.
    rng = random.Random(79)
    for field in (GF(2), GF(3), GF(5)):
        pairs = 0
        for _ in range(25):
            a = pooled_algebra(field, rng.randint(1, 3), rng)
            bases = natural_bases(a)
            bases = rng.sample(bases, min(len(bases), 12))
            for b1, b2 in product(bases, repeat=2):
                assert verify_block_form(a, b1, b2) is verify_block_form_reference(
                    a, b1, b2) is True, (a.M.data, b1, b2)
                pairs += 1
            bad = [[0] * a.n] + list(bases[0])[1:]
            for f in (verify_block_form, verify_block_form_reference):
                with pytest.raises(NotANaturalBasis):
                    f(a, bases[0], bad)
        assert pairs > 200, field
