"""Adjoint algebras, descendants, persistence, hierarchy."""

import random
import time
from itertools import combinations

import pytest

from evoalg import adjoint as adjoint_module
from evoalg.adjoint import (PERSISTENT, TRANSIENT, UNKNOWN, GeneratorClassification,
                            adjoint_annihilator, adjoint_invariants,
                            classify_generators, descendants, hierarchy,
                            is_irreducible, zeroth_decomposition)
from evoalg.algebra import EvolutionAlgebra
from evoalg.errors import IndexOutOfRange, InvalidArgument
from evoalg.fields import GF, QQ
from evoalg.generate import random_algebra
from evoalg.ideals import (descendant_closed_sets, is_basic_simple, is_basic_simple_relative,
                           is_simple, reversed_digraph)
from evoalg.linalg import Subspace
from evoalg.nilpotency import nilpotency_report
from test_linalg import intersect


def fixture_59():
    return EvolutionAlgebra(GF(5), [[1, 1, 1], [1, 1, 1], [1, 1, 0]])


def fixture_59_rebased():
    return fixture_59().change_basis([[1, 1, 0], [1, 4, 0], [0, 0, 1]])


def test_adjoint_matrix():
    a = fixture_59()
    assert a.adjoint().M == a.M.transpose()


def test_is_irreducible():
    assert is_irreducible(fixture_59())
    split = EvolutionAlgebra(QQ, [[1, 0], [0, 1]])
    assert not is_irreducible(split)


def test_descendants():
    # 1 -> {2}, 2 -> {1, 2}, 3 -> {}.
    a = EvolutionAlgebra(QQ, [[0, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert descendants(a, 0, 1) == frozenset({1})
    assert descendants(a, 0, 2) == frozenset({0, 1})
    assert descendants(a, 0) == frozenset({0, 1})
    assert descendants(a, 2) == frozenset()
    with pytest.raises(IndexOutOfRange):
        descendants(a, 3)


def test_descendants_power_index_below_one():
    cycle = EvolutionAlgebra(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert descendants(cycle, 0, 1) == frozenset({1})
    for k in (0, -1):
        with pytest.raises(InvalidArgument):
            descendants(cycle, 0, k)


def ref_descendants(algebra, i, k):
    """D^k(i) by k - 1 union steps."""
    current = frozenset(algebra.digraph[i])
    for _ in range(k - 1):
        current = frozenset().union(*(algebra.digraph[j] for j in current))
    return current


def test_descendants_match_the_step_by_step_walk():
    # Sparse digraphs reach the empty set or a cycle of sets late; dense
    # ones repeat after a step or two.
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(1, 9)
        density = rng.choice((0.1, 0.2, 0.35, 0.6))
        a = EvolutionAlgebra(GF(2), [[int(rng.random() < density) for _ in range(n)]
                                     for _ in range(n)])
        for i in range(n):
            for k in range(1, 3 * n + 1):
                assert descendants(a, i, k) == ref_descendants(a, i, k), (a.M.plain, i, k)


def test_descendants_of_a_huge_power_index():
    # 0 -> 1 enters a 4-cycle 1 -> 2 -> 3 -> 4 -> 1 and 0 -> 5 a 5-cycle
    # 5 -> ... -> 9 -> 5, so D^k(0) = {1 + (k-1) % 4, 5 + (k-1) % 5}.
    edges = [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 1),
             (5, 6), (6, 7), (7, 8), (8, 9), (9, 5)]
    m = [[0] * 10 for _ in range(10)]
    for i, j in edges:
        m[j][i] = 1
    a = EvolutionAlgebra(QQ, m)
    cycle = EvolutionAlgebra(QQ, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    for k in (1, 2, 19, 20, 21, 10 ** 9, 10 ** 18, 10 ** 18 + 7):
        start = time.perf_counter()
        assert descendants(a, 0, k) == {1 + (k - 1) % 4, 5 + (k - 1) % 5}, k
        assert descendants(cycle, 0, k) == {k % 3}, k
        assert time.perf_counter() - start < 0.1, k


def test_adjoint_annihilator_dims():
    # Example pair: same algebra written in two bases has adjoint
    # annihilators of different dimension.
    assert adjoint_annihilator(fixture_59()).dim == 0
    assert adjoint_annihilator(fixture_59_rebased()).dim == 1


def sparse_corpus(seed, fields, count, max_n):
    """Random algebras with none, half or about 70 % of their entries
    zeroed, so reducible, nilpotent and several-component algebras all
    occur."""
    rng = random.Random(seed)
    for field in fields:
        for _ in range(count):
            a = random_algebra(field, rng.randint(1, max_n), rng=rng)
            keep = rng.choice([0.3, 0.5, 1.0])
            yield EvolutionAlgebra(field, [[x if rng.random() < keep else 0 for x in row]
                                           for row in a.M.plain])


def test_adjoint_invariants_random():
    # Reference: each invariant computed on the adjoint algebra itself.
    seen = set()
    for a in sparse_corpus(51, (QQ, GF(2), GF(3), GF(5)), 150, 5):
        adj = a.adjoint()
        inv = adjoint_invariants(a)
        assert inv.irreducible == is_irreducible(a) == is_irreducible(adj)
        assert inv.simple == is_simple(a) == is_simple(adj)
        assert (inv.basic_simple_relative == is_basic_simple_relative(a)
                == is_basic_simple_relative(adj))
        assert (inv.nilpotent == nilpotency_report(a).is_nilpotent
                == nilpotency_report(adj).is_nilpotent)
        # The adjoint's digraph reverses A's, so every complement of a
        # closed set of A is closed in it.
        adj_digraph = adj.digraph
        assert list(adj_digraph) == reversed_digraph(a.digraph)
        full = set(range(a.n))
        for closed in descendant_closed_sets(a):
            complement = full - frozenset(closed)
            assert all(adj_digraph[j] <= complement for j in complement)
        seen.update(inv._asdict().items())
    assert len(seen) == 8


def test_persistent_supports_equal_or_disjoint():
    # Two persistent closures are basic simple coordinate spans, so their
    # supports never overlap without coinciding.
    several = 0
    for a in sparse_corpus(52, (QQ, GF(2), GF(3), GF(5)), 300, 6):
        supports = {c.closure_support for c in classify_generators(a)
                    if c.verdict == PERSISTENT}
        for s, t in combinations(supports, 2):
            assert not set(s) & set(t), (a.field, a.M.plain)
        dec = zeroth_decomposition(a)
        assert {support for _, support in dec.components} == supports
        several += len(supports) >= 2
    assert several >= 40


def test_classification_standard_basis():
    verdicts = [c.verdict for c in classify_generators(fixture_59())]
    assert verdicts == [TRANSIENT, TRANSIENT, TRANSIENT]


def test_classification_rebased():
    verdicts = [c.verdict for c in classify_generators(fixture_59_rebased())]
    assert verdicts == [PERSISTENT, TRANSIENT, PERSISTENT]


def test_zero_square_generator_is_transient():
    # A generator whose closure is a zero algebra cannot be persistent.
    a = EvolutionAlgebra(QQ, [[0, 1], [0, 1]])
    assert classify_generators(a)[0].verdict == TRANSIENT


def test_unknown_verdict_reported():
    # Non-perfect closure over Q: absolute basic simplicity is undecided.
    a = EvolutionAlgebra(QQ, [[0, 1, 1], [1, 0, 1], [1, 1, 2]])
    classes = classify_generators(a)
    assert UNKNOWN in {c.verdict for c in classes}
    dec = zeroth_decomposition(a)
    assert any("undecided" in d for d in dec.diagnostics)


def ref_classify_generators(algebra):
    """Reference: every generator's induced algebra is built and decided
    anew, and a zero algebra is found by the dimension of its square."""
    out = []
    for i in range(algebra.n):
        closure = algebra.subalgebra_closure([algebra.unit(i)])
        support = tuple(sorted({j for row in closure.basis for j, x in enumerate(row) if x}))
        if closure.dim != len(support):
            out.append(GeneratorClassification(TRANSIENT, support, False))
            continue
        induced = EvolutionAlgebra(algebra.field, algebra.M.submatrix(support, support))
        if induced.square_space().dim == 0:
            verdict = TRANSIENT
        else:
            basic = is_basic_simple(induced)
            verdict = PERSISTENT if basic else (UNKNOWN if basic is None else TRANSIENT)
        out.append(GeneratorClassification(verdict, support, True))
    return out


def test_classification_decides_each_support_once(monkeypatch):
    decided = []
    decide = adjoint_module.is_basic_simple

    def counted(induced):
        decided.append(induced)
        return decide(induced)

    monkeypatch.setattr(adjoint_module, "is_basic_simple", counted)
    rng = random.Random(12)
    shared = zero = 0
    for field in (QQ, GF(3), GF(101)):
        for n in range(1, 8):
            for sparse in (False, True):
                a = random_algebra(field, n, rng=rng)
                if sparse:
                    a = EvolutionAlgebra(field, [[x if rng.random() < 0.25 else 0 for x in row]
                                                 for row in a.M.data])
                decided.clear()
                classes = classify_generators(a)
                assert classes == ref_classify_generators(a)
                spanned = [c.closure_support for c in classes if c.coordinate_spanned]
                nonzero = [s for s in spanned if not a.M.submatrix(s, s).is_zero()]
                assert len(decided) == len(set(nonzero))
                shared += len(nonzero) - len(decided)
                zero += len(spanned) - len(nonzero)
    assert shared >= 50 and zero >= 10


def test_zeroth_decomposition_components():
    a = fixture_59_rebased()
    dec = zeroth_decomposition(a)
    assert dec.components == (((0, 2), (0, 2)),)
    assert dec.transient_indices == (1,)
    # The component is the closure of its generators: the span of e_1, e_3.
    for g in (0, 2):
        assert a.subalgebra_closure([a.unit(g)]) == Subspace.coordinate(a.field, 3, [0, 2])


def test_transient_overlap_diagnostic():
    # e_1 transient, e_2 and e_3 persistent with closure the whole algebra:
    # the transient span meets the persistent part, which is flagged.
    a = EvolutionAlgebra(QQ, [[0, 0, 1], [1, 1, -1], [1, -1, 1]])
    dec = zeroth_decomposition(a)
    assert dec.transient_indices == (0,)
    assert dec.components == (((1, 2), (0, 1, 2)),)
    closure = a.subalgebra_closure([a.unit(1)])
    assert closure == Subspace.full(QQ, 3)
    assert intersect(Subspace.coordinate(QQ, 3, [0]), closure).dim == 1
    assert dec.diagnostics == ("transient span intersects the persistent components",)


def test_transient_overlap_matches_subspace_intersection():
    # Reference: intersect the transient span with the sum of the
    # persistent component spans.
    rng = random.Random(91)
    seen = set()
    for field in (QQ, GF(2), GF(3), GF(101)):
        for _ in range(150):
            # Entries +-1 cancel often, so closures that are not coordinate
            # spans sit inside persistent components.
            n = rng.randint(1, 5)
            zeros = rng.choice([0.2, 0.4, 0.6])
            rows = [[0 if rng.random() < zeros else rng.choice([-1, 1]) for _ in range(n)]
                    for _ in range(n)]
            a = EvolutionAlgebra(field, rows)
            dec = zeroth_decomposition(a)
            total = Subspace.zero(field, n)
            for g, _ in dec.components:
                total = total + a.subalgebra_closure([a.unit(g[0])])
            transient = Subspace.coordinate(field, n, dec.transient_indices)
            meets = intersect(transient, total).dim > 0
            flagged = "transient span intersects the persistent components" in dec.diagnostics
            assert flagged == meets, (field, rows)
            seen.add((field, meets, bool(dec.components)))
    for field in (QQ, GF(2), GF(3), GF(101)):
        assert {(field, True, True), (field, False, True)} <= seen


def test_hierarchy_terminates():
    h = hierarchy(fixture_59_rebased())
    assert len(h) >= 2
    level0 = h[0]
    assert level0.decomposition.transient_indices == (1,)
    last = h[-1]
    assert (not last.decomposition.transient_indices
            or len(last.decomposition.transient_indices) == last.algebra.n)


def test_hierarchy_projection_flag():
    # The transient generator's square leaves the transient span, so the
    # next level works with a projected structure matrix.
    h = hierarchy(fixture_59_rebased())
    assert h[0].projected
    # The ambient index mapping tracks original positions.
    assert h[1].ambient_indices == (1,)


def test_hierarchy_all_transient_stops():
    h = hierarchy(fixture_59())
    assert len(h) == 1
    assert h[0].decomposition.transient_indices == (0, 1, 2)
