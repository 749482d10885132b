"""Ideals, digraph closures, lattices, simplicity variants."""

import random
import tracemalloc

import pytest

from evoalg.algebra import EvolutionAlgebra
from evoalg.errors import AnswerTooLarge, DimensionTooLarge, NotPerfect
from evoalg.fields import GF, QQ
from evoalg.generate import random_algebra
from evoalg.ideals import (descendant_closed_sets, ideal_lattice_perfect,
                           is_basic_ideal, is_basic_simple,
                           is_basic_simple_relative, is_ideal, is_simple,
                           reachable, strongly_connected_components,
                           structure_digraph)
from evoalg.linalg import Subspace


def test_structure_digraph():
    # e_1^2 = e_2, e_2^2 = e_1 + e_2, e_3^2 = 0.
    a = EvolutionAlgebra(QQ, [[0, 1, 0], [1, 1, 0], [0, 0, 0]])
    adjacency = structure_digraph(a)
    assert adjacency == [frozenset({1}), frozenset({0, 1}), frozenset()]


def test_reachable():
    adjacency = [frozenset({1}), frozenset({0}), frozenset({0, 3}),
                 frozenset({2}), frozenset()]
    assert reachable(adjacency, [0]) == frozenset({0, 1})
    assert reachable(adjacency, [3]) == frozenset({0, 1, 2, 3})
    assert reachable(adjacency, adjacency[4]) == frozenset()
    assert reachable(adjacency, [4, 1]) == frozenset({0, 1, 4})


def test_strongly_connected_components():
    adjacency = [frozenset({1}), frozenset({0}), frozenset({0, 3}),
                 frozenset({2}), frozenset()]
    comps = strongly_connected_components(adjacency)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]


def test_is_ideal_and_basic():
    a = EvolutionAlgebra(QQ, [[1, -1], [1, -1]])
    line = Subspace.from_vectors(QQ, 2, [[1, 1]])
    assert is_ideal(a, line)
    assert not is_basic_ideal(a, line)   # support {1, 2} exceeds dim 1
    not_ideal = Subspace.from_vectors(QQ, 2, [[1, 0]])
    assert not is_ideal(a, not_ideal)
    assert is_ideal(a, Subspace.full(QQ, 2))
    assert is_basic_ideal(a, Subspace.full(QQ, 2))


def test_descendant_closed_sets():
    a = EvolutionAlgebra(QQ, [[0, 0, 0], [1, 1, 0], [0, 0, 1]])
    closed = descendant_closed_sets(a)
    # 1 -> 2, 2 -> 2, 3 -> 3.
    assert closed == [frozenset(), frozenset({1}), frozenset({2}),
                      frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1, 2})]
    for s in closed:
        assert is_ideal(a, Subspace.coordinate(a.field, a.n, s))


def test_descendant_closed_sets_cap():
    big = EvolutionAlgebra(QQ, [[1 if i == j else 0 for j in range(21)]
                                for i in range(21)])
    with pytest.raises(DimensionTooLarge):
        descendant_closed_sets(big)


def diagonal(n):
    return EvolutionAlgebra(GF(101), [[1 if i == j else 0 for j in range(n)]
                                      for i in range(n)])


def test_descendant_closed_sets_answer_cap():
    # Every index set of a diagonal algebra is closed: 2^n sets, and the cap
    # is 2^16 sets whatever n is.
    assert len(descendant_closed_sets(diagonal(16))) == 1 << 16
    with pytest.raises(AnswerTooLarge, match="65536"):
        descendant_closed_sets(diagonal(17))


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
    except AnswerTooLarge:
        pass
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


def test_descendant_closed_sets_refused_before_built():
    # A step may double the family; the refusal comes as soon as the cap is
    # passed, so the refused n = 17 call holds no more than the accepted
    # n = 16 call does.
    accepted, refused = diagonal(16), diagonal(17)
    assert traced_peak(descendant_closed_sets, refused) <= \
        1.2 * traced_peak(descendant_closed_sets, accepted)


def test_ideal_lattice_perfect_requires_perfect():
    with pytest.raises(NotPerfect):
        ideal_lattice_perfect(EvolutionAlgebra(QQ, [[1, 1], [1, 1]]))


def test_ideal_lattice_perfect():
    a = EvolutionAlgebra(QQ, [[1, 0], [0, 1]])
    lattice = ideal_lattice_perfect(a)
    assert len(lattice.ideals) == 4
    assert all(lattice.basic_flags)
    for sub, gen in zip(lattice.ideals, lattice.generators):
        assert is_ideal(a, sub)
        assert sub == Subspace.coordinate(a.field, a.n, gen)


def test_simple_and_relative():
    # Nonsingular and strongly connected.
    a = EvolutionAlgebra(QQ, [[0, 1], [1, 0]])
    assert is_simple(a) and is_basic_simple_relative(a)
    assert is_basic_simple(a) is True
    # Nonsingular but two strata.
    b = EvolutionAlgebra(QQ, [[1, 1], [0, 1]])
    assert not is_simple(b) and not is_basic_simple_relative(b)
    assert is_basic_simple(b) is False
    # Singular: never simple even when strongly connected.
    c = EvolutionAlgebra(QQ, [[1, -1], [1, -1]])
    assert not is_simple(c) and is_basic_simple_relative(c)


def test_basic_simple_but_not_simple():
    # Singular matrix with a unique natural basis and no proper basic ideal.
    a = EvolutionAlgebra(GF(5), [[0, 1, 1], [1, 0, 1], [1, 1, 2]])
    assert not a.is_perfect()
    assert is_basic_simple_relative(a)
    assert is_basic_simple(a) is True
    assert not is_simple(a)


def test_basic_simple_fails_on_other_basis():
    # Relative verdict is true for the standard basis, but the basis
    # {e1+e2, e1-e2, e3} exposes a proper basic ideal.
    a = EvolutionAlgebra(GF(5), [[1, 1, 2], [1, 1, 2], [1, 1, 2]])
    assert is_basic_simple_relative(a)
    assert is_basic_simple(a) is False


def test_basic_simple_undecided():
    over_q = EvolutionAlgebra(QQ, [[1, 1, 2], [1, 1, 2], [1, 1, 2]])
    assert is_basic_simple(over_q) is None
    big_p = EvolutionAlgebra(GF(11), [[1, 1, 2], [1, 1, 2], [1, 1, 2]])
    assert is_basic_simple(big_p) is None
    assert is_basic_simple(EvolutionAlgebra(QQ, [[0]])) is True


def test_perfect_ideals_all_basic_brute():
    # Every ideal of a perfect algebra is basic: cross-check on random
    # 2-dim rational algebras by scanning many random lines.
    rng = random.Random(41)
    for _ in range(50):
        a = random_algebra(QQ, 2, rng=rng, perfect=True)
        lattice_subs = set(ideal_lattice_perfect(a).ideals)
        for _ in range(40):
            vec = [rng.randint(-3, 3), rng.randint(-3, 3)]
            if not any(vec):
                continue
            line = Subspace.from_vectors(QQ, 2, [vec])
            if is_ideal(a, line):
                assert line in lattice_subs
