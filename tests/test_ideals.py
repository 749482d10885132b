"""Ideals, digraph closures, lattices, simplicity variants."""

import random
import tracemalloc
from functools import cache
from types import SimpleNamespace

import pytest

from evoalg.adjoint import adjoint_annihilator, is_irreducible
from evoalg.algebra import EvolutionAlgebra
from evoalg.errors import AnswerTooLarge, FieldMismatch, NotPerfect, ShapeMismatch
from evoalg.fields import GF, QQ
from evoalg.generate import random_algebra
from evoalg.ideals import (MAX_CLOSED_SETS, _breaking_class, descendant_closed_sets,
                           ideal_lattice_perfect,
                           is_basic_ideal, is_basic_simple,
                           is_basic_simple_relative, is_ideal, is_simple,
                           is_strongly_connected, reachable)
from evoalg.linalg import Subspace, kernel_rows, rref_rows
from evoalg.nilpotency import is_cube_zero, nilpotency_report
from evoalg.oracles import enumerate_natural_bases, sample_structure_matrices


def test_structure_digraph():
    # e_1^2 = e_2, e_2^2 = e_1 + e_2, e_3^2 = 0.
    a = EvolutionAlgebra(QQ, [[0, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert list(a.digraph) == [frozenset({1}), frozenset({0, 1}), frozenset()]
    assert a.digraph is a.digraph


def test_reachable():
    adjacency = [frozenset({1}), frozenset({0}), frozenset({0, 3}),
                 frozenset({2}), frozenset()]
    assert reachable(adjacency, [0]) == frozenset({0, 1})
    assert reachable(adjacency, [3]) == frozenset({0, 1, 2, 3})
    assert reachable(adjacency, adjacency[4]) == frozenset()
    assert reachable(adjacency, [4, 1]) == frozenset({0, 1, 4})


def tarjan(adjacency):
    """Reference: Tarjan's algorithm, iterative; components in reverse
    topological order."""
    n = len(adjacency)
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    components = []
    counter = 0
    for root in range(n):
        if index[root] is not None:
            continue
        work = [(root, iter(sorted(adjacency[root])))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] is None:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(sorted(adjacency[w]))))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
    return components


def test_tarjan_reference():
    adjacency = [frozenset({1}), frozenset({0}), frozenset({0, 3}),
                 frozenset({2}), frozenset()]
    comps = tarjan(adjacency)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4]]
    assert not is_strongly_connected(adjacency)


def two_cycles_joined(n, rng):
    """Cycles on 0..k-1 and k..n-1 with edges from the first to the second."""
    k = rng.randint(2, n - 2)
    adjacency = [{(i + 1) % k} for i in range(k)]
    adjacency += [{k + (i + 1) % (n - k)} for i in range(n - k)]
    for _ in range(rng.randint(1, 3)):
        adjacency[rng.randrange(k)].add(rng.randrange(k, n))
    return [frozenset(t) for t in adjacency]


def digraph_kinds(adjacency):
    n = len(adjacency)
    edges = {(i, j) for i in range(n) for j in adjacency[i]}
    kinds = set()
    if not edges:
        kinds.add("empty")
    if n > 1 and all(adjacency[i] >= set(range(n)) - {i} for i in range(n)):
        kinds.add("complete")
    if edges and all(i == j for i, j in edges):
        kinds.add("self-loops only")
    if edges and n > 1 and any(not adjacency[i] for i in range(n)):
        kinds.add("sink")
    if edges and n > 1 and any(all(i not in adjacency[j] for j in range(n)) for i in range(n)):
        kinds.add("source")
    comps = tarjan(adjacency)
    if len(comps) == 2 and all(len(c) > 1 for c in comps):
        inner = [sum(len(adjacency[i] & c) for i in c) for c in comps]
        across = [{j in comps[1] for i in comps[0] for j in adjacency[i]},
                  {j in comps[0] for i in comps[1] for j in adjacency[i]}]
        if inner == [len(c) for c in comps] and (True in across[0]) != (True in across[1]):
            kinds.add("two cycles joined one way")
    return kinds


def test_strongly_connected_matches_tarjan():
    rng = random.Random(29)
    graphs = []
    for trial in range(1200):
        n = rng.randint(1, 9)
        density = rng.choice([0.0, 0.1, 0.25, 0.5, 0.8, 1.0])
        graphs.append([frozenset(j for j in range(n) if rng.random() < density)
                       for _ in range(n)])
        if n >= 4 and trial % 10 == 0:
            graphs.append(two_cycles_joined(n, rng))
        if trial % 50 == 0:
            graphs.append([frozenset({i}) if rng.random() < 0.7 else frozenset()
                           for i in range(n)])
    seen = set()
    for adjacency in graphs:
        assert is_strongly_connected(adjacency) == (len(tarjan(adjacency)) == 1), adjacency
        seen |= digraph_kinds(adjacency)
    assert len(graphs) >= 1000
    assert seen == {"empty", "complete", "self-loops only", "sink", "source",
                    "two cycles joined one way"}


def sparse_algebra(field, n, rng):
    """Random entries with about half of them zero, so digraphs vary."""
    def entry():
        if rng.random() < 0.55:
            return 0
        return rng.randint(-3, 3) if field == QQ else rng.randrange(1, field.p)
    return EvolutionAlgebra(field, [[entry() for _ in range(n)] for _ in range(n)])


def test_digraph_readings_match_structure_matrix():
    # References: the readings of M that the digraph replaced.  ann^1 is the
    # zero columns, the adjoint's annihilator the zero rows, and A^3 = 0 iff
    # every index has a zero row or a zero column.
    rng = random.Random(47)
    seen = set()
    for field in (QQ, GF(2), GF(3), GF(101)):
        for _ in range(150):
            a = sparse_algebra(field, rng.randint(1, 6), rng)
            zero_rows = {i for i, row in enumerate(a.M.plain) if not any(row)}
            zero_cols = {i for i, col in enumerate(zip(*a.M.plain)) if not any(col)}
            cube_zero = zero_rows | zero_cols == set(range(a.n))
            assert nilpotency_report(a).ann_chain_indices[0] == tuple(sorted(zero_cols))
            assert adjoint_annihilator(a) == Subspace.coordinate(field, a.n, zero_rows)
            assert is_cube_zero(a) == cube_zero
            seen.add((field, bool(zero_rows), bool(zero_cols), cube_zero))
    # Every field meets each kind; a cube-zero algebra has zero rows and zero columns.
    assert len(seen) == 4 * 5


def test_simplicity_tests_match_tarjan():
    rng = random.Random(31)
    verdicts = set()
    for field in (QQ, GF(2), GF(101)):
        for _ in range(150):
            a = sparse_algebra(field, rng.randint(1, 6), rng)
            adjacency = a.digraph
            one_scc = len(tarjan(adjacency)) == 1
            undirected = [set(t) for t in adjacency]
            for i, targets in enumerate(adjacency):
                for j in targets:
                    undirected[j].add(i)
            assert is_basic_simple_relative(a) == one_scc
            assert is_simple(a) == (a.is_perfect() and one_scc)
            assert is_irreducible(a) == (len(tarjan(undirected)) == 1)
            verdicts.add((field, one_scc, is_irreducible(a), a.is_perfect()))
    for field in (QQ, GF(2), GF(101)):
        assert {(f, s, i) for f, s, i, _ in verdicts if f == field} >= {
            (field, True, True), (field, False, True), (field, False, False)}
        assert {(f, s, p) for f, s, _, p in verdicts if f == field} >= {
            (field, True, True), (field, True, False)}


def test_is_ideal_and_basic():
    a = EvolutionAlgebra(QQ, [[1, -1], [1, -1]])
    line = Subspace.from_vectors(QQ, 2, [[1, 1]])
    assert is_ideal(a, line)
    assert not is_basic_ideal(a, line)   # support {1, 2} exceeds dim 1
    not_ideal = Subspace.from_vectors(QQ, 2, [[1, 0]])
    assert not is_ideal(a, not_ideal)
    assert is_ideal(a, Subspace.full(QQ, 2))
    assert is_basic_ideal(a, Subspace.full(QQ, 2))


def test_is_ideal_checks_zero_subspace():
    # The zero subspace is checked like any other: over another field or of
    # another length it is refused, not an ideal by default.
    a = EvolutionAlgebra(GF(5), [[1, 1, 1], [1, 1, 1], [1, 1, 0]])
    for check in (is_ideal, is_basic_ideal):
        assert check(a, Subspace.zero(GF(5), 3))
        with pytest.raises(FieldMismatch):
            check(a, Subspace.zero(GF(3), 7))
        with pytest.raises(ShapeMismatch):
            check(a, Subspace.zero(GF(5), 7))


def test_descendant_closed_sets():
    a = EvolutionAlgebra(QQ, [[0, 0, 0], [1, 1, 0], [0, 0, 1]])
    closed = descendant_closed_sets(a)
    # 1 -> 2, 2 -> 2, 3 -> 3.
    assert closed == [(), (1,), (2,), (0, 1), (1, 2), (0, 1, 2)]
    for s in closed:
        assert is_ideal(a, Subspace.coordinate(a.field, a.n, s))


def test_descendant_closed_sets_cap():
    # No limit on n: the diagonal n = 21 algebra is refused for its 2^21 sets.
    big = EvolutionAlgebra(QQ, [[1 if i == j else 0 for j in range(21)]
                                for i in range(21)])
    with pytest.raises(AnswerTooLarge):
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


def ref_descendant_closed_sets(algebra):
    """Reference: the enumeration on frozensets, sorted by size and then by
    the sorted index lists."""
    adjacency = algebra.digraph
    closures = [reachable(adjacency, [i]) for i in range(algebra.n)]
    family = {frozenset()}
    for c in closures:
        new = set()
        for s in family:
            t = s | c
            if t not in family:
                new.add(t)
                if len(family) + len(new) > MAX_CLOSED_SETS:
                    raise AnswerTooLarge(f"more than {MAX_CLOSED_SETS} (2^16) descendant-closed "
                                         "index sets; the enumeration is capped there")
        family |= new
    return sorted(family, key=lambda s: (len(s), sorted(s)))


def closed_set_corpus(rng):
    """Structure matrices (column i is e_i^2, so i -> j iff rows[j][i])
    at n = 1..20: complete and chain (i -> i + 1) digraphs at every n;
    empty and diagonal ones, every index set closed, up to n = 13 and at
    n = 17, past the cap; then random digraphs and near-triangular ones
    like the search benchmark's (nonzero diagonal, sparse edges to lower
    indices, one 2-cycle)."""
    for n in range(1, 21):
        yield [[1] * n for _ in range(n)]
        yield [[int(j == i + 1) for i in range(n)] for j in range(n)]
        if n < 14 or n == 17:
            yield [[0] * n for _ in range(n)]
            yield [[int(j == i) for i in range(n)] for j in range(n)]
    for case in range(2000):
        n = rng.randint(1, 20)
        rows = [[0] * n for _ in range(n)]
        if case % 2 or n == 1:
            density = rng.uniform(1 / n, 0.6)
            for i in range(n):
                for j in range(n):
                    if rng.random() < density:
                        rows[j][i] = rng.randrange(1, 101)
        else:
            density = rng.uniform(0.15, 0.6)
            for i in range(n):
                rows[i][i] = rng.randrange(1, 101)
                for j in range(i):
                    if rng.random() < density:
                        rows[j][i] = rng.randrange(1, 101)
            i = rng.randrange(n - 1)
            rows[i + 1][i] = rows[i][i + 1] = rng.randrange(1, 101)
        yield rows


def closed_sets_or_refusal(fn, algebra):
    try:
        return fn(algebra)
    except AnswerTooLarge as exc:
        return str(exc)


def test_descendant_closed_sets_match_frozenset_enumeration():
    # The bit-mask enumeration gives the reference's list, order included,
    # each set as its ascending index tuple, and refuses the same families
    # with the same message.  Dimension 0 has no algebra; the function
    # reads only n and the digraph.
    algebras = [SimpleNamespace(n=0, digraph=())] + [
        EvolutionAlgebra(GF(101), rows) for rows in closed_set_corpus(random.Random(43))]
    refused = tied = 0
    for a in algebras:
        expected = closed_sets_or_refusal(ref_descendant_closed_sets, a)
        if isinstance(expected, str):
            refused += 1
        else:
            expected = [tuple(sorted(s)) for s in expected]
            tied += len({len(s) for s in expected}) < len(expected)
        assert closed_sets_or_refusal(descendant_closed_sets, a) == expected
    assert len(algebras) > 2000 and refused >= 2 and tied > 1000


def test_ideal_lattice_perfect_requires_perfect():
    with pytest.raises(NotPerfect):
        ideal_lattice_perfect(EvolutionAlgebra(QQ, [[1, 1], [1, 1]]))


def test_ideal_lattice_perfect():
    a = EvolutionAlgebra(QQ, [[1, 0], [0, 1]])
    lattice = ideal_lattice_perfect(a)
    assert lattice == tuple(Subspace.coordinate(a.field, a.n, s) for s in ([], [0], [1], [0, 1]))
    assert all(is_ideal(a, sub) and is_basic_ideal(a, sub) for sub in lattice)


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


def basic_simple_by_enumeration(algebra):
    """Reference: the algebra rebased on every enumerated natural basis of a
    GF(p) algebra is relatively basic simple."""
    return all(is_basic_simple_relative(algebra.change_basis(basis))
               for basis in enumerate_natural_bases(algebra.M.plain, algebra.field.p))


def undecided_by_relative(algebra):
    """Neither perfect nor split in the given basis: the class forms decide."""
    return not algebra.is_perfect() and is_basic_simple_relative(algebra)


def class_structured(field, n, rng):
    """Columns that are random nonzero multiples of a few random columns, so
    classes of several indices are common."""
    p = field.p
    pool = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randint(1, max(1, n // 2)))]
    columns = [[rng.randrange(1, p) * x % p for x in rng.choice(pool)] for _ in range(n)]
    return EvolutionAlgebra(field, [list(row) for row in zip(*columns)])


@cache
def undecided_corpus(p, dims, count, seed):
    """(algebra, reference verdict) for count class-structured algebras that
    undecided_by_relative keeps."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = class_structured(GF(p), rng.choice(dims), rng)
        if undecided_by_relative(a):
            out.append((a, basic_simple_by_enumeration(a)))
    return tuple(out)


# Past the guard of is_basic_simple: n >= 4, where only _breaking_class decides.
BEYOND_GUARD = [(2, (5, 6), 300, 11), (3, (4, 5), 200, 12), (5, (4,), 60, 13)]


def test_basic_simple_matches_enumeration_exhaustively():
    # Every non-perfect, strongly connected algebra over GF(2) and GF(3) at
    # n = 2, 3 and over GF(5) and GF(7) at n = 2.
    verdicts = {}
    for p, n in ((2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)):
        seen = verdicts[p, n] = []
        for m in sample_structure_matrices(p, n, p ** (n * n), 0):
            a = EvolutionAlgebra(GF(p), m)
            if undecided_by_relative(a):
                seen.append(basic_simple_by_enumeration(a))
                assert is_basic_simple(a) is seen[-1], (p, m)
    assert {key: (len(seen), set(seen)) for key, seen in verdicts.items()} == {
        (2, 2): (1, {True}), (2, 3): (64, {True}), (3, 2): (8, {True, False}),
        (3, 3): (3728, {True, False}), (5, 2): (64, {True, False}),
        (7, 2): (216, {True, False})}


@pytest.mark.parametrize("p", [5, 7])
def test_basic_simple_matches_enumeration_on_seeded_corpus(p):
    corpus = undecided_corpus(p, (3,), 150, p)
    assert {expected for _, expected in corpus} == {True, False}
    for a, expected in corpus:
        assert is_basic_simple(a) is expected, a.M.plain


@pytest.mark.parametrize("p, dims, count, seed", BEYOND_GUARD, ids=["gf2", "gf3", "gf5"])
def test_breaking_class_matches_enumeration_beyond_guard(p, dims, count, seed):
    corpus = undecided_corpus(p, dims, count, seed)
    assert {expected for _, expected in corpus} == {True, False}
    for a, expected in corpus:
        assert is_basic_simple(a) is None
        assert (_breaking_class(a) is None) is expected, a.M.plain


def test_breaking_class_over_q():
    # [[1, 1], [1, 1]]: the basis (1, 1), (1, -1) has the closed set {(1, 1)}.
    a = EvolutionAlgebra(QQ, [[1, 1], [1, 1]])
    assert _breaking_class(a) == (0, 1)
    assert not is_basic_simple_relative(a.change_basis([[1, 1], [1, -1]]))
    # [[1, -1], [1, -1]]: W^perp = span(1, 1) is isotropic.
    assert _breaking_class(EvolutionAlgebra(QQ, [[1, -1], [1, -1]])) is None


def criterion_with(algebra, breaks):
    """_breaking_class is None with the per-class test replaced by
    breaks(lambdas, perp, red)."""
    field, classes = algebra.field, algebra.column_classes
    red = field.reduce
    for idx in classes.members:
        lambdas = [classes.lambdas[i] for i in idx]
        rows = [[red(l * line[i]) for l, i in zip(lambdas, idx)] for line in classes.lines]
        perp = kernel_rows(rows, len(idx), rref_rows(rows, len(idx), field), red)
        if breaks(lambdas, perp, red):
            return False
    return True


def gram_nonzero(lambdas, perp, red):
    return any(red(sum(l * a * b for l, a, b in zip(lambdas, x, y))) for x in perp for y in perp)


def diagonal_nonzero(lambdas, perp, red):
    return any(red(sum(l * a * a for l, a in zip(lambdas, x))) for x in perp)


def odd_weight(lambdas, perp, red):
    return any(sum(v) % 2 for v in perp)


def odd_weight_not_ones(lambdas, perp, red):
    return odd_weight(lambdas, perp, red) and perp != [[1] * len(lambdas)]


def test_breaking_class_mutations_fail():
    # The criterion rebuilt from its per-class tests agrees with the
    # reference; each weakened test disagrees somewhere.
    gf2 = undecided_corpus(*BEYOND_GUARD[0])
    odd = [pair for run in BEYOND_GUARD[1:] for pair in undecided_corpus(*run)]

    def mismatches(corpus, breaks):
        return sum(criterion_with(a, breaks) is not expected for a, expected in corpus)

    assert mismatches(gf2, odd_weight_not_ones) == mismatches(odd, gram_nonzero) == 0
    assert mismatches(gf2, gram_nonzero) > 0
    assert mismatches(gf2, odd_weight) > 0
    # Over GF(3), b = x^2 + 2y^2 + 2z^2 on W^perp = (1, 2, 2)^perp: its RREF
    # basis (1, 1, 0), (1, 0, 1) is isotropic, yet (2, 1, 1) is not.
    a = EvolutionAlgebra(GF(3), [[1, 2, 2], [1, 2, 2], [1, 2, 2]])
    assert basic_simple_by_enumeration(a) is False is is_basic_simple(a)
    assert criterion_with(a, gram_nonzero) is False
    assert criterion_with(a, diagonal_nonzero) is True


def test_perfect_ideals_all_basic_brute():
    # Every ideal of a perfect algebra is basic: cross-check on random
    # 2-dim rational algebras by scanning many random lines.
    rng = random.Random(41)
    for _ in range(50):
        a = random_algebra(QQ, 2, rng=rng, perfect=True)
        lattice_subs = set(ideal_lattice_perfect(a))
        for _ in range(40):
            vec = [rng.randint(-3, 3), rng.randint(-3, 3)]
            if not any(vec):
                continue
            line = Subspace.from_vectors(QQ, 2, [vec])
            if is_ideal(a, line):
                assert line in lattice_subs
