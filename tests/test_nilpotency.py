"""Power spaces, nilpotency reports, vanishing-minor witnesses."""

import importlib.util
import random
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

from evoalg import linalg, nilpotency
from evoalg.algebra import Element, EvolutionAlgebra
from evoalg.algfile import parse_algebra_text
from evoalg.errors import (FieldMismatch, InvalidArgument, NotPerfect,
                           SelfCheckFailed, ShapeMismatch)
from evoalg.fields import GF, QQ
from evoalg.generate import random_algebra
from evoalg.linalg import Matrix, Subspace
from evoalg.nilpotency import (CubeNilpotentScan, OrthogonalityScan,
                               _witness_for_pair, cube_witness_from_minor,
                               find_cube_nilpotent, find_orthogonality_witness,
                               is_cube_zero, nilpotency_report, power_spaces,
                               product_space)
from evoalg.oracles import all_elements_nil


def dim4_example():
    # e_1^2 = -e_2^2 = e_4, e_3^2 = e_1 + e_2, e_4^2 = 0.
    return EvolutionAlgebra(QQ, [[0, 0, 1, 0],
                                 [0, 0, 1, 0],
                                 [0, 0, 0, 0],
                                 [1, -1, 0, 0]])


def test_power_spaces_dim4():
    a = dim4_example()
    two = power_spaces(a, 2)
    expected2 = Subspace.from_vectors(QQ, 4, [[1, 1, 0, 0], [0, 0, 0, 1]])
    assert two.principal == expected2
    assert two.solvable == expected2
    assert power_spaces(a, 3).principal == Subspace.from_vectors(
        QQ, 4, [[0, 0, 0, 1]])
    assert power_spaces(a, 4).right.dim == 0
    # A^3 is strictly smaller than A^[2] here.
    assert power_spaces(a, 3).principal != two.solvable


def principal_powers_both_orders(algebra, k):
    """A^1..A^k with A^m the sum of A^i A^(m-i) over every i in 1..m-1,
    both orders of each pair formed."""
    powers = [None, Subspace.full(algebra.field, algebra.n)]
    for m in range(2, k + 1):
        acc = Subspace.zero(algebra.field, algebra.n)
        for i in range(1, m):
            acc = acc + product_space(algebra, powers[i], powers[m - i])
        powers.append(acc)
    return powers[1:]


def test_power_spaces_form_each_pair_once():
    # The product is commutative, so forming A^i A^(m-i) for i <= m/2 only
    # gives the same principal powers.
    rng = random.Random(27)
    shapes = set()
    for field in (QQ, GF(2), GF(3), GF(101)):
        for _ in range(40):
            n = rng.randint(1, 6)
            draw = ((lambda: rng.randint(-3, 3)) if field == QQ
                    else (lambda: rng.randrange(field.p)))
            # Mostly strictly lower triangular: nilpotent or nearly so, so
            # the powers shrink over several steps.
            rows = [[draw() if j < i or rng.random() < 0.1 else 0 for j in range(n)]
                    for i in range(n)]
            a = EvolutionAlgebra(field, rows)
            expected = principal_powers_both_orders(a, 5)
            assert [power_spaces(a, k).principal for k in range(1, 6)] == expected
            shapes.add(tuple(s.dim for s in expected))
    assert len(shapes) > 20 and any(len(set(dims)) >= 4 for dims in shapes)


def test_power_spaces_index_below_one():
    assert power_spaces(dim4_example(), 1).principal.dim == 4
    for k in (0, -1):
        with pytest.raises(InvalidArgument):
            power_spaces(dim4_example(), k)


def test_nilpotency_report_dim4():
    rep = nilpotency_report(dim4_example())
    assert rep.is_nilpotent
    assert rep.ann_chain_indices == ((3,), (0, 1, 3), (0, 1, 2, 3))
    assert rep.type_sequence == (1, 2, 1)
    assert rep.right_nilpotency_index == 4
    assert rep.triangular_order == (3, 0, 1, 2)
    # The reordered structure matrix is strictly upper triangular.
    order = rep.triangular_order
    for col, i in enumerate(order):
        for row in range(col, len(order)):
            assert not dim4_example().M.entry(order[row], i)


def test_nilpotency_type_1_1_1():
    # e_1^2 = 0, e_2^2 = e_1, e_3^2 = e_1 + e_2.
    a = EvolutionAlgebra(QQ, [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    rep = nilpotency_report(a)
    assert rep.is_nilpotent and rep.type_sequence == (1, 1, 1)
    assert power_spaces(a, 4).right.dim == 0


def test_not_nilpotent():
    rep = nilpotency_report(EvolutionAlgebra(QQ, [[1]]))
    assert not rep.is_nilpotent
    assert rep.type_sequence == ()
    assert rep.right_nilpotency_index is None
    assert rep.triangular_order is None


def ref_annihilator_chain(algebra):
    """Reference: the chain as frozensets, ann^1 the indices with an empty
    out-set and each next level those whose out-set lies in the last."""
    digraph = algebra.digraph
    chain = [frozenset(i for i, out in enumerate(digraph) if not out)]
    while True:
        bigger = frozenset(i for i, out in enumerate(digraph) if out <= chain[-1])
        if bigger == chain[-1]:
            return chain
        chain.append(bigger)


def shuffled_nilpotent_corpus(root):
    """The nilpotent GF(101) algebras with shuffled indices that
    tools/same_outputs.py runs through ``nilpotency``, n = 9-20."""
    path = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.build_corpus(root)
    return [parse_algebra_text(f.read_text(encoding="utf-8"))
            for f in sorted(root.glob("nilpotent-*.alg"))]


def test_annihilator_chain_levels_are_ascending_tuples(tmp_path):
    # Each level is its frozenset reference in ascending order, on sparse
    # random algebras and on the shuffled nilpotent corpus algebras.  In
    # about half of the latter some level iterates out of order as a
    # frozenset, so a chain kept in frozenset order prints differently there.
    rng = random.Random(53)
    randoms = []
    for field in (QQ, GF(2), GF(3), GF(101)):
        for _ in range(100):
            a = random_algebra(field, rng.randint(1, 14), rng=rng)
            keep = rng.choice((0.2, 0.4, 1.0))
            randoms.append(EvolutionAlgebra(field, [[x if rng.random() < keep else 0 for x in row]
                                                    for row in a.M.plain]))
    shuffled = shuffled_nilpotent_corpus(tmp_path)
    for a in randoms + shuffled:
        assert nilpotency_report(a).ann_chain_indices == tuple(
            tuple(sorted(s)) for s in ref_annihilator_chain(a))
    assert sum(nilpotency_report(a).is_nilpotent for a in randoms) >= 20
    assert len(shuffled) == 40 and all(nilpotency_report(a).is_nilpotent for a in shuffled)
    unordered = sum(any(tuple(frozenset(s)) != s for s in nilpotency_report(a).ann_chain_indices)
                    for a in shuffled)
    assert unordered >= 15


def test_nilpotency_matches_exhaustive_nil():
    rng = random.Random(31)
    for p in (2, 3):
        F = GF(p)
        for _ in range(150):
            n = rng.randint(1, 3)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            a = EvolutionAlgebra(F, rows)
            rep = nilpotency_report(a)
            assert rep.is_nilpotent == all_elements_nil(rows, p)
            assert rep.is_nilpotent == (power_spaces(a, n + 1).right.dim == 0)


def test_is_cube_zero_rule():
    # Every index has a zero row or a zero column.
    a = EvolutionAlgebra(QQ, [[0, 1], [0, 0]])
    assert is_cube_zero(a)
    assert power_spaces(a, 3).principal.dim == 0
    b = dim4_example()
    assert not is_cube_zero(b)
    assert power_spaces(b, 3).principal.dim != 0


def test_orthogonality_witness_found():
    # Singular structure matrix of a perfect... not possible; instead use a
    # perfect matrix with a vanishing off-diagonal block.
    a = EvolutionAlgebra(QQ, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    scan = find_orthogonality_witness(a)
    assert scan.witness is not None
    w = scan.witness
    assert (w.u * (w.v * w.w)).is_zero()
    assert w.v.support() == w.w.support()


def test_orthogonality_witness_requires_perfect():
    singular = EvolutionAlgebra(QQ, [[1, 1], [1, 1]])
    with pytest.raises(NotPerfect):
        find_orthogonality_witness(singular)


def test_nonperfect_triple_despite_nonvanishing_minors():
    # e_1^2 = e_2^2 = e_1 + e_2: u = e_1 - e_2, v = w = e_1 gives
    # u (v w) = 0 although every 1 x 1 block of M[{1,2}, {1}] is nonzero.
    a = EvolutionAlgebra(QQ, [[1, 1], [1, 1]])
    u = a.element([1, -1])
    v = a.element([1, 0])
    assert (u * (v * v)).is_zero()
    assert a.M.entry(0, 0) and a.M.entry(1, 0)


def test_witness_none_for_generic_perfect():
    a = EvolutionAlgebra(QQ, [[1, 1], [1, 2]])
    scan = find_orthogonality_witness(a)
    assert scan.witness is None and not scan.truncated


def test_minor_scan_meets_balls_mds_bound():
    # Ball (J. Eur. Math. Soc. 14 (2012), 733-748): over GF(p) every n x n
    # matrix with n > (p + 1)/2 has a singular square submatrix, so the
    # full scan finds a witness even with no zero entry.  A Cauchy matrix
    # 1/(x_i - y_j), the 2n points distinct (so 2n <= p), has none.
    rng = random.Random(2012)
    for p in (3, 5, 7, 11, 13):
        F = GF(p)
        for n in ((p + 1) // 2 + 1, (p + 1) // 2 + 2):
            for _ in range(30):
                while True:
                    a = EvolutionAlgebra(F, [[rng.randrange(1, p) for _ in range(n)]
                                             for _ in range(n)])
                    if a.is_perfect():
                        break
                scan = find_orthogonality_witness(a, n)
                assert scan.witness is not None and not scan.truncated, (p, a.M.plain)
    for p, n in ((7, 3), (11, 5), (13, 6)):
        points = rng.sample(range(p), 2 * n)
        xs, ys = points[:n], points[n:]
        a = EvolutionAlgebra(GF(p), [[pow(x - y, -1, p) for y in ys] for x in xs])
        scan = find_orthogonality_witness(a, n)
        assert scan.witness is None and not scan.truncated, p
        assert scan.minors == sum(comb(n, k) ** 2 for k in range(1, n + 1))


def test_cube_nilpotent_needs_square_roots():
    # Perfect matrix whose only vanishing principal minor sits on {1, 2}
    # with kernel line (4, -1): every scanned multiple has a negative entry,
    # so no rational square roots exist and the scan reports a diagnostic.
    a = EvolutionAlgebra(QQ, [[1, 4, 0], [-1, -4, 1], [0, 1, 1]])
    scan = find_cube_nilpotent(a)
    assert scan.element is None
    assert scan.minor_indices == (0, 1)
    assert scan.needs_square_roots
    assert scan.diagnostic == "minor vanishes, witness needs square roots"


def test_cube_nilpotent_verified():
    # Entry (3, 3) is zero, so the 1 x 1 principal minor on {3} vanishes and
    # u = e_3 satisfies u^3 = e_3 (e_3^2) = e_3 e_2 = 0.
    a = EvolutionAlgebra(QQ, [[1, 1, 0], [1, 1, 1], [1, 0, 0]])
    assert a.is_perfect()
    scan = find_cube_nilpotent(a)
    assert scan.element is not None
    assert scan.element.power(3).is_zero()
    assert not scan.element.is_zero()
    assert scan.minor_indices == (2,)


def test_cube_nilpotent_none():
    a = EvolutionAlgebra(QQ, [[2, 0], [0, 3]])
    scan = find_cube_nilpotent(a)
    assert scan.element is None and scan.minor_indices is None
    assert scan.diagnostic is None


def test_cube_nilpotent_gf2_always_resolves():
    # Over GF(2) every scalar is a square, so a vanishing principal minor
    # always converts into a verified witness.
    rng = random.Random(32)
    for _ in range(200):
        n = rng.randint(1, 3)
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        a = EvolutionAlgebra(GF(2), rows)
        if not a.is_perfect():
            continue
        scan = find_cube_nilpotent(a)
        assert not scan.needs_square_roots
        if scan.element is not None:
            assert scan.element.power(3).is_zero()


def test_product_space_bilinearity():
    rng = random.Random(33)
    for _ in range(30):
        a = random_algebra(GF(5), rng.randint(1, 4), rng=rng)
        full = Subspace.full(GF(5), a.n)
        sq = product_space(a, full, full)
        assert sq == a.square_space()


def ref_product_space(algebra, s, t):
    """Products of boxed Elements, as product_space formed them before it
    worked on plain rows."""
    vectors = []
    for a in s.basis:
        ea = Element(algebra, a)
        for b in t.basis:
            vectors.append((ea * Element(algebra, b)).coords)
    return Subspace.from_vectors(algebra.field, algebra.n, vectors)


def test_product_space_matches_boxed_products(monkeypatch):
    rng = random.Random(34)
    draws = {GF(2): lambda: rng.randrange(2), GF(5): lambda: rng.randrange(5),
             QQ: lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))}
    made = counting(monkeypatch, Element, "__init__")
    for field, draw in draws.items():
        for _ in range(40):
            n = rng.randint(1, 5)
            a = EvolutionAlgebra(field, [[draw() for _ in range(n)] for _ in range(n)])
            s, t = (Subspace.from_vectors(field, n, [[draw() for _ in range(n)]
                                                     for _ in range(rng.randint(0, n))])
                    for _ in range(2))
            del made[:]
            fast = product_space(a, s, t)
            assert not made   # no boxed Element on the way
            assert fast == ref_product_space(a, s, t)


def test_product_space_drops_zero_products(monkeypatch):
    # Zero products add nothing to the span, so none reaches the elimination;
    # sparse structure matrices make many of them.
    rng = random.Random(35)
    zero_rows = []
    for name in ("rref_rows", "bareiss_rows"):
        def recorded(m, *args, original=getattr(linalg, name), **kwargs):
            zero_rows.extend(row for row in m if not any(row))
            return original(m, *args, **kwargs)
        monkeypatch.setattr(linalg, name, recorded)
    zero_products = 0
    for field, values in ((GF(2), [0, 1]), (GF(5), [0, 0, 0, 1, 3]),
                          (QQ, [0, 0, 0, 1, Fraction(-1, 2)])):
        for _ in range(40):
            n = rng.randint(1, 4)
            a = EvolutionAlgebra(field, [[rng.choice(values) for _ in range(n)]
                                         for _ in range(n)])
            s, t = (Subspace.from_vectors(field, n, [[rng.choice(values) for _ in range(n)]
                                                     for _ in range(rng.randint(0, n))])
                    for _ in range(2))
            zero_products += sum(not any(a._product(u, w)) for u in s.plain for w in t.plain)
            del zero_rows[:]
            fast = product_space(a, s, t)
            assert not zero_rows
            assert fast == ref_product_space(a, s, t)
    assert zero_products > 50


def test_product_space_mismatch_errors():
    # Each mismatch raises what coercing a boxed product raised; a zero
    # subspace has no product to coerce, and a zero left factor leaves the
    # right one unread.
    a = EvolutionAlgebra(GF(5), [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    q = EvolutionAlgebra(QQ, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    F5, full5 = GF(5), Subspace.full(GF(5), 3)
    cases = [
        (a, Subspace.full(GF(3), 3), full5, FieldMismatch, "GF(5) vs GF(3)"),
        (a, full5, Subspace.full(GF(3), 3), FieldMismatch, "GF(5) vs GF(3)"),
        (a, Subspace.full(QQ, 3), full5, FieldMismatch,
         "rational scalar used where GF(5) was expected"),
        (a, full5, Subspace.full(QQ, 3), FieldMismatch,
         "rational scalar used where GF(5) was expected"),
        (q, Subspace.full(QQ, 3), full5, FieldMismatch,
         "GF(p) scalar used where a rational was expected"),
        (a, Subspace.full(F5, 2), full5, ShapeMismatch,
         "coordinate length does not match algebra dimension"),
        (a, full5, Subspace.full(F5, 4), ShapeMismatch,
         "coordinate length does not match algebra dimension"),
        (a, Subspace.full(GF(3), 4), full5, FieldMismatch, "GF(5) vs GF(3)"),
        (a, Subspace.full(GF(3), 3), Subspace.zero(F5, 3), FieldMismatch,
         "GF(5) vs GF(3)"),
    ]
    for algebra, s, t, error, message in cases:
        with pytest.raises(error) as info:
            product_space(algebra, s, t)
        assert str(info.value) == message
        with pytest.raises(error):
            ref_product_space(algebra, s, t)
    for s, t in ((Subspace.zero(GF(3), 3), full5), (Subspace.zero(F5, 2), full5),
                 (Subspace.zero(F5, 3), Subspace.full(F5, 2))):
        assert product_space(a, s, t) == ref_product_space(a, s, t) == Subspace.zero(F5, 3)


def test_witness_self_check(monkeypatch):
    # M[0][0] = 0, so ({1}, {1}) is a vanishing pair; a product that is
    # reported nonzero must raise rather than pass silently.
    a = EvolutionAlgebra(QQ, [[0, 1], [1, 0]])
    assert _witness_for_pair(a, (0,), (0,)) is not None
    monkeypatch.setattr(EvolutionAlgebra, "_product", lambda self, u, w: [1] * self.n)
    with pytest.raises(SelfCheckFailed):
        _witness_for_pair(a, (0,), (0,))


def test_minor_scan_cap_below_one():
    a = EvolutionAlgebra(QQ, [[0, 1], [1, 0]])
    for cap in (0, -1):
        with pytest.raises(InvalidArgument):
            find_orthogonality_witness(a, cap)


# --------------------------------------------------------- reference scans


def all_pairs_scan(algebra, max_subset_size=None):
    """Every (Gamma, Omega) pair up to the cap, square or not, one rank
    computation each, in the order of the fast scan; the witness of the
    first rank-deficient pair."""
    n = algebra.n
    cap = min(n, 12 if max_subset_size is None else max_subset_size)
    for gsize in range(1, cap + 1):
        for gamma in combinations(range(n), gsize):
            for osize in range(1, cap + 1):
                for omega in combinations(range(n), osize):
                    if algebra.M.submatrix(gamma, omega).rank() < min(gsize, osize):
                        return OrthogonalityScan(_witness_for_pair(algebra, gamma, omega),
                                                 False, cap)
    return OrthogonalityScan(None, cap < n, cap)


def minor_per_subset_scan(algebra):
    """One determinant per principal minor, in the order of the fast scan;
    also returns the vanishing minors passed over for want of a witness."""
    n = algebra.n
    passed = []
    for size in range(1, n + 1):
        for gamma in combinations(range(n), size):
            if algebra.M.minor(gamma, gamma):
                continue
            u = cube_witness_from_minor(algebra, gamma)
            if u is not None:
                return CubeNilpotentScan(u, gamma, False), passed
            passed.append(gamma)
    return CubeNilpotentScan(None, passed[0] if passed else None, bool(passed)), passed


def random_perfect(rng, field=None, n=None):
    if field is None:
        field = rng.choice([QQ, GF(2), GF(3), GF(5), GF(101)])
    if n is None:
        n = rng.randint(1, 6)
    while True:
        density = rng.choice([rng.random(), 1.0])
        if field == QQ:
            hi = rng.choice([3, 9])
            draw = lambda: rng.randint(1, hi) * rng.choice([-1, 1])
        else:
            draw = lambda: rng.randrange(1, field.p)
        rows = [[draw() if rng.random() < density else 0 for _ in range(n)]
                for _ in range(n)]
        a = EvolutionAlgebra(field, rows)
        if a.is_perfect():
            return a


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_minor_scan_matches_all_pairs(monkeypatch):
    rng = random.Random(41)
    hits = late = none = 0
    for case in range(1200):
        a = random_perfect(rng)
        cap = (None, 1, 2, 3)[case % 4]
        expected = all_pairs_scan(a, cap)
        calls = counting(monkeypatch, nilpotency, "_witness_for_pair")
        scan = find_orthogonality_witness(a, cap)
        monkeypatch.undo()
        assert scan._replace(minors=0) == expected
        assert scan.minors <= sum(comb(a.n, k) ** 2 for k in range(1, scan.max_subset_size + 1))
        assert len(calls) == (scan.witness is not None)
        hits += scan.witness is not None
        late += scan.witness is not None and len(scan.witness.gamma) > 1
        none += scan.witness is None
    assert hits and late and none


def rank_deficient_perfect(rng, field=None, n=None):
    """A perfect algebra over the field at dimension n >= 3 (by default
    over Q, GF(11) or GF(13), n = 3..7), with one principal block M[g, g],
    |g| < n, made singular: on the columns of g, the first row of g is a
    combination of the others."""
    if field is None:
        field = rng.choice([QQ, GF(11), GF(13)])
    if n is None:
        n = rng.randint(3, 7)
    draw = ((lambda: rng.randint(-3, 3)) if field == QQ
            else (lambda: rng.randrange(field.p)))
    while True:
        rows = [[draw() for _ in range(n)] for _ in range(n)]
        t, *others = rng.sample(range(n), rng.randint(2, n - 1))
        coeffs = [draw() for _ in others]
        for c in (t, *others):
            rows[t][c] = sum(k * rows[u][c] for k, u in zip(coeffs, others))
        a = EvolutionAlgebra(field, rows)
        if a.is_perfect():
            return a


def fractions_made(monkeypatch, *paused):
    """Fractions constructed from now on, outside calls of the paused
    (owner, name) functions."""
    made, active = [], [True]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        if active[0]:
            made.append(args)
        return new(cls, *args, **kwargs)

    def pause(original):
        def run(*args):
            active[0] = False
            try:
                return original(*args)
            finally:
                active[0] = True
        return run

    for owner, name in paused:
        monkeypatch.setattr(owner, name, pause(getattr(owner, name)))
    monkeypatch.setattr(Fraction, "__new__", counted)
    return made


def test_cube_scan_matches_minor_per_subset(monkeypatch):
    rng = random.Random(42)
    corpus = ([random_perfect(rng) for _ in range(1200)]
              + [rank_deficient_perfect(rng) for _ in range(600)])
    passed_over = later_witness = resumed = 0
    for a in corpus:
        # A fresh algebra: building the corpus already decided (and cached)
        # perfectness.
        a = EvolutionAlgebra(a.field, a.M)
        expected, passed = minor_per_subset_scan(a)
        minor_calls = counting(monkeypatch, Matrix, "minor")
        det_calls = counting(monkeypatch, Matrix, "det")
        grow_calls = counting(monkeypatch, nilpotency, "_grow")
        tried = counting(monkeypatch, nilpotency, "cube_witness_from_minor")
        made = fractions_made(monkeypatch, (EvolutionAlgebra, "is_perfect"),
                              (nilpotency, "cube_witness_from_minor"))
        scan = find_cube_nilpotent(a)
        monkeypatch.undo()
        assert scan._replace(minors=0) == expected
        assert scan == ref_find_cube_nilpotent(a)
        assert scan.minors <= 2 ** a.n - 1
        # No determinant inside the scan: the one det is the perfectness
        # check on M itself.
        assert not minor_calls and [m for m, in det_calls] == [a.M]
        assert not made
        # A witness is sought on exactly the vanishing minors, in order.
        assert [gamma for _, gamma in tried] == passed + (
            [scan.minor_indices] if scan.element is not None else [])
        # Calls whose parent stopped its elimination with rows left over.
        resumed += sum(state[3] > 0 for state, _, _ in grow_calls)
        passed_over += bool(passed)
        later_witness += bool(passed) and scan.element is not None
    assert passed_over and later_witness and resumed > 200


def ref_grow(state, j, p):
    """Reference: the step that copies the rows and columns it keeps for
    every child, unpacks each row, then eliminates."""
    rows, d, first, r = state
    lo = r + j - first
    rows = [row[:r] + row[lo:] for row in rows[:r] + rows[lo:]]
    for left in range(r + 1, 0, -1):
        for k in range(left):
            if rows[k][0]:
                break
        else:
            return False, (rows, d, j + 1, left)
        piv, *top = rows.pop(k)
        if p:
            rows = [[(piv * a - f * b) % p for a, b in zip(rest, top)] for f, *rest in rows]
        else:
            rows = [[(piv * a - f * b) // d for a, b in zip(rest, top)] for f, *rest in rows]
        d = piv
    return True, (rows, d, j + 1, 0)


def ref_find_cube_nilpotent(algebra):
    """Reference: the eager scan, which gives every child, leaves included,
    its own elimination step (ref_grow) as soon as it is met."""
    n = algebra.n
    level = [((), (algebra.integral, 1, 0, 0))]
    first_vanishing = None
    minors = 0
    while level:
        grown = []
        for gamma, state in level:
            for j in range(gamma[-1] + 1 if gamma else 0, n):
                child = gamma + (j,)
                minors += 1
                nonsingular, child_state = ref_grow(state, j, algebra.field.p)
                if j < n - 1:
                    grown.append((child, child_state))
                if nonsingular:
                    continue
                if first_vanishing is None:
                    first_vanishing = child
                u = cube_witness_from_minor(algebra, child)
                if u is not None:
                    return CubeNilpotentScan(u, child, False, minors)
        level = grown
    return CubeNilpotentScan(None, first_vanishing, first_vanishing is not None, minors)


def test_cube_step_matches_copying_step(monkeypatch):
    # Every step gives the reference's state, and the scan run on the
    # reference step gives the same result, minors included.
    rng = random.Random(44)
    fields = (QQ, GF(3), GF(13), GF(10007))
    corpus = [rank_deficient_perfect(rng, field, rng.randint(3, 10)) if case % 8 < 4
              else random_perfect(rng, field, rng.randint(1, 10))
              for case, field in enumerate(fields * 100)]
    grow = nilpotency._grow
    found = resumed = 0

    def checked(state, j, p):
        nonlocal resumed
        out = grow(state, j, p)
        assert out == ref_grow(state, j, p)
        resumed += state[3] > 0
        return out

    for a in corpus:
        monkeypatch.setattr(nilpotency, "_grow", checked)
        scan = find_cube_nilpotent(a)
        monkeypatch.setattr(nilpotency, "_grow", ref_grow)
        assert find_cube_nilpotent(a) == scan
        monkeypatch.undo()
        assert ref_find_cube_nilpotent(a) == scan
        found += scan.element is not None
    assert 0 < found < len(corpus) and resumed >= 100


def test_cube_scan_eliminates_only_expanded_children(monkeypatch):
    # With no vanishing minor, one elimination step per subset that has
    # children (those without the last index): 2^(n-1) - 1 of the 2^n - 1.
    rng = random.Random(45)
    n, scanned = 10, 0
    while scanned < 3:
        a = random_perfect(rng, GF(10007), n)
        if ref_find_cube_nilpotent(a).minor_indices is not None:
            continue
        steps = counting(monkeypatch, nilpotency, "_schur")
        scan = find_cube_nilpotent(a)
        monkeypatch.undo()
        assert scan == CubeNilpotentScan(None, None, False, 2 ** n - 1)
        assert len(steps) == 2 ** (n - 1) - 1 == 511
        scanned += 1
    # A zero diagonal entry M[i][i] ends the scan at {i}, with the witness
    # e_i, before any step: every earlier subset of size one is decided by
    # its own diagonal entry.
    exits = 0
    for field in (QQ, GF(3)):
        for n in range(2, 13):
            a = random_perfect(rng, field, n)
            i = rng.randrange(n)
            rows = [list(row) for row in a.M.plain]
            for k in range(n):
                rows[k][k] = 0 if k == i else rows[k][k] or 1
            a = EvolutionAlgebra(field, rows)
            if not a.is_perfect():
                continue
            exits += 1
            steps = counting(monkeypatch, nilpotency, "_schur")
            scan = find_cube_nilpotent(a)
            monkeypatch.undo()
            assert scan.minor_indices == (i,) and scan.minors == i + 1
            assert scan.element == a.unit(i) and not steps
            assert scan == ref_find_cube_nilpotent(a)
    assert exits >= 16


def test_cube_scan_singular_prefixes(monkeypatch):
    # {1, 2} vanishes without a witness: its kernel line (4, -1) has no
    # rational square roots, so the children of {1, 2} go on eliminating
    # with its rows and columns waiting for a pivot.
    a = EvolutionAlgebra(QQ, [[1, 4, 0, 0],
                              [-1, -4, 1, 0],
                              [0, 1, 1, 0],
                              [0, 0, 0, 1]])
    # Every 2 x 2 principal minor inside {1, 2, 3} vanishes without a
    # witness (kernel lines (1, -1)), so {1, 2, 3} has no nonsingular
    # prefix.
    b = EvolutionAlgebra(QQ, [[1, 1, 1, 0, 0],
                              [1, 1, 1, 1, 0],
                              [1, 1, 1, 0, 1],
                              [1, 0, 0, 1, 1],
                              [0, 1, 0, 1, 2]])
    assert a.M.det() and b.M.det()
    expected_a, passed_a = minor_per_subset_scan(a)
    expected_b, passed_b = minor_per_subset_scan(b)
    assert passed_a == [(0, 1), (0, 1, 3)]
    assert passed_b[:4] == [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
    minor_calls = counting(monkeypatch, Matrix, "minor")
    det_calls = counting(monkeypatch, Matrix, "det")
    assert find_cube_nilpotent(a)._replace(minors=0) == expected_a
    assert find_cube_nilpotent(b)._replace(minors=0) == expected_b
    # No determinant inside the scan: one det per scan, the perfectness
    # check on M itself.
    assert not minor_calls and [m for m, in det_calls] == [a.M, b.M]


def multiples_reference(field, kern):
    """Reference for p > 7: every multiple c * b, c = 1..p-1, of every
    kernel basis vector b, as plain values like _kernel_candidates."""
    for b in kern.basis:
        for c in range(1, field.p):
            yield field.unbox([field(c) * x for x in b])


def character(field, b):
    """The quadratic characters of the nonzero entries of b."""
    return {field.sqrt(x) is not None for x in b if x}


def test_kernel_candidates_match_all_multiples(monkeypatch):
    # Random perfect algebras with a 2 x 2 principal block forced singular
    # (row j of the block k times row i), so kernel lines of mixed
    # character occur next to all-square ones.
    rng = random.Random(43)
    witnesses = mixed = blocks = 0
    for field in (GF(11), GF(13), GF(101)):
        for _ in range(150):
            n = rng.randint(2, 4)
            rows = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            k = rng.randrange(1, field.p)
            rows[j][i], rows[j][j] = k * rows[i][i], k * rows[i][j]
            a = EvolutionAlgebra(field, rows)
            if not a.is_perfect():
                continue
            for size in range(1, n + 1):
                for gamma in combinations(range(n), size):
                    if a.M.minor(gamma, gamma):
                        continue
                    witness = cube_witness_from_minor(a, gamma)
                    monkeypatch.setattr(nilpotency, "_kernel_candidates",
                                        multiples_reference)
                    assert witness == cube_witness_from_minor(a, gamma), (rows, gamma)
                    monkeypatch.undo()
                    blocks += 1
                    witnesses += witness is not None
                    for b in a.M.submatrix(gamma, gamma).kernel().basis:
                        # The premise of trying b alone: a leading 1.
                        assert next(x for x in b if x) == 1
                        mixed += len(character(field, b)) == 2
    assert blocks >= 200 and witnesses and mixed


def test_kernel_candidates_one_per_basis_vector(monkeypatch):
    # The {1, 2} block vanishes with kernel line (-1, 1), of mixed character
    # since -1 is a non-residue for p = 3 mod 4; the scan once tried all
    # p - 1 multiples of it.
    field = GF(1000000007)
    a = EvolutionAlgebra(field, [[1, 1, 0], [1, 1, 1], [1, 0, 1]])
    tried = []
    original = nilpotency._kernel_candidates

    def counted(field, kern):
        candidates = list(original(field, kern))
        tried.append((len(candidates), kern.dim))
        return iter(candidates)

    monkeypatch.setattr(nilpotency, "_kernel_candidates", counted)
    scan = find_cube_nilpotent(a)
    assert scan.minor_indices == (0, 1) and scan.element is None
    assert tried and all(count == dim for count, dim in tried)


def all_combinations_reference(field, kern):
    """_kernel_candidates as it was for Q and p <= 7: every nonzero
    combination of the RREF basis with coefficients -2..2 or 0..p-1."""
    basis = kern.plain
    coefficients = range(-2, 3) if field.p is None else range(field.p)
    for coeffs in product(coefficients, repeat=len(basis)):
        if any(coeffs):
            yield [field.reduce(sum(c * b[k] for c, b in zip(coeffs, basis)))
                   for k in range(len(basis[0]))]


def test_kernel_candidates_keep_square_pivot_coefficients():
    # A candidate's entry at a kernel basis vector's pivot is its
    # coefficient, so only square coefficients can give all-square entries;
    # the survivors keep their order.  Over Q that is 0 and 1 of -2..2:
    # 2^4 - 1 candidates of a 4-dimensional kernel instead of 5^4 - 1.
    rows = [[1, 2, 0, -1, 3, 1], [0, 1, 1, 2, -1, 0]] + [[0] * 6] * 4
    for field, squares in ((QQ, 2), (GF(2), 2), (GF(3), 2), (GF(5), 3), (GF(7), 4)):
        kern = Matrix(field, rows).kernel()
        got = list(nilpotency._kernel_candidates(field, kern))
        assert kern.dim == 4 and len(got) == squares ** 4 - 1, field
        assert got == [v for v in all_combinations_reference(field, kern)
                       if all(field.plain_sqrt(v[k]) is not None for k in kern.pivots)]
    assert len(list(all_combinations_reference(QQ, Matrix(QQ, rows).kernel()))) == 624


def test_cube_witness_self_check(monkeypatch):
    # u lives on gamma and u^2 = M beta vanishes on gamma, so u (u u) = 0
    # for every kernel vector beta; a candidate off the kernel must raise.
    a = EvolutionAlgebra(QQ, [[1, 0], [0, 1]])
    monkeypatch.setattr(nilpotency, "_kernel_candidates", lambda field, kern: iter([[1, 1]]))
    with pytest.raises(SelfCheckFailed):
        cube_witness_from_minor(a, (0, 1))
