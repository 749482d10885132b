"""Power spaces, nilpotency reports, vanishing-minor witnesses."""

import random
from itertools import combinations
from math import comb

import pytest

from evoalg import nilpotency
from evoalg.algebra import Element, EvolutionAlgebra
from evoalg.errors import InvalidArgument, NotPerfect, SelfCheckFailed
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


def test_nilpotency_report_dim4():
    rep = nilpotency_report(dim4_example())
    assert rep.is_nilpotent
    assert rep.ann_chain_indices == (frozenset({3}), frozenset({0, 1, 3}),
                                     frozenset({0, 1, 2, 3}))
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


def test_witness_self_check(monkeypatch):
    # M[0][0] = 0, so ({1}, {1}) is a vanishing pair; a product that is
    # reported nonzero must raise rather than pass silently.
    a = EvolutionAlgebra(QQ, [[0, 1], [1, 0]])
    assert _witness_for_pair(a, (0,), (0,)) is not None
    monkeypatch.setattr(Element, "is_zero", lambda self: False)
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
    computation each, in the order of the fast scan."""
    n = algebra.n
    cap = min(n, 12 if max_subset_size is None else max_subset_size)
    for gsize in range(1, cap + 1):
        for gamma in combinations(range(n), gsize):
            for osize in range(1, cap + 1):
                for omega in combinations(range(n), osize):
                    witness = _witness_for_pair(algebra, gamma, omega)
                    if witness is not None:
                        return OrthogonalityScan(witness, False, cap)
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


def random_perfect(rng):
    field = rng.choice([QQ, GF(2), GF(3), GF(5), GF(101)])
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
        assert scan == expected
        assert scan.minors <= sum(comb(a.n, k) ** 2 for k in range(1, scan.max_subset_size + 1))
        assert len(calls) == (scan.witness is not None)
        hits += scan.witness is not None
        late += scan.witness is not None and len(scan.witness.gamma) > 1
        none += scan.witness is None
    assert hits and late and none


def test_cube_scan_matches_minor_per_subset(monkeypatch):
    rng = random.Random(42)
    passed_over = later_witness = 0
    for _ in range(1200):
        a = random_perfect(rng)
        expected, passed = minor_per_subset_scan(a)
        fallbacks = counting(monkeypatch, Matrix, "minor")
        scan = find_cube_nilpotent(a)
        monkeypatch.undo()
        assert scan == expected
        assert scan.minors <= 2 ** a.n - 1
        # A minor is computed afresh only below a vanishing prefix.
        for _, gamma, _ in fallbacks:
            assert any(gamma[:m] in passed for m in range(1, len(gamma)))
        passed_over += bool(passed)
        later_witness += bool(passed) and scan.element is not None
    assert passed_over and later_witness


def test_cube_scan_singular_prefixes(monkeypatch):
    # {1, 2} vanishes without a witness: its kernel line (4, -1) has no
    # rational square roots.  {1, 2, 3} is bordered from {1, 3} instead of
    # its prefix; {1, 2, 4} has no other kept block (blocks that end at the
    # last index are not kept), so its minor is computed afresh.
    a = EvolutionAlgebra(QQ, [[1, 4, 0, 0],
                              [-1, -4, 1, 0],
                              [0, 1, 1, 0],
                              [0, 0, 0, 1]])
    # Every 2 x 2 principal minor inside {1, 2, 3} vanishes without a
    # witness (kernel lines (1, -1)), so {1, 2, 3} has no nonsingular block
    # to border.
    b = EvolutionAlgebra(QQ, [[1, 1, 1, 0, 0],
                              [1, 1, 1, 1, 0],
                              [1, 1, 1, 0, 1],
                              [1, 0, 0, 1, 1],
                              [0, 1, 0, 1, 2]])
    assert a.is_perfect() and b.is_perfect()
    expected_a, passed_a = minor_per_subset_scan(a)
    expected_b, passed_b = minor_per_subset_scan(b)
    assert passed_a == [(0, 1), (0, 1, 3)]
    assert passed_b[:4] == [(0, 1), (0, 2), (1, 2), (0, 1, 2)]
    fallbacks = counting(monkeypatch, Matrix, "minor")
    assert find_cube_nilpotent(a) == expected_a
    assert [gamma for _, gamma, _ in fallbacks] == [(0, 1, 3)]
    fallbacks.clear()
    assert find_cube_nilpotent(b) == expected_b
    assert fallbacks[0][1] == (0, 1, 2)


def multiples_reference(field, kern):
    """Reference for p > 7: every multiple c * b, c = 1..p-1, of every
    kernel basis vector b."""
    for b in kern.basis:
        for c in range(1, field.p):
            yield [field(c) * x for x in b]


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
