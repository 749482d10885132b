"""Power spaces, nilpotency reports, vanishing-minor witnesses."""

import random

import pytest

from evoalg.algebra import Element, EvolutionAlgebra
from evoalg.errors import NotPerfect, SelfCheckFailed
from evoalg.fields import GF, QQ
from evoalg.generate import random_algebra
from evoalg.linalg import Subspace
from evoalg.nilpotency import (_witness_for_pair, find_cube_nilpotent,
                               find_orthogonality_witness, is_cube_zero,
                               nilpotency_report, power_spaces, product_space)
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
