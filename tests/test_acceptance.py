"""Acceptance suite: worked-example fixtures plus oracle-backed property
sweeps, all at zero tolerance.  Each criterion prints one PASS/FAIL line
(visible with ``pytest -s`` or on failure)."""

import io
import random
from contextlib import redirect_stdout

import pytest

from evoalg.adjoint import (PERSISTENT, TRANSIENT, adjoint_annihilator,
                            adjoint_invariants, classify_generators,
                            is_irreducible, zeroth_decomposition)
from evoalg.algebra import EvolutionAlgebra, check_algebra_homomorphism
from evoalg.cli import main as cli_main
from evoalg.errors import NotPerfect
from evoalg.fields import GF, QQ
from evoalg.generate import random_algebra
from evoalg.ideals import (is_basic_ideal, is_basic_simple, is_basic_simple_relative,
                           is_simple, reversed_digraph)
from evoalg.linalg import Subspace
from evoalg.natural import (decompose, decomposition_for_basis, extend_family,
                            has_unique_natural_basis)
from evoalg.nilpotency import (find_orthogonality_witness, nilpotency_report,
                               power_spaces, product_space)
from evoalg.oracles import enumerate_natural_bases, run_oracle


def natural_bases(algebra):
    """Every natural basis of a GF(p) algebra: the oracles' enumeration on
    its integer structure matrix."""
    return enumerate_natural_bases(algebra.M.plain, algebra.field.p)


def _report(num, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"[ACCEPTANCE] criterion {num} ({desc}): FAIL")
        raise
    print(f"[ACCEPTANCE] criterion {num} ({desc}): PASS")


def _assert_no_mismatches(name, p, dim, samples):
    report = run_oracle(name, p, dim, samples=samples)
    assert report.mismatches == (), (name, p, dim, report.mismatches[:3])
    return report.checked


# ----------------------------------------------------------- criterion 1


def _fixture_checks():
    # Four dimensional algebra whose ideal closure of {e1, e2, e3} is all of A.
    a = EvolutionAlgebra(QQ, [[1, 1, 0, 0], [0, 0, 0, 0],
                              [0, 1, 0, 1], [0, 0, 1, 0]])
    assert a.ideal_closure([a.unit(0), a.unit(1), a.unit(2)]) == \
        Subspace.full(QQ, 4)

    # Algebra homomorphism whose image line is not spanned by a natural vector.
    b = EvolutionAlgebra(QQ, [[1, -1], [1, -1]])
    assert check_algebra_homomorphism(b, b, [[1, -1], [1, -1]])
    from evoalg.natural import is_natural_vector
    assert not is_natural_vector(b, [1, 1])

    # Two natural bases, same annihilator and component count, different parts.
    c = EvolutionAlgebra(QQ, [[0, 0, 0], [0, 1, 0], [0, 0, 1]])
    basis1 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    basis2 = [[1, 0, 0], [1, 1, 0], [0, 0, 1]]
    ann1, comps1, _ = decomposition_for_basis(c, basis1)
    ann2, comps2, _ = decomposition_for_basis(c, basis2)
    assert ann1 == ann2 and ann1.dim == 1
    assert len(comps1) == len(comps2) == 2
    assert set(comps1) != set(comps2)

    # Dim-4 nilpotent algebra: A^[2] = A^2, A^3 and right powers.
    d = EvolutionAlgebra(QQ, [[0, 0, 1, 0], [0, 0, 1, 0],
                              [0, 0, 0, 0], [1, -1, 0, 0]])
    span_e12_e4 = Subspace.from_vectors(QQ, 4, [[1, 1, 0, 0], [0, 0, 0, 1]])
    two = power_spaces(d, 2)
    assert two.principal == span_e12_e4 and two.solvable == span_e12_e4
    assert power_spaces(d, 3).principal == Subspace.from_vectors(
        QQ, 4, [[0, 0, 0, 1]])
    assert power_spaces(d, 4).right.dim == 0

    # Chain type [1, 1, 1] with vanishing fourth right power.
    e = EvolutionAlgebra(QQ, [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    assert nilpotency_report(e).type_sequence == (1, 1, 1)
    assert power_spaces(e, 4).right.dim == 0

    # Non-perfect 2-dim algebra: a zero triple exists although no block of
    # the minor test vanishes; the minor test itself refuses to run.
    f = EvolutionAlgebra(QQ, [[1, 1], [1, 1]])
    u, v = f.element([1, -1]), f.element([1, 0])
    assert (u * (v * v)).is_zero()
    with pytest.raises(NotPerfect):
        find_orthogonality_witness(f)

    # Singular 3-dim algebra that is basic simple but not simple.
    g = EvolutionAlgebra(GF(5), [[0, 1, 1], [1, 0, 1], [1, 1, 2]])
    assert not g.M.det()
    assert is_basic_simple_relative(g)
    assert is_basic_simple(g) is True
    assert not is_simple(g)

    # Relative basic simplicity lost after a change of basis.
    h = EvolutionAlgebra(GF(5), [[1, 1, 2], [1, 1, 2], [1, 1, 2]])
    assert is_basic_simple_relative(h)
    assert is_basic_simple(h) is False
    rebased = h.change_basis([[1, 1, 0], [1, 4, 0], [0, 0, 1]])
    assert is_basic_ideal(rebased, Subspace.coordinate(rebased.field, rebased.n, [0, 2]))

    # Adjoint annihilator dimension depends on the basis: 0 vs 1.
    k = EvolutionAlgebra(GF(5), [[1, 1, 1], [1, 1, 1], [1, 1, 0]])
    k_rebased = k.change_basis([[1, 1, 0], [1, 4, 0], [0, 0, 1]])
    assert adjoint_annihilator(k).dim == 0
    assert adjoint_annihilator(k_rebased).dim == 1

    # Unique-basis asymmetry between an algebra and its adjoint.
    m = EvolutionAlgebra(QQ, [[1, 1, 2], [1, 1, 4], [1, 1, 7]])
    assert has_unique_natural_basis(m) is False
    assert has_unique_natural_basis(m.adjoint()) is True

    # Persistent/transient verdicts in both bases.
    assert [c.verdict for c in classify_generators(k)] == [TRANSIENT] * 3
    assert [c.verdict for c in classify_generators(k_rebased)] == \
        [PERSISTENT, TRANSIENT, PERSISTENT]


def test_criterion_01_paper_fixtures():
    _report(1, "worked-example fixtures", _fixture_checks)


# ----------------------------------------------------------- criterion 2


def test_criterion_02_natural_vector_oracle():
    def check():
        total = 0
        for p in (2, 3):
            for dim in (2, 3):
                total += _assert_no_mismatches("natural-vectors", p, dim, 2000)
        assert total >= 2000

    _report(2, "natural-vector criterion vs exhaustive search", check)


# ----------------------------------------------------------- criterion 3


def _decomposition_invariants(a):
    from evoalg.nilpotency import product_space
    dec = decompose(a)
    assert dec.annihilator == a.annihilator()
    covered = set()
    for idx in dec.component_indices:
        assert not covered & set(idx)
        covered.update(idx)
    ann_indices = {i for i in range(a.n) if not any(a.M.column(i))}
    assert covered | ann_indices == set(range(a.n))
    assert dec.annihilator.dim + sum(c.dim for c in dec.components) == a.n
    assert dec.square_dim == a.square_space().dim
    for i, comp in enumerate(dec.components):
        assert product_space(a, comp, comp).dim == 1
        for j in range(i + 1, len(dec.components)):
            other = dec.components[j]
            assert product_space(a, comp, other).dim == 0
            both = product_space(a, comp, comp) + product_space(a, other, other)
            assert both.dim == 2


def test_criterion_03_decomposition_suite():
    def check():
        rng = random.Random(103)
        for _ in range(1000):
            _decomposition_invariants(random_algebra(QQ, rng.randint(1, 4),
                                                     rng=rng))
        for _ in range(1000):
            a = random_algebra(GF(5), rng.randint(1, 3), rng=rng)
            _decomposition_invariants(a)
            if not a.is_nondegenerate():
                continue
            reference = None
            for basis in natural_bases(a):
                ann, comps, _ = decomposition_for_basis(a, basis)
                assert ann.dim == 0
                key = frozenset(comps)
                reference = key if reference is None else reference
                assert key == reference

    _report(3, "decomposition invariants and uniqueness", check)


# ----------------------------------------------------------- criterion 4


def _component_lambdas(algebra, indices, line_key):
    """The lambda_i of e_i^2 = lambda_i l for the class line l, read at the
    line's first nonzero entry."""
    pivot = next(k for k, x in enumerate(line_key) if x)
    return [algebra.M.column(i)[pivot] for i in indices]


def _bilinear(field, lambdas, x, y):
    return sum((l * a * b for l, a, b in zip(lambdas, x, y)), field.zero)


def _random_orthogonal_family(a, rng):
    field = a.field
    dec = decompose(a)
    family = []
    for ci, idx in enumerate(dec.component_indices):
        lambdas = _component_lambdas(a, idx, dec.component_squares[ci])
        chosen = []
        want = rng.randint(0, len(idx))
        for _ in range(40):
            if len(chosen) >= want:
                break
            if field is QQ:
                v = [field(rng.randint(-3, 3)) for _ in idx]
            else:
                v = [field(rng.randrange(field.p)) for _ in idx]
            for c in chosen:
                f = _bilinear(field, lambdas, v, c) / _bilinear(field, lambdas, c, c)
                v = [x - f * y for x, y in zip(v, c)]
            if not any(v) or not _bilinear(field, lambdas, v, v):
                continue
            chosen.append(v)
        for v in chosen:
            coords = [field.zero] * a.n
            for pos, x in zip(idx, v):
                coords[pos] = x
            family.append(a.element(coords))
    return family


def test_criterion_04_extension_suite():
    def check():
        rng = random.Random(104)
        done = 0
        while done < 500:
            field = (QQ, GF(5), GF(7))[done % 3]
            a = random_algebra(field, rng.randint(1, 4), rng=rng,
                               nondegenerate=True)
            family = _random_orthogonal_family(a, rng)
            result = extend_family(a, family)
            assert a.verify_natural_basis(result.completed_basis)
            assert result.completed_basis[:len(family)] == tuple(family)
            done += 1

    _report(4, "orthogonal families extend to natural bases", check)


# ----------------------------------------------------------- criterion 5


def test_criterion_05_minor_condition():
    def check():
        checked = _assert_no_mismatches("minor-condition", 3, 2, 2000)
        checked += _assert_no_mismatches("minor-condition", 3, 3, 2000)
        assert checked >= 2000

    _report(5, "triple products vs vanishing-minor condition", check)


# ----------------------------------------------------------- criterion 6


def test_criterion_06_cube_nilpotents_gf2():
    def check():
        _assert_no_mismatches("cube-nilpotent", 2, 2, 2000)
        _assert_no_mismatches("cube-nilpotent", 2, 3, 2000)

    _report(6, "cube nilpotents vs principal minors over GF(2)", check)


# ----------------------------------------------------------- criterion 7


def test_criterion_07_ideal_lattice():
    def check():
        checked = 0
        for p in (2, 3):
            for dim in (2, 3):
                # Small cells are exhausted (GF(2) dim 2 has only a handful
                # of perfect matrices); GF(3) dim 3 supplies the volume.
                checked += _assert_no_mismatches("ideal-lattice", p, dim, 400)
        assert checked >= 500

    _report(7, "perfect ideal lattice vs subspace enumeration", check)


# ----------------------------------------------------------- criterion 8


def test_criterion_08_adjoint_invariants():
    def check():
        rng = random.Random(108)
        for field in (QQ, GF(5)):
            for _ in range(500):
                a = random_algebra(field, rng.randint(1, 4), rng=rng)
                inv = adjoint_invariants(a)
                assert inv.all_agree and inv.subalgebra_complements_ok
                # Reference: the invariants and the digraph of the adjoint
                # algebra itself, whose digraph reverses A's.
                adj = a.adjoint()
                assert inv.irreducible == (is_irreducible(a), is_irreducible(adj))
                assert inv.simple == (is_simple(a), is_simple(adj))
                assert inv.basic_simple_relative == (is_basic_simple_relative(a),
                                                     is_basic_simple_relative(adj))
                assert inv.nilpotent == (nilpotency_report(a).is_nilpotent,
                                         nilpotency_report(adj).is_nilpotent)
                assert list(adj.digraph) == reversed_digraph(a.digraph)
                # The zero rows of M span the adjoint's annihilator, and A^2
                # annihilates that span.
                ann = adjoint_annihilator(a)
                assert ann == a.adjoint().annihilator()
                assert product_space(a, a.square_space(), ann).dim == 0
                if ann.dim > 0 and is_irreducible(a):
                    dec = zeroth_decomposition(a)
                    assert dec.transient_span.contains_subspace(ann)
                    for i in range(a.n):
                        if not any(a.M.row(i)):
                            assert i in dec.transient_indices

    _report(8, "adjoint invariance and annihilator containment", check)


# ----------------------------------------------------------- criterion 9


def test_criterion_09_nilpotency_equivalences():
    def check():
        for p in (2, 3):
            for dim in (2, 3):
                _assert_no_mismatches("nilpotency", p, dim, 2000)

    _report(9, "nilpotency chain vs powers vs exhaustive nil", check)


# ----------------------------------------------------------- criterion 10


CLI_FIXTURES = {
    "ex59.alg": "field gf 5\ndim 3\n1 1 1\n1 1 1\n1 1 0\n",
    "dim4.alg": "field q\ndim 4\n0 0 1 0\n0 0 1 0\n0 0 0 0\n1 -1 0 0\n",
    "perfect.alg": "field q\ndim 3\n1 1 0\n0 1 0\n0 0 1\n",
    "basis.txt": "1 1 0\n1 4 0\n0 0 1\n",
}

CLI_COMMANDS = [
    ["analyze", "ex59.alg"],
    ["analyze", "--json", "dim4.alg"],
    ["natural", "ex59.alg", "--vector", "1 0 0"],
    ["natural", "ex59.alg", "--unique"],
    ["decompose", "ex59.alg"],
    ["decompose", "ex59.alg", "--basis", "basis.txt"],
    ["nilpotency", "dim4.alg"],
    ["minors", "perfect.alg"],
    ["cube-nilpotent", "perfect.alg"],
    ["ideals", "perfect.alg"],
    ["ideals", "ex59.alg"],
    ["simple", "perfect.alg"],
    ["adjoint", "ex59.alg"],
    ["adjoint", "--emit", "ex59.alg"],
    ["classify", "ex59.alg"],
    ["classify", "ex59.alg", "--basis", "basis.txt"],
    ["hierarchy", "ex59.alg"],
    ["random", "--field", "gf 7", "--dim", "3", "--seed", "9"],
    ["random", "--field", "q", "--dim", "2", "--seed", "9", "--json"],
    ["oracle", "natural-vectors", "--field", "gf 2", "--dim", "2",
     "--samples", "16"],
]


def _run_cli_suite(tmp_path):
    chunks = []
    for argv in CLI_COMMANDS:
        argv = [str(tmp_path / arg) if arg in CLI_FIXTURES else arg
                for arg in argv]
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        chunks.append(f"exit={code}\n{buf.getvalue()}")
    return "".join(chunks).encode()


def test_criterion_10_cli_determinism(tmp_path):
    def check():
        for name, text in CLI_FIXTURES.items():
            (tmp_path / name).write_text(text)
        first = _run_cli_suite(tmp_path)
        second = _run_cli_suite(tmp_path)
        assert first == second and first

    _report(10, "byte-identical CLI reports across runs", check)
