"""Exact scalar arithmetic over Q and GF(p)."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from evoalg.errors import (DivisionByZero, EvoAlgError, FieldMismatch, NonPrimeModulus,
                           ParseError)
from evoalg.algebra import EvolutionAlgebra
from evoalg.cli import main
from evoalg.fields import (GF, QQ, Mod, is_prime, parse_field, render_field)
from evoalg.linalg import Matrix


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-2, 42):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2**31 - 1)
    assert not is_prime(2**31)
    # Carmichael number: composite that fools Fermat tests.
    assert not is_prime(561)


def test_is_prime_matches_trial_division():
    sieve = [False, False] + [True] * (2 * 10**4 - 2)
    for i in range(2, 142):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [n for n in range(2 * 10**4) if is_prime(n)] == [n for n, q in enumerate(sieve) if q]


def test_is_prime_rejects_composites_without_a_small_factor():
    # No factor up to 37, so each reaches the witness loop: 41^2, 41 * 43,
    # the Carmichael number 41 * 61 * 101, the strong pseudoprime to the
    # bases 2, 3, 5, 7 that is 151 * 751 * 28351, and the one to the bases
    # 2, ..., 23 that is 149491 * 747451 * 34233211.
    composites = (1681, 1763, 252601, 3215031751, 3825123056546413051)
    assert [41 * 41, 41 * 43, 41 * 61 * 101, 151 * 751 * 28351,
            149491 * 747451 * 34233211] == list(composites)
    for n in composites:
        assert not is_prime(n), n
    with pytest.raises(NonPrimeModulus, match="^1763 is not prime$"):
        GF(1763)


# The least strong pseudoprime to the bases 2, 3, ..., 37: 399165290221 *
# 798330580441, above 2**64, where those bases no longer decide.
PSEUDOPRIME = 318665857834031151167461


def test_moduli_above_two_to_the_64_are_refused():
    assert PSEUDOPRIME == 399165290221 * 798330580441 > 2**64
    assert not is_prime(PSEUDOPRIME) and not is_prime(2**89 - 1)
    for p in (PSEUDOPRIME, 2**64 + 13, 2**89 - 1):
        with pytest.raises(NonPrimeModulus, match=r"not below 2\*\*64"):
            GF(p)
        with pytest.raises(ParseError, match=r"not below 2\*\*64"):
            parse_field(f"gf {p}")
    assert is_prime(2**61 - 1) and GF(2**61 - 1).p == 2**61 - 1
    assert parse_field(f"gf({2**61 - 1})") == GF(2**61 - 1)


def test_mod_arithmetic():
    F = GF(7)
    a, b = F(3), F(5)
    assert a + b == F(1)
    assert a - b == F(5)
    assert a * b == F(1)
    assert -a == F(4)
    assert a / b == a * b.inverse()
    assert b.inverse() * b == F.one
    assert 2 + a == F(5) and 2 * a == F(6) and 2 - a == F(6)
    assert a ** 6 == F.one


def test_mod_equality_agrees_with_hash():
    # An int equals a Mod only as its canonical residue, and then the two
    # hash alike, so sets and dicts treat them as one key.
    assert Mod(1, 5) == 1 and hash(Mod(1, 5)) == hash(1)
    assert Mod(1, 5) != 6 and Mod(4, 5) != -1
    assert Mod(1, 5) != Mod(1, 7)
    assert len({Mod(1, 5), 1}) == 1 and len({Mod(1, 5), Mod(6, 5)}) == 1
    assert 1 in {Mod(1, 5)} and Mod(3, 7) in {3: "x"}
    assert {Mod(2, 5): "a"}[2] == "a"
    assert 6 not in {Mod(1, 5)}


def test_mod_errors():
    with pytest.raises(DivisionByZero):
        GF(5)(0).inverse()
    for k in (-1, -3):
        with pytest.raises(DivisionByZero):
            GF(5)(0) ** k
    assert GF(5)(2) ** -1 == GF(5)(2).inverse() == GF(5)(3)
    assert GF(5)(0) ** 0 == GF(5)(1)
    with pytest.raises(FieldMismatch):
        GF(5)(1) + GF(7)(1)
    with pytest.raises(FieldMismatch):
        GF(5)(1) + Fraction(1)
    with pytest.raises(NonPrimeModulus):
        GF(6)
    with pytest.raises(FieldMismatch):
        QQ(Mod(1, 5))
    with pytest.raises(FieldMismatch):
        GF(5)(Fraction(1, 2))
    with pytest.raises(FieldMismatch, match=r"^cannot coerce str into GF\(5\)$"):
        GF(5)("3")
    with pytest.raises(TypeError, match=r"^not an exact rational: 1\.5$"):
        QQ.box(1.5)


def test_gf_refuses_equal_non_int_moduli_after_caching():
    # 5.0 and Fraction(5) compare and hash like 5, so a cache lookup would
    # answer for them once GF(5) exists; the descriptor refuses them.
    assert GF(5).p == 5
    for p in (5.0, Fraction(5)):
        with pytest.raises(NonPrimeModulus, match="is not prime"):
            GF(p)


def test_mod_reflected_division_and_foreign_equality():
    assert 3 / Mod(2, 5) == Mod(4, 5)
    assert (Mod(1, 5) == "1") is False


def test_rational_canonical():
    assert QQ(6, 4) == Fraction(3, 2)
    assert QQ.parse("-3/6") == Fraction(-1, 2)
    assert QQ.render(Fraction(-1, 2)) == "-1/2"
    assert QQ.parse("  7 ") == 7
    with pytest.raises(ParseError):
        QQ.parse("1/0")
    with pytest.raises(ParseError):
        QQ.parse("0.5")
    # Both descriptors parse to plain values: GF(p) to the canonical
    # residue, which boxes to the Mod of the integer; Q to an int for an
    # integer and to a Fraction otherwise (fields.rational).
    big = "1" * 30
    for token, value in (("+3", 3), ("-1", -1), ("007", 7), ("-3/6", Fraction(-1, 2)),
                         ("6/3", 2), ("-4/-2", 2), (big, int(big)), ("-" + big, -int(big))):
        assert QQ.parse(token) == value and type(QQ.parse(token)) is type(value)
        for F in (GF(2), GF(101)):
            if "/" in token:
                with pytest.raises(ParseError, match=f"bad integer '{token}'"):
                    F.parse(token)
                continue
            r = F.parse(token)
            assert type(r) is int and r == value % F.p and F(r) == Mod(value, F.p)
    # Only ASCII digits: int() would also read other scripts' digits.
    for token in ("1.5", "0x1", "1_0", "1/0", "\u0663", "\uff17", "-\u0663"):
        for F in (GF(2), GF(101), QQ):
            with pytest.raises(ParseError) as err:
                F.parse(token)
            assert str(err.value) == ("zero denominator in '1/0'" if (F, token) == (QQ, "1/0")
                                      else f"bad integer {token!r}")
            assert err.value.line is None
    with pytest.raises(ParseError, match="bad integer '\u0662'"):
        QQ.parse("1/\u0662")


def test_rationals_refuse_inexact_scalars():
    # Fraction() would turn 0.5 into 1/2 and 0.1 into 3602879701896397 /
    # 36028797018963968; Q coerces only ints and Fractions.
    for x in (0.5, "1/3", Decimal("0.1")):
        with pytest.raises(FieldMismatch):
            QQ(x)
        with pytest.raises(FieldMismatch):
            QQ(1, x)
    with pytest.raises(FieldMismatch):
        Matrix(QQ, [[0.1]])
    with pytest.raises(FieldMismatch):
        EvolutionAlgebra(QQ, [[0.1]])
    assert QQ(1, 3) == QQ.parse("1/3") == Fraction(1, 3)
    assert QQ(Fraction(2, 4), 3) == Fraction(1, 6) and QQ(True) == 1
    x = Fraction(5, 7)
    assert QQ(x) is x and type(QQ(2)) is Fraction


def test_rational_sqrt():
    assert QQ.sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert QQ.sqrt(Fraction(0)) == 0
    assert QQ.sqrt(Fraction(2)) is None
    assert QQ.sqrt(Fraction(-4)) is None
    r = QQ.sqrt(Fraction(49, 121))
    assert r == Fraction(7, 11) and r >= 0


def test_gf_sqrt_smaller_residue():
    F = GF(7)
    # 3*3 = 2 and 4*4 = 2; the smaller residue wins.
    assert F.sqrt(F(2)) == F(3)
    assert F.sqrt(F(0)) == F(0)
    assert F.sqrt(F(3)) is None
    F13 = GF(13)
    for a in range(13):
        r = F13.sqrt(F13(a))
        if r is not None:
            assert r * r == F13(a)
            assert r.r <= (13 - r.r) % 13 or a == 0
    # p = 2: every element is its own square root.
    assert GF(2).sqrt(GF(2)(1)) == GF(2)(1)


def test_gf_sqrt_tonelli_branch():
    # p % 4 == 1 exercises the full Tonelli-Shanks loop.
    F = GF(17)
    squares = {(x * x) % 17 for x in range(1, 17)}
    for a in range(1, 17):
        r = F.sqrt(F(a))
        if a in squares:
            assert r * r == F(a) and r.r == min(r.r, 17 - r.r)
        else:
            assert r is None


def test_parse_render_field():
    assert parse_field("q") is QQ
    assert parse_field("GF 11") == GF(11)
    assert parse_field("gf(7)") == GF(7)
    assert render_field(QQ) == "q"
    assert render_field(GF(5)) == "gf 5"
    with pytest.raises(ParseError):
        parse_field("r")
    for spec in ("gf \u0667", "gf(\uff17)", "gf 1\u0661"):
        with pytest.raises(ParseError, match="bad field spec"):
            parse_field(spec)


def test_field_spec_takes_one_balanced_pair_of_parentheses(tmp_path, capsys):
    # 'gf <p>', 'gf<p>' and 'gf(<p>)', with spaces inside the pair; an
    # unbalanced or repeated parenthesis is no spec.
    for spec in ("gf(13", "gf 13)", "gf(13))", "gf((3))", "gf()", "gf(", "gf )"):
        with pytest.raises(ParseError, match=re.escape(f"bad field spec {spec!r}")):
            parse_field(spec)
    for spec in ("gf(13)", "gf 13", "gf13", "GF( 13 )", "gf ( 13 )"):
        assert parse_field(spec) == GF(13)
    path = tmp_path / "open.alg"
    path.write_text("field gf(13\ndim 1\n1\n")
    assert main(["analyze", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error [parse-error]: bad field spec 'gf(13' (line 1)\n"


def test_rational_zero_denominator_is_division_by_zero():
    # Like Mod(0, p).inverse(): an EvoAlgError that is still a
    # ZeroDivisionError; the type checks come first.
    for x in (1, Fraction(1, 2), 0):
        with pytest.raises(DivisionByZero):
            QQ(x, 0)
    assert issubclass(DivisionByZero, ZeroDivisionError)
    assert issubclass(DivisionByZero, EvoAlgError)
    with pytest.raises(FieldMismatch):
        QQ(1.5, 0)
    with pytest.raises(FieldMismatch):
        QQ(GF(5)(1), 0)


@given(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40))
def test_gf5_ring_axioms(x, y, z):
    F = GF(5)
    a, b, c = F(x), F(y), F(z)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + F.zero == a and a * F.one == a
    if b:
        assert (a / b) * b == a


@given(st.fractions(max_denominator=30), st.fractions(max_denominator=30))
def test_rational_field_ops(x, y):
    a, b = QQ(x), QQ(y)
    assert a + b - b == a
    if b != 0:
        assert (a / b) * b == a
    assert QQ.parse(QQ.render(a)) == a
