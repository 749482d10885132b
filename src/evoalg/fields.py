"""Exact scalar arithmetic over Q and GF(p), including square roots.

Rational scalars are ``fractions.Fraction`` (canonical lowest terms,
positive denominator).  Prime-field scalars are :class:`Mod` instances,
residues reduced modulo p.  Field descriptors (:data:`QQ`, :func:`GF`)
coerce, render and take square roots of their scalars.

Matrices, subspaces and elements store plain values instead: canonical
residues over GF(p); over Q an ``int`` whenever the value is an integer
and a ``Fraction`` (denominator > 1) only otherwise.  :func:`rational`
decides that form, and no other module names ``Fraction``.  Ints and
Fractions mix exactly, compare and hash equal and print the same ``str``,
so integer inputs stay on Python ints and no consumer needs a second
path.  A descriptor supplies what they need: ``parse`` of a file token
and ``reduce``, ``inv`` and ``plain_sqrt`` of plain values, all
returning plain values; ``unbox`` of
public scalars (with the same FieldMismatch checks as coercion); and
``box``, which the three boxing views (``Matrix.data``, ``Subspace.basis``
and ``Element.coords``) apply to a plain value when a caller reads it.
Reports print a plain value as its ``str``, which is what ``render``
gives for the boxed scalar.
This module handles scalars only.  Every row kernel (elimination,
reduction, canonical row multiples, integer scaling) lives in ``linalg``
and reads a field only through its modulus ``p``, None over Q.

There is no floating-point path anywhere in this package.
"""

from fractions import Fraction
from math import isqrt

from .errors import DivisionByZero, FieldMismatch, NonPrimeModulus, ParseError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 2**64; False above, where
    the composite 318665857834031151167461 passes all twelve bases."""
    if not 2 <= n < 1 << 64:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Mod:
    """Residue modulo a prime p with exact field arithmetic."""

    __slots__ = ("r", "p")

    def __init__(self, r, p):
        self.r = r % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Mod):
            if other.p != self.p:
                raise FieldMismatch(f"GF({self.p}) vs GF({other.p})")
            return other
        if isinstance(other, int):
            return Mod(other, self.p)
        raise FieldMismatch(f"cannot mix GF({self.p}) with {type(other).__name__}")

    def __add__(self, other):
        return Mod(self.r + self._coerce(other).r, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        return Mod(self.r - self._coerce(other).r, self.p)

    def __rsub__(self, other):
        return Mod(self._coerce(other).r - self.r, self.p)

    def __mul__(self, other):
        return Mod(self.r * self._coerce(other).r, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Mod(-self.r, self.p)

    def inverse(self):
        if self.r == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.p})")
        return Mod(pow(self.r, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k):
        if k < 0 and self.r == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.p})")
        return Mod(pow(self.r, k, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, Mod):
            return self.p == other.p and self.r == other.r
        if isinstance(other, int):
            # Only the canonical residue: equal objects must hash equally.
            return self.r == other
        return NotImplemented

    def __hash__(self):
        return hash(self.r)

    def __bool__(self):
        return self.r != 0

    def __repr__(self):
        return f"Mod({self.r}, {self.p})"


def parse_count(text):
    """The int of a nonempty string of ASCII decimal digits; None for any
    other string and past int()'s digit limit.  str.isdecimal alone also
    takes other scripts' digits, which int() would read."""
    try:
        return int(text) if text.isascii() and text.isdecimal() else None
    except ValueError:   # more digits than int() converts
        return None


def _parse_int(text):
    # On an ASCII token without "_", int() takes exactly [+-]?[0-9]+ once
    # stripped.
    t = text.strip()
    if t.isascii() and "_" not in t:
        try:
            return int(t)
        except ValueError:   # not that form, or more digits than int() converts
            pass
    raise ParseError(f"bad integer {text!r}")


def rational(num, den):
    """The canonical plain rational num / den, for ints num and den != 0:
    an int when den divides num, else a Fraction in lowest terms."""
    if den == 1:
        return num
    q, r = divmod(num, den)
    return Fraction(num, den) if r else q


class _Field:
    """What both descriptors define alike, through their own box, unbox
    and plain_sqrt."""

    @property
    def zero(self):
        return self.box(0)

    @property
    def one(self):
        return self.box(1)

    def sqrt(self, a):
        """A square root of the scalar a, boxed, or None when a is not a
        square: over Q the one >= 0, over GF(p) the smaller residue."""
        r = self.plain_sqrt(self.unbox([a])[0])
        return None if r is None else self.box(r)

    def render(self, a):
        return str(self.unbox([a])[0])


class Rationals(_Field):
    """Field descriptor for Q (arbitrary-precision rationals)."""

    p = None

    def __call__(self, x, y=None):
        if type(x) is Fraction and y is None:
            return x
        # Only exact rationals: Fraction() would also take a float, a
        # Decimal or a string.
        for a in (x,) if y is None else (x, y):
            if isinstance(a, Mod):
                raise FieldMismatch("GF(p) scalar used where a rational was expected")
            if not isinstance(a, (int, Fraction)):
                raise FieldMismatch(f"cannot coerce {type(a).__name__} into Q")
        if y == 0:
            raise DivisionByZero("division by zero in Q")
        return Fraction(x) if y is None else Fraction(x, y)

    def reduce(self, x):
        """The canonical form of a plain value: a Fraction of denominator 1
        (from arithmetic on Fractions) becomes its int."""
        return x if type(x) is int or x.denominator != 1 else x.numerator

    def inv(self, x):
        return rational(x.denominator, x.numerator)

    def box(self, x):
        # Plain values are ints and Fractions; a float would come from a
        # stray / on ints and is refused.
        if type(x) is Fraction:
            return x
        if type(x) is int:
            return Fraction(x)
        raise TypeError(f"not an exact rational: {x!r}")

    def unbox(self, v):
        # Anything but an int or a Fraction goes through the checks of
        # coercion (a bool or a subclass comes back as a Fraction).
        reduce = self.reduce
        return [reduce(x if type(x) is int or type(x) is Fraction else self(x)) for x in v]

    def plain_sqrt(self, a):
        """sqrt of the plain rational a, as a plain value: isqrt of its
        numerator and denominator."""
        if a < 0:
            return None
        num, den = a.numerator, a.denominator
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn == num and rd * rd == den:
            return rational(rn, rd)
        return None

    def parse(self, text):
        t = text.strip()
        if "/" in t:
            num, _, den = t.partition("/")
            d = _parse_int(den)
            if d == 0:
                raise ParseError(f"zero denominator in {text!r}")
            return rational(_parse_int(num), d)
        return _parse_int(t)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"


class PrimeField(_Field):
    """Field descriptor for GF(p), p prime."""

    def __init__(self, p):
        if isinstance(p, int) and p >= 1 << 64:
            raise NonPrimeModulus(f"{p!r} is not below 2**64, the limit of the primality test")
        if not isinstance(p, int) or not is_prime(p):
            raise NonPrimeModulus(f"{p!r} is not prime")
        self.p = p

    def __call__(self, x):
        if isinstance(x, Mod):
            if x.p != self.p:
                raise FieldMismatch(f"GF({self.p}) vs GF({x.p})")
            return x
        if isinstance(x, int):
            return Mod(x, self.p)
        if isinstance(x, Fraction):
            raise FieldMismatch(f"rational scalar used where GF({self.p}) was expected")
        raise FieldMismatch(f"cannot coerce {type(x).__name__} into GF({self.p})")

    def reduce(self, x):
        return x % self.p

    def inv(self, x):
        return pow(x, -1, self.p)

    def box(self, x):
        return Mod(x, self.p)

    def unbox(self, v):
        p = self.p
        return [x % p if isinstance(x, int) else self(x).r for x in v]

    def plain_sqrt(self, a):
        """sqrt of the residue a, as a residue."""
        p = self.p
        if a == 0 or p == 2:
            return a
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        r = _tonelli_shanks(a, p)
        return min(r, p - r)

    def parse(self, text):
        return _parse_int(text) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("gf", self.p))

    def __repr__(self):
        return f"GF({self.p})"


def _tonelli_shanks(a, p):
    """Square root of the quadratic residue a modulo odd prime p."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t = t * c % p
        r = r * b % p
    return r


QQ = Rationals()

_GF_CACHE = {}


def GF(p):
    # Any p but an int is built before the cache is read: 5.0 and
    # Fraction(5) compare and hash like 5, and PrimeField refuses them.
    if type(p) is int and p in _GF_CACHE:
        return _GF_CACHE[p]
    return _GF_CACHE.setdefault(p, PrimeField(p))


def parse_field(text):
    """Field spec grammar: 'q' or 'gf <p>' (also 'gf<p>' / 'gf(<p>)'), with
    optional spaces inside one balanced pair of parentheses."""
    t = text.strip().lower()
    if t in ("q", "qq", "rationals"):
        return QQ
    if t.startswith("gf"):
        p = t[2:].strip()
        p = parse_count(p[1:-1].strip() if p[:1] == "(" and p[-1:] == ")" else p)
        if p is not None:
            try:
                return GF(p)
            except NonPrimeModulus as exc:
                raise ParseError(f"bad field spec {text!r}: {exc}") from None
    raise ParseError(f"bad field spec {text!r}")


def render_field(field):
    return "q" if field == QQ else f"gf {field.p}"
