"""The plain-value kernels behind rref, det, matvec, reduce and closures.

Each kernel runs over canonical residues (GF(p)) or, over Q, ints and
Fractions (an int whenever the value is an integer) and integer-scaled
rows under fraction-free elimination, and the matrices,
subspaces and elements it returns store those plain values; their public
views box them when read.  The scalar-arithmetic loops they replaced (Mod
over GF(p), Fraction over Q) are kept here as references; the kernels must
agree with them, read back as canonical public scalars, box nothing a
caller does not read, and still refuse scalars of another field.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from evoalg import linalg
from evoalg.algebra import Element, EvolutionAlgebra, check_algebra_homomorphism
from evoalg.errors import FieldMismatch
from evoalg.fields import GF, QQ, Mod, rational
from evoalg.generate import random_algebra
from evoalg.linalg import Matrix, Subspace


def test_cross_field_checks():
    A5 = Matrix(GF(5), [[1, 2], [3, 4]])
    B7 = Matrix(GF(7), [[1, 2], [3, 4]])
    a5 = EvolutionAlgebra(GF(5), [[1, 2], [3, 4]])
    a7 = EvolutionAlgebra(GF(7), [[1, 2], [3, 4]])
    identity = [[1, 0], [0, 1]]
    with pytest.raises(FieldMismatch):
        A5 * B7
    with pytest.raises(FieldMismatch):
        B7 * A5
    with pytest.raises(FieldMismatch):
        Matrix(QQ, identity) * A5
    with pytest.raises(FieldMismatch):
        check_algebra_homomorphism(a5, a7, identity)
    with pytest.raises(FieldMismatch):
        check_algebra_homomorphism(a7, a7, Matrix(GF(5), identity))
    with pytest.raises(FieldMismatch):
        a7.element(a5.unit(0).coords)
    with pytest.raises(FieldMismatch):
        B7.matvec(A5.row(0))
    with pytest.raises(FieldMismatch):
        Subspace.full(GF(7), 2).reduce(A5.row(0))
    with pytest.raises(FieldMismatch):
        Subspace.full(GF(7), 2).contains(A5.row(0))
    with pytest.raises(FieldMismatch):
        Subspace.from_vectors(GF(7), 2, [A5.row(0)])
    with pytest.raises(FieldMismatch):
        B7.solve(A5.row(0))
    for closure in (a7.subalgebra_closure, a7.ideal_closure):
        with pytest.raises(FieldMismatch):
            closure([a5.unit(0).coords])
    with pytest.raises(FieldMismatch):
        a7.verify_natural_basis([a5.unit(0).coords, a5.unit(1).coords])
    with pytest.raises(FieldMismatch):
        Matrix(QQ, identity).matvec([GF(5)(1), GF(5)(0)])


# References: the Mod and Fraction loops the kernels replaced, on boxed rows.

def ref_rref(field, data, cols):
    m = [list(row) for row in data]
    pivots = []
    pr = 0
    for pc in range(cols):
        pivot_row = next((i for i in range(pr, len(m)) if m[i][pc]), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = field.one / m[pr][pc]
        m[pr] = [x * inv for x in m[pr]]
        for i in range(len(m)):
            if i != pr and m[i][pc]:
                f = m[i][pc]
                m[i] = [a - f * b for a, b in zip(m[i], m[pr])]
        pivots.append(pc)
        pr += 1
        if pr == len(m):
            break
    return tuple(map(tuple, m)), pr, tuple(pivots)


def ref_det_gauss(field, data):
    n = len(data)
    m = [list(row) for row in data]
    det = field.one
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return field.zero
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det = det * m[k][k]
        inv = field.one / m[k][k]
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def ref_matvec(field, data, v):
    v = [field(x) for x in v]
    return tuple(sum((row[j] * v[j] for j in range(len(v))), field.zero) for row in data)


def ref_reduce(field, basis, pivots, v):
    v = [field(x) for x in v]
    for row, pc in zip(basis, pivots):
        if v[pc]:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, row)]
    return tuple(v)


def ref_closure(algebra, elements, ideal):
    """RREF basis of the closure: all products of the current basis
    (subalgebra) or of the basis with every e_i (ideal), formed by the
    reference matvec and re-reduced by the reference rref, until a round
    adds nothing."""
    field, n = algebra.field, algebra.n

    def span(vectors):
        rows, rank, _ = ref_rref(field, [[field(x) for x in v] for v in vectors], n)
        return list(rows[:rank])

    def times(u, w):
        return ref_matvec(field, algebra.M.data, [a * b for a, b in zip(u, w)])

    basis = span(x.coords if isinstance(x, Element) else x for x in elements)
    units = [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]
    while True:
        partners = units if ideal else basis
        bigger = span(basis + [times(u, w) for u in basis for w in partners])
        if len(bigger) == len(basis):
            return tuple(map(tuple, basis))
        basis = bigger


# GF(1000003) and GF(2**61 - 1): products of residues pass a machine word.
FIELDS = (QQ, GF(2), GF(3), GF(101), GF(1000003), GF(2**61 - 1))


SMALL, INTEGER, HUGE = range(3)


def random_entry(rng, field, size=SMALL):
    """Over Q: a small fraction, an integer, or a fraction with 20 to 25
    digits in numerator and denominator."""
    if field != QQ:
        return field(rng.randrange(field.p))
    if size == INTEGER:
        return Fraction(rng.randint(-4, 4))
    if size == HUGE:
        return Fraction(rng.choice((-1, 0, 1)) * rng.randint(10**20, 10**25),
                        rng.randint(10**20, 10**25))
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_rows(rng, field, rows, cols, size=SMALL):
    """Dense, sparse, rank-deficient or zero rows, chosen at random."""
    kind = rng.randrange(4)
    if kind == 3 or rows == 0:
        return [[field.zero] * cols for _ in range(rows)]
    out = [[random_entry(rng, field, size) if kind != 1 or rng.random() < 0.3 else field.zero
            for _ in range(cols)] for _ in range(rows)]
    if kind == 2 and rows > 1:
        # Rank-deficient: the last row combines the others.
        c = [random_entry(rng, field, size) for _ in range(rows - 1)]
        out[-1] = [sum((a * row[j] for a, row in zip(c, out)), field.zero)
                   for j in range(cols)]
    return out


def shapes(rng):
    """Empty, 1 x n, n x 1, square and random shapes."""
    yield from ((0, 0), (1, 1), (1, rng.randint(2, 6)), (rng.randint(2, 6), 1))
    for _ in range(3):
        n = rng.randint(1, 7)
        yield (n, n)
        yield (rng.randint(1, 7), rng.randint(1, 7))


def assert_canonical(field, values):
    for x in values:
        assert not isinstance(x, float)
        if field == QQ:
            assert type(x) is Fraction
        else:
            assert type(x) is Mod and x.p == field.p and 0 <= x.r < field.p


def test_kernels_match_mod_loops():
    rng = random.Random(71)
    cases = {field: 0 for field in FIELDS}
    full_rank = deficient = 0
    sizes = {size: 0 for size in (SMALL, INTEGER, HUGE)}
    for field in FIELDS:
        for t in range(30):
            size = t % 3 if field == QQ else SMALL
            for rows, cols in shapes(rng):
                data = random_rows(rng, field, rows, cols, size)
                m = Matrix(field, data)
                red, rank, pivots = m.rref()
                ref = ref_rref(field, m.data, cols)
                assert (red.data, rank, pivots) == ref
                assert m.rank() == rank
                assert_canonical(field, [x for row in red.data for x in row])
                full_rank += rank == min(rows, cols) > 0
                deficient += rank < min(rows, cols)
                if rows == cols:
                    det = m.det()
                    assert_canonical(field, [det])
                    assert det == ref_det_gauss(field, m.data)
                v = [random_entry(rng, field, size) for _ in range(cols)]
                assert m.matvec(v) == ref_matvec(field, m.data, v)
                assert_canonical(field, m.matvec(v))
                kernel = m.kernel()
                assert kernel.dim == cols - rank
                assert Subspace.from_vectors(field, cols, kernel.basis) == kernel
                assert_canonical(field, [x for row in kernel.basis for x in row])
                assert not any(x for k in kernel.basis for x in ref_matvec(field, m.data, k))
                x = m.solve(m.matvec(v))
                assert_canonical(field, x)
                assert ref_matvec(field, m.data, x) == m.matvec(v)
                space = Subspace.from_vectors(field, cols, data) if cols else None
                if space is not None:
                    assert space.basis == ref[0][:rank]
                    w = [random_entry(rng, field, size) for _ in range(cols)]
                    out = space.reduce(w)
                    assert out == ref_reduce(field, space.basis, space.pivots, w)
                    assert_canonical(field, out)
                    assert space.contains(w) == (not any(out))
                    other = Subspace.from_vectors(field, cols,
                                                  random_rows(rng, field, 2, cols, size))
                    both = space.intersect(other)
                    assert_canonical(field, [x for row in both.basis for x in row])
                    assert space.contains_subspace(both) and other.contains_subspace(both)
                    assert both.dim == space.dim + other.dim - (space + other).dim
                cases[field] += 1
                sizes[size] += field == QQ
    assert min(cases.values()) >= 250 and sum(cases.values()) >= 1000
    assert full_rank >= 100 and deficient >= 100
    assert min(sizes.values()) >= 80


def test_closure_kernel_matches_all_pairs():
    # Over Q the structure matrices are integer (random_algebra), small
    # fractions or huge fractions, so the common integer multiple of M that
    # the kernel multiplies by is 1, small or hundreds of digits.  Huge
    # entries stop at n = 5, where the Fraction reference is still fast.
    rng = random.Random(72)
    count = 0
    for field in FIELDS:
        for n in range(1, 8):
            sizes = (SMALL, INTEGER, HUGE)[:3 if n <= 5 else 2] if field == QQ else (SMALL,)
            for t in range(6 if field == QQ else 4):
                size = sizes[t % len(sizes)]
                a = random_algebra(field, n, rng=rng)
                if field == QQ and size != INTEGER:
                    a = EvolutionAlgebra(field, [[random_entry(rng, field, size)
                                                  for _ in range(n)] for _ in range(n)])
                if rng.random() < 0.5:
                    a = EvolutionAlgebra(field, [[x if rng.random() < 0.3 else 0 for x in row]
                                                 for row in a.M.data])
                gens = [[a.unit(rng.randrange(n))], [a.zero()],
                        [[random_entry(rng, field, size) for _ in range(n)]]]
                for g in gens:
                    for ideal, closure in ((False, a.subalgebra_closure),
                                           (True, a.ideal_closure)):
                        got = closure(g)
                        assert got.basis == ref_closure(a, g, ideal)
                        assert_canonical(field, [x for row in got.basis for x in row])
                        count += 1
    assert count >= 600


@pytest.fixture
def boxed(monkeypatch):
    """Counts Mod constructions: a machine-independent measure of boxing."""
    count = [0]
    init = Mod.__init__

    def counted(self, r, p):
        count[0] += 1
        init(self, r, p)

    monkeypatch.setattr(Mod, "__init__", counted)
    return count


def test_kernels_box_only_their_output(boxed):
    # A dense GF(101) algebra at n = 11: the closure of e1 is the whole
    # space.  Kernels and the objects they return hold plain residues, so
    # neither the closure nor an n x n rref creates a Mod; a caller that
    # reads the rref's entries boxes each one it reads.
    n, F = 11, GF(101)
    rng = random.Random(73)
    a = EvolutionAlgebra(F, [[rng.randrange(1, 101) for _ in range(n)] for _ in range(n)])
    e1 = a.unit(0)
    boxed[0] = 0
    assert a.subalgebra_closure([e1]).dim == n
    assert boxed[0] == 0
    m = Matrix(F, [[rng.randrange(101) for _ in range(n)] for _ in range(n)])
    boxed[0] = 0
    r = m.rref()[0]
    assert boxed[0] == 0
    assert len(r.data) == n
    assert boxed[0] == n * n


def test_boxed_views_match_eager_boxing():
    # Matrices, subspaces and elements store plain values, and .data,
    # .basis and .coords box them on read into what boxing every entry up
    # front gave.  Objects built from public scalars and from kernel output
    # (over Q a mix of ints and Fractions) compare and hash alike.
    rng = random.Random(79)

    def assert_plain(rows):
        assert not any(isinstance(x, Mod) for row in rows for x in row)

    for field in (GF(2), GF(101), QQ):
        for rows, cols in shapes(rng):
            if not rows:
                continue
            data = random_rows(rng, field, rows, cols)
            m = Matrix(field, data)
            eager = tuple(tuple(field(x) for x in row) for row in data)
            assert m.data == eager
            assert_canonical(field, [x for row in m.data for x in row])
            i, j = rng.randrange(rows), rng.randrange(cols)
            assert (m.row(i), m.column(j), m.entry(i, j)) == (
                eager[i], tuple(row[j] for row in eager), eager[i][j])
            ref, rank, _ = ref_rref(field, eager, cols)
            r = m.rref()[0]
            assert r.data == ref
            public = Matrix(field, ref)
            assert public == r and hash(public) == hash(r)
            s = Subspace.from_vectors(field, cols, data)
            assert s.basis == ref[:rank] and s.vectors() == list(ref[:rank])
            assert_canonical(field, [x for row in s.basis for x in row])
            for space in (s, m.kernel()):
                public = Subspace.from_vectors(field, cols, space.basis)
                assert public == space and hash(public) == hash(space)
            assert_plain(m.plain + r.plain + s.plain)
        a = random_algebra(field, rng.randint(1, 6), rng=rng)
        for _ in range(10):
            coords = random_rows(rng, field, 1, a.n)[0]
            u = a.element(coords)
            assert u.coords == tuple(field(x) for x in coords)
            assert_canonical(field, u.coords)
            for kernel_output in (u * u, u + u, u.scale(field(3)), -u, a.unit(0)):
                public = a.element(kernel_output.coords)
                assert public == kernel_output and hash(public) == hash(kernel_output)
                assert_plain([kernel_output.plain])
    for n in range(1, 6):
        full = Subspace.full(QQ, n)
        perfect = random_algebra(QQ, n, rng=rng, perfect=True)
        computed = (perfect.square_space(), Subspace.from_vectors(QQ, n, perfect.M.data),
                    perfect.ideal_closure([perfect.M.column(0)]) + Subspace.full(QQ, n))
        for space in computed:
            assert space == full and hash(space) == hash(full)


def test_one_elimination_per_call(monkeypatch):
    # Over GF(p) as over Q, det, rank, rref, kernel and solve each run one
    # fraction-free sweep and no other elimination.
    calls = [0]
    sweep = linalg.bareiss_rows

    def counted(*args, **kwargs):
        calls[0] += 1
        return sweep(*args, **kwargs)

    monkeypatch.setattr(linalg, "bareiss_rows", counted)
    rng = random.Random(75)
    for field in (GF(2), GF(101), QQ):
        data = random_rows(rng, field, 5, 5)
        for call in (Matrix.det, Matrix.rank, Matrix.rref, Matrix.kernel,
                     lambda m: m.solve(m.column(0))):
            calls[0] = 0
            call(Matrix(field, data))
            assert calls[0] == 1
        # A matrix keeps its forward sweep: det and rank share one.
        m = Matrix(field, data)
        calls[0] = 0
        m.det(), m.rank(), m.det()
        assert calls[0] == 1


@pytest.fixture
def fractions_made(monkeypatch):
    """Counts Fraction constructions, the Q counterpart of ``boxed``."""
    count = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return count


def test_rational_kernels_make_only_their_output(fractions_made):
    # A dense Q algebra at n = 8 with entries in +-1..3.  The closure of e1
    # is the whole space (plain 0s and 1s), an n x n rref makes its n^2
    # output entries, and det one Fraction; the Fraction Gauss-Jordan made
    # a Fraction for every intermediate scalar instead.
    n = 8
    rng = random.Random(74)
    entries = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n)] for _ in range(n)]
    a = EvolutionAlgebra(QQ, entries)
    m = Matrix(QQ, entries)
    e1 = a.unit(0)
    fractions_made[0] = 0
    assert a.subalgebra_closure([e1]).dim == n
    assert fractions_made[0] <= n
    fractions_made[0] = 0
    assert m.rref()[1] == n
    assert fractions_made[0] <= n * n
    fractions_made[0] = 0
    assert m.det()
    assert fractions_made[0] == 1


def test_structure_matrix_field_must_match():
    # The kernels read M's residues with the algebra's modulus, so an algebra
    # over one field cannot take a structure matrix over another.
    with pytest.raises(FieldMismatch):
        EvolutionAlgebra(GF(7), Matrix(GF(5), [[1, 2], [3, 4]]))
    with pytest.raises(FieldMismatch):
        EvolutionAlgebra(QQ, Matrix(GF(5), [[1]]))
    a = EvolutionAlgebra(GF(5), Matrix(GF(5), [[1, 2], [3, 4]]))
    assert a.element([1, 1]).square().coords == (GF(5)(3), GF(5)(2))


def canonical(x):
    """A plain rational is an int exactly when it is an integer."""
    return type(x) is (int if x.denominator == 1 else Fraction)


# Integers, and Fractions of which some are integral (4/2 is Fraction(2)).
RATIONALS = st.one_of(st.integers(-4, 4),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(RATIONALS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_rational_plain_values_are_canonical(rows):
    n = len(rows)
    plain = [QQ.unbox(row) for row in rows]
    assert plain == rows and all(canonical(x) for row in plain for x in row)
    for x in (x for row in plain for x in row):
        parsed = QQ.parse(str(x))
        assert parsed == x and canonical(parsed)
        root = QQ.plain_sqrt(x * x)
        assert root == abs(x) and canonical(root)
        root = QQ.plain_sqrt(x)
        assert root is None or (root * root == x and canonical(root))
    m = Matrix(QQ, rows)
    rref = m.rref()[0].plain
    kernel = m.kernel().plain
    span = Subspace.from_vectors(QQ, n, rows).plain
    for v in (*rref, *kernel, *span):
        assert all(canonical(x) for x in v)
    for v in kernel:
        assert not any(m.matvec(v))
    # solve returns public Fractions; its plain solution is read off the
    # canonical RREF of [M | b].
    b = [sum(row) for row in rows]
    x = m.solve(b)
    assert all(type(c) is Fraction for c in x) and m.matvec(x) == tuple(b)
    assert all(canonical(c) for row in Matrix(QQ, [r + [c] for r, c in zip(rows, b)])
               .rref()[0].plain for c in row)
    a = EvolutionAlgebra(QQ, rows)
    u, w = a.element(rows[0]), a.element(rows[-1])
    for el in (u * w, u.square(), u + w, u - w, -u, u.scale(Fraction(1, 2)), u.scale(2)):
        assert all(canonical(c) for c in el.plain)
        assert el.coords == tuple(map(Fraction, el.plain))


# References: the row methods the field descriptors had before every row
# kernel moved to linalg (Rationals and PrimeField's integral, normalize and
# eliminate, and fields.integer_row), on plain rows.

def ref_integer_row(row, scale=None):
    if scale is None:
        scale = lcm(*(x.denominator for x in row))
    if scale == 1:
        return list(row), 1
    return [x.numerator * (scale // x.denominator) for x in row], scale


def ref_integral(p, rows):
    if p is not None:
        return rows
    scale = lcm(*(x.denominator for row in rows for x in row))
    return [ref_integer_row(row, scale)[0] for row in rows]


def ref_normalize(p, v):
    if p is not None:
        c = pow(next((x for x in v if x), 1), -1, p)
        return [x * c % p for x in v]
    try:
        g = gcd(*v)
    except TypeError:
        v = ref_integer_row(v)[0]
        g = gcd(*v)
    return [x // g for x in v] if g > 1 else v


def ref_eliminate(p, v, row, pc):
    if p is not None:
        f = v[pc]
        return [(a - f * b) % p for a, b in zip(v, row)]
    f, d = v[pc], row[pc]
    if d == 1:
        return [a - f * b for a, b in zip(v, row)]
    g = gcd(d, f)
    d, f = d // g, f // g
    return [d * a - f * b for a, b in zip(v, row)]


def ref_reduce_row(p, rows, pivots, v):
    for row, pc in zip(rows, pivots):
        if v[pc]:
            v = ref_eliminate(p, v, row, pc)
    return v


KERNEL_FIELDS = (None, 2, 3, 101, 2**61 - 1)   # the moduli p; None is Q


def plain_entry(rng, p, fractions):
    """A plain value: a residue over GF(p); over Q an int, or with
    fractions also a canonical Fraction, small or with up to 25 digits."""
    if p is not None:
        return rng.choice((0, 1, p - 1, rng.randrange(p)))
    kind = rng.randrange(4 if fractions else 2)
    if kind == 0:
        return rng.randint(-6, 6)
    if kind == 1:
        return rng.choice((-1, 1)) * rng.randint(0, 10**25)
    if kind == 2:
        return rational(rng.randint(-9, 9), rng.randint(2, 7))
    return rational(rng.randint(-10**25, 10**25), rng.randint(2, 10**25))


def plain_row(rng, p, n, fractions):
    """Dense, sparse or zero, with a negative lead now and then over Q."""
    kind = rng.randrange(5)
    if kind == 0:
        return [0] * n
    row = [plain_entry(rng, p, fractions) if kind != 1 or rng.random() < 0.3 else 0
           for _ in range(n)]
    if p is None and kind == 2 and any(row):
        lead = next(j for j, x in enumerate(row) if x)
        row[lead] = -abs(row[lead])
    return row


def semi_echelon(rng, p, n, fractions):
    """Rows nonzero at their pivot and 0 at the pivots of the rows before
    them, the pivots in random order.  Over GF(p) every pivot is 1; over Q
    a pivot is 1 (the rows may hold Fractions) or, for integer rows, any
    nonzero int."""
    pivots = rng.sample(range(n), rng.randint(0, n))
    unit = p is not None or fractions
    rows = []
    for k, pc in enumerate(pivots):
        row = plain_row(rng, p, n, fractions)
        for b in pivots[:k]:
            row[b] = 0
        row[pc] = 1 if unit or rng.random() < 0.3 else rng.choice((-1, 1)) * rng.randint(2, 40)
        rows.append(row)
    return rows, pivots


def typed(rows):
    """Rows with each entry's type, so 2 and Fraction(2) differ."""
    return [[(type(x), x) for x in row] for row in rows]


def test_row_kernels_match_the_descriptor_methods():
    rng = random.Random(3041)
    counts = dict.fromkeys(("integer_row", "integral_rows", "normalize_row", "reduce_row"), 0)
    for case in range(6000):
        p = KERNEL_FIELDS[case % len(KERNEL_FIELDS)]
        n = rng.randint(1, 8)
        fractions = p is None and rng.random() < 0.6
        rows = [plain_row(rng, p, n, fractions) for _ in range(rng.randint(0, 4))]
        v = plain_row(rng, p, n, fractions)
        # Residues are ints, whose denominator is 1.
        scale = rng.choice((None, lcm(*(x.denominator for x in v)) * rng.randint(1, 5)))
        got, want = linalg.integer_row(v, scale), ref_integer_row(v, scale)
        assert typed([got[0]]) == typed([want[0]]) and got[1] == want[1], (v, scale)
        counts["integer_row"] += 1
        assert typed(linalg.integral_rows(rows, p)) == typed(ref_integral(p, rows)), rows
        counts["integral_rows"] += len(rows)
        assert typed([linalg.normalize_row(v, p)]) == typed([ref_normalize(p, v)]), (p, v)
        counts["normalize_row"] += 1
        basis, pivots = semi_echelon(rng, p, n, fractions)
        got = linalg.reduce_row(basis, pivots, v, p)
        assert typed([got]) == typed([ref_reduce_row(p, basis, pivots, v)]), (p, basis, v)
        counts["reduce_row"] += 1
    assert min(counts.values()) >= 5000, counts


# Reference: the list branch of bareiss_rows as it ran over GF(2) before
# the bit rows, with p = 2.

def ref_gf2_sweep(m, cols, above):
    p = 2
    pivots, prev, sign = [], 1, 1
    for pc in range(cols):
        pr = len(pivots)
        pivot_row = next((i for i in range(pr, len(m)) if m[i][pc]), None)
        if pivot_row is None:
            continue
        if pivot_row != pr:
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            sign = -sign
        row = m[pr]
        piv = row[pc]
        if piv != 1:
            c = pow(piv, -1, p)
            row = m[pr] = [x * c % p for x in row]
        piv = piv * prev % p
        for i in range(0 if above else pr + 1, len(m)):
            other = m[i]
            f = other[pc]
            if i == pr:
                continue
            if f:
                m[i] = [(a - f * b) % p for a, b in zip(other, row)]
        prev = piv
        pivots.append(pc)
        if pr + 1 == len(m):
            break
    return pivots, prev, sign


def gf2_shapes(rng):
    """(rows, cols, width): empty, 1 x k, wide (an augmented solve has
    width cols + 1), one size around CPython's 30-bit digit or 64 bits,
    and random small shapes."""
    yield from ((0, 0, 0), (1, 0, 0), (1, 1, 1), (1, rng.randint(2, 9), None),
                (rng.randint(2, 9), 1, 1))
    n = rng.randint(1, 9)
    yield n, n, n + 1
    yield n, n, 2 * n
    n = rng.choice((31, 32, 33, 63, 64, 65, 70))
    yield n, n, n
    for _ in range(6):
        n = rng.randint(1, 12)
        yield n, n, n
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        yield rows, cols, cols + rng.choice((0, 0, 1))


def gf2_rows(rng, rows, cols):
    """Dense, sparse, rank-deficient (the last row the sum of some others)
    or zero 0/1 rows, as random_rows draws them over GF(2)."""
    kind = rng.randrange(4)
    if kind == 3:
        return [[0] * cols for _ in range(rows)]
    out = [[rng.randrange(2) if kind != 1 or rng.random() < 0.3 else 0 for _ in range(cols)]
           for _ in range(rows)]
    if kind == 2 and rows > 1:
        picked = [row for row in out[:-1] if rng.randrange(2)]
        out[-1] = [sum(col) % 2 for col in zip(*picked)] if picked else [0] * cols
    return out


def test_gf2_bit_rows_match_the_list_sweep():
    # Pivots, d, sign and, under above, the rows themselves, against the
    # list loop on dense, sparse, rank-deficient and zero 0/1 rows; rows
    # come as the tuples of Matrix.plain or the lists of an augmented solve.
    rng = random.Random(3131)
    matrices, wide, sizes = 0, 0, {}
    while matrices < 5000:
        for rows, cols, width in gf2_shapes(rng):
            width = cols if width is None else width
            data = gf2_rows(rng, rows, width)
            if rng.random() < 0.5:
                data = [tuple(row) for row in data]
            for above in (False, True):
                got, want = list(data), [list(row) for row in data]
                assert linalg.bareiss_rows(got, cols, above, 2) == \
                    ref_gf2_sweep(want, cols, above), (data, cols, above)
            assert [list(row) for row in got] == want, (data, cols)
            # Every row comes back as a list of width ints, [] at width 0
            # (the shapes (1, 0, 0) and (1, 1, 1) are drawn every round).
            assert all(type(row) is list and len(row) == width for row in got), (data, cols)
            assert all(type(x) is int for row in got for x in row)
            matrices += 1
            wide += width > cols
            sizes[rows] = sizes.get(rows, 0) + 1
    assert wide >= 500
    assert min(sizes[n] for n in (31, 32, 33, 63, 64, 65, 70)) >= 10
