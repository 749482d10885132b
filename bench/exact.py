"""Exact arithmetic written for the benchmark alone.

Nothing here imports ``evoalg``: the benchmark uses these routines to build
fixtures with known properties and to check the program's answers, so a
defect in the program's own field or matrix code cannot hide itself.

A structure matrix is a list of rows of ints (GF(p), ``p`` an int) or of
``Fraction``s (Q, ``p`` is None).  Column i holds the coordinates of e_i^2.
"""

from fractions import Fraction


def det(rows, p=None):
    """Determinant by Gaussian elimination, over GF(p) or, with p None, Q."""
    n = len(rows)
    if p is None:
        m = [[Fraction(x) for x in row] for row in rows]
    else:
        m = [[x % p for x in row] for row in rows]
    result = Fraction(1) if p is None else 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            result = -result
        result *= m[k][k]
        inv = 1 / m[k][k] if p is None else pow(m[k][k], p - 2, p)
        for i in range(k + 1, n):
            if m[i][k]:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
                if p is not None:
                    m[i] = [x % p for x in m[i]]
    return result if p is None else result % p


def submatrix(rows, row_ix, col_ix):
    return [[rows[i][j] for j in col_ix] for i in row_ix]


def product(rows, u, v, p=None):
    """u v in the evolution algebra: (u v)_j = sum_i M[j][i] u_i v_i."""
    n = len(rows)
    out = [sum(rows[j][i] * u[i] * v[i] for i in range(n)) for j in range(n)]
    return out if p is None else [x % p for x in out]


def parse_scalar(text, p=None):
    return Fraction(text) if p is None else int(text) % p


def parse_vector(text, p=None):
    return [parse_scalar(tok, p) for tok in text.split()]


def parse_alg(text):
    """(p, rows) from the text format; p is None over Q."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    field = lines[0].split(None, 1)
    if field[0] != "field" or not lines[1].startswith("dim "):
        raise ValueError("expected field and dim lines")
    spec = field[1].replace(" ", "")
    p = None if spec == "q" else int(spec[2:])
    n = int(lines[1].split()[1])
    rows = [parse_vector(ln, p) for ln in lines[2:]]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix shape does not match dim")
    return p, rows


def render_alg(p, rows):
    head = "field q" if p is None else f"field gf {p}"
    body = [" ".join(str(x) for x in row) for row in rows]
    return "\n".join([head, f"dim {len(rows)}"] + body) + "\n"


def count_closed_sets(rows, limit):
    """Number of index sets S with every descendant of S in S (i -> j when
    e_j occurs in e_i^2), or limit + 1 once the count passes limit.

    Backtracking over the indices in order; a set is built only when every
    already-decided constraint holds, so the work is linear in the count."""
    n = len(rows)
    succ = [sum(1 << j for j in range(n) if j != i and rows[j][i]) for i in range(n)]
    count = 0

    def walk(i, inc, req):
        nonlocal count
        if count > limit:
            return
        if i == n:
            count += 1
            return
        below = (1 << i) - 1
        if not req >> i & 1:
            walk(i + 1, inc, req)
        if not succ[i] & below & ~inc:
            walk(i + 1, inc | 1 << i, req | succ[i])

    walk(0, 0, 0)
    return count
