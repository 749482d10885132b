"""Sanity checks of the brute-force reference machinery itself."""

import dataclasses
import random
from itertools import product

import pytest

from evoalg import ideals, natural, nilpotency, oracles
from evoalg.algebra import EvolutionAlgebra
from evoalg.errors import DimensionTooLarge, InvalidArgument
from evoalg.fields import GF
from evoalg.linalg import Matrix, Subspace
from evoalg.oracles import (ORACLES, all_subspaces, brute_triple_exists,
                            enumerate_natural_bases, evo_mult, kernel_mod,
                            minor_condition_exists, natural_basis_membership,
                            normalized_vectors, rank_mod, run_oracle,
                            sample_structure_matrices)

# ------------------------------------------ references: per-vector search


def ref_normalized_vectors(p, n):
    """Filter all p^n tuples down to those led by a 1."""
    out = []
    for v in product(range(p), repeat=n):
        lead = next((x for x in v if x), None)
        if lead == 1:
            out.append(v)
    return out


def ref_natural_basis_membership(m, p, u):
    """Exhaustive backtracking from u over projective representatives,
    re-testing orthogonality at every node.  Its n = 1 shortcut also
    answers True for u = 0."""
    n = len(u)
    cands = ref_normalized_vectors(p, n)
    chosen = [tuple(u)]

    def orthogonal(a, b):
        return not any(evo_mult(m, p, a, b))

    def search(start):
        if len(chosen) == n:
            return rank_mod(chosen, p) == n
        for k in range(start, len(cands)):
            c = cands[k]
            if all(orthogonal(c, other) for other in chosen):
                chosen.append(c)
                if search(k + 1):
                    return True
                chosen.pop()
        return False

    if n == 1:
        return True
    return search(0)


def ref_enumerate_natural_bases(m, p):
    """The same backtracking, collecting every full-rank n-set."""
    n = len(m)
    cands = ref_normalized_vectors(p, n)
    bases = []
    chosen = []

    def orthogonal(a, b):
        return not any(evo_mult(m, p, a, b))

    def search(start):
        if len(chosen) == n:
            if rank_mod(chosen, p) == n:
                bases.append(tuple(chosen))
            return
        for k in range(start, len(cands)):
            c = cands[k]
            if all(orthogonal(c, other) for other in chosen):
                chosen.append(c)
                search(k + 1)
                chosen.pop()

    search(0)
    return bases


def test_normalized_vectors_cover_projective_points():
    vecs = normalized_vectors(3, 2)
    assert len(vecs) == 4   # (3^2 - 1) / (3 - 1)
    assert len(normalized_vectors(5, 3)) == 31
    for p in (2, 3, 5):
        for n in range(5):
            assert normalized_vectors(p, n) == ref_normalized_vectors(p, n), (p, n)


# Matrices per (p, n).  Dense orthogonality graphs have thousands of
# n-cliques at n = 4, p >= 3, so those cells stay small; zero matrices and
# the reference enumeration come only with at most 31 projective points.
CORPUS = {2: (30, 150, 80, 60), 3: (30, 150, 80, 20),
          5: (30, 150, 50, 6), 7: (30, 150, 40, 2)}


def _corpus(rng):
    """(p, m): a zero matrix where its enumeration is cheap, then random,
    rank <= 1, repeated-column and zero-column matrices in turn."""
    for p, counts in CORPUS.items():
        for n, count in enumerate(counts, start=1):
            if len(normalized_vectors(p, n)) <= 31:
                yield p, ((0,) * n,) * n
            for k in range(count):
                m = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                i, j = rng.randrange(n), rng.randrange(n)
                if k % 4 == 1:
                    m = [[m[r][0] * m[0][c] % p for c in range(n)] for r in range(n)]
                elif k % 4 == 2:
                    for row in m:
                        row[j] = row[i]
                elif k % 4 == 3:
                    for row in m:
                        row[j] = 0
                yield p, tuple(map(tuple, m))


def test_natural_bases_match_per_vector_search():
    rng = random.Random(2024)
    matrices = 0
    for p, m in _corpus(rng):
        n = len(m)
        bases = enumerate_natural_bases(m, p)
        points = normalized_vectors(p, n)
        if len(points) <= 31:
            assert bases == ref_enumerate_natural_bases(m, p), (p, m)
        members = {v for basis in bases for v in basis}
        inside = [v for v in points if v in members]
        outside = [v for v in points if v not in members]
        # The reference agrees on a point found in a basis and on one
        # found in none.
        for v in [rng.choice(vs) for vs in (inside, outside) if vs]:
            assert ref_natural_basis_membership(m, p, v) == (v in members), (p, m, v)
        # natural_basis_membership on a multiple of a point and on 0.
        v = rng.choice(points)
        scale = rng.randrange(1, p)
        u = tuple(x * scale % p for x in v)
        assert natural_basis_membership(m, p, u) == (v in members), (p, m, u)
        assert ref_natural_basis_membership(m, p, u) == (v in members), (p, m, u)
        # u = 0 is in no basis.  From 0 the reference walks every
        # (n-1)-clique, so it runs on 0 only where that is cheap; its n = 1
        # shortcut says True there.
        assert not natural_basis_membership(m, p, (0,) * n)
        if len(points) <= 31:
            assert ref_natural_basis_membership(m, p, (0,) * n) == (n == 1)
        matrices += 1
    assert matrices >= 1000


def test_oracle_natural_vectors_one_product_test_per_product(monkeypatch):
    # Orthogonality is decided once per distinct Hadamard product, so a
    # matrix costs at most p^n evo_mult calls.
    calls = []
    original = oracles.evo_mult

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracles, "evo_mult", counted)
    for p, dim, samples in ((5, 4, 2), (3, 3, 20), (2, 4, 20)):
        del calls[:]
        report = run_oracle("natural-vectors", p, dim, samples=samples, seed=3)
        assert report.mismatches == ()
        assert 0 < len(calls) <= samples * p ** dim, (p, dim, len(calls))
    # In dimension 1 every nonzero vector is a natural basis.
    report = run_oracle("natural-vectors", 7, 1, samples=3)
    assert report.checked == 3 * 6 and report.mismatches == ()


def test_int_linalg_against_matrix():
    for m in sample_structure_matrices(3, 2, 81, seed=1):
        exact = Matrix(GF(3), [list(r) for r in m])
        assert rank_mod(m, 3) == exact.rank()
        kernel = kernel_mod([list(r) for r in m], 3, 2)
        assert len(kernel) == 2 - exact.rank()
        for v in kernel:
            assert not any(exact.matvec([GF(3)(x) for x in v]))


def test_evo_mult_matches_element_product():
    m = ((1, 2, 0), (0, 1, 1), (1, 0, 1))
    a = EvolutionAlgebra(GF(3), [list(r) for r in m])
    for u in product(range(3), repeat=3):
        for v in product(range(3), repeat=3):
            fast = (a.element(u) * a.element(v)).coords
            assert evo_mult(m, 3, u, v) == tuple(x.r for x in fast)


def test_membership_identity_matrix():
    m = ((1, 0), (0, 1))
    assert natural_basis_membership(m, 2, (1, 0))
    assert not natural_basis_membership(m, 2, (1, 1))
    bases = enumerate_natural_bases(m, 2)
    assert bases == [((0, 1), (1, 0))]


def test_triple_search_honors_support_size_restriction():
    # u = e_1, v = w = e_1 + e_2 gives u (v w) = 0 here, but |supp u| <
    # |supp v|; such triples exist for every matrix and are not counted.
    m = ((2, 1), (1, 1))
    assert not brute_triple_exists(m, 3)
    assert not minor_condition_exists(m, 3)
    # A zero diagonal entry is a vanishing 1x1 minor; u = v = w = e_1 is a
    # genuine triple in this perfect algebra.
    hit = ((0, 1), (1, 1))
    assert brute_triple_exists(hit, 3)
    assert minor_condition_exists(hit, 3)


def test_all_subspaces_counts():
    # Gaussian binomials: GF(2)^3 has 1 + 7 + 7 + 1 subspaces.
    spaces = all_subspaces(2, 3)
    assert len(spaces) == 16
    assert len({Subspace.from_vectors(GF(2), 3, [list(v) for v in rows])
                for rows in spaces}) == 16
    assert len(all_subspaces(3, 2)) == 6   # 1 + 4 + 1
    with pytest.raises(DimensionTooLarge):
        all_subspaces(2, 4)


def ref_unrank(code, p, n):
    """Matrix number code of a small cell: its base-p digits, least
    significant first, row by row."""
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            row.append(code % p)
            code //= p
        out.append(tuple(row))
    return tuple(out)


def test_sampling_enumerates_small_cells():
    all16 = list(sample_structure_matrices(2, 2, 2000, seed=5))
    assert len(all16) == 16 and len(set(all16)) == 16
    sampled = list(sample_structure_matrices(5, 3, 50, seed=5))
    assert len(sampled) == 50
    again = list(sample_structure_matrices(5, 3, 50, seed=5))
    assert sampled == again
    for p, n in ((2, 1), (3, 1), (2, 2), (3, 2), (2, 3)):
        total = p ** (n * n)
        assert list(sample_structure_matrices(p, n, total, seed=5)) == [
            ref_unrank(code, p, n) for code in range(total)], (p, n)


def _broken(module, name, change):
    """A fast path that answers change(original answer)."""
    original = getattr(module, name)
    return module, name, lambda *args: change(original(*args))


# Per oracle: the fast path it checks, broken, and (p, dim, samples, seed)
# runs on which the intact fast path agrees and the broken one does not.
# For p <= 7 the cube scan tries every kernel vector of every vanishing
# minor, so a scan that misses an existing u with u^3 = 0 is a mismatch.
BREAKS = {
    "natural-vectors": (_broken(natural, "is_natural_vector", lambda x: not x),
                        [(3, 2, 20, 1), (2, 3, 20, 1)]),
    "ideal-lattice": (_broken(ideals, "ideal_lattice_perfect", lambda lat: lat[:-1]),
                      [(3, 2, 20, 1), (2, 3, 20, 1)]),
    "minor-condition": (_broken(nilpotency, "find_orthogonality_witness", lambda s: (
        dataclasses.replace(s, witness=None))), [(3, 3, 60, 1)]),
    "nilpotency": (_broken(nilpotency, "nilpotency_report", lambda r: (
        dataclasses.replace(r, is_nilpotent=not r.is_nilpotent))), [(2, 3, 20, 1)]),
    "cube-nilpotent": (_broken(nilpotency, "find_cube_nilpotent", lambda s: (
        dataclasses.replace(s, element=None))), [(p, 3, 60, 1) for p in (3, 5, 7)]),
}


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_oracle_reports_a_broken_fast_path(monkeypatch, name):
    assert sorted(BREAKS) == sorted(ORACLES)
    broken, runs = BREAKS[name]
    for run in runs:
        assert run_oracle(name, *run).mismatches == (), run
    monkeypatch.setattr(*broken)
    for p, dim, samples, seed in runs:
        report = run_oracle(name, p, dim, samples, seed)
        assert report.mismatches, (p, dim)
        for m, u in report.mismatches:
            assert len(m) == dim and all(len(row) == dim for row in m)
            if name == "natural-vectors":
                assert len(u) == dim and any(u)
            else:
                assert u is None


def test_unknown_oracle_is_an_invalid_argument():
    with pytest.raises(InvalidArgument, match="cube-nilpotent, ideal-lattice"):
        run_oracle("natural", 2, 2)


def test_nilpotency_oracle_finds_a_wrong_index(monkeypatch):
    # The oracle reads the right-nilpotency index from its own right powers,
    # not from the report's type sequence, so an index one too large shows,
    # also when the type sequence is lengthened to match it.
    runs = [(2, 2, 20, 1), (2, 3, 200, 1), (3, 2, 200, 1)]
    for run in runs:
        assert run_oracle("nilpotency", *run).mismatches == (), run
    for longer in ((), (0,)):
        with monkeypatch.context() as m:
            m.setattr(*_broken(nilpotency, "nilpotency_report", lambda r: (
                dataclasses.replace(r, type_sequence=r.type_sequence + longer,
                                    right_nilpotency_index=r.right_nilpotency_index + 1)
                if r.is_nilpotent else r)))
            for run in runs:
                report = run_oracle("nilpotency", *run)
                assert report.mismatches and len(report.mismatches) < report.checked, run
