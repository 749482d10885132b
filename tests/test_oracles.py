"""Sanity checks of the brute-force reference machinery itself."""

from itertools import product

import pytest

from evoalg.algebra import EvolutionAlgebra
from evoalg.errors import DimensionTooLarge
from evoalg.fields import GF
from evoalg.linalg import Matrix, Subspace
from evoalg.oracles import (all_subspaces, brute_triple_exists, det_mod,
                            enumerate_natural_bases, evo_mult, kernel_mod,
                            minor_condition_exists, natural_basis_membership,
                            normalized_vectors, rank_mod,
                            sample_structure_matrices)


def test_normalized_vectors_cover_projective_points():
    vecs = normalized_vectors(3, 2)
    assert len(vecs) == 4   # (3^2 - 1) / (3 - 1)
    assert len(normalized_vectors(5, 3)) == 31


def test_int_linalg_against_matrix():
    for m in sample_structure_matrices(3, 2, 81, seed=1):
        exact = Matrix(GF(3), [list(r) for r in m])
        assert rank_mod(m, 3) == exact.rank()
        assert det_mod(m, 3) == exact.det().r
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


def test_sampling_enumerates_small_cells():
    all16 = list(sample_structure_matrices(2, 2, 2000, seed=5))
    assert len(all16) == 16 and len(set(all16)) == 16
    sampled = list(sample_structure_matrices(5, 3, 50, seed=5))
    assert len(sampled) == 50
    again = list(sample_structure_matrices(5, 3, 50, seed=5))
    assert sampled == again
