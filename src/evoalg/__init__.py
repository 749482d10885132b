"""Exact linear-algebraic analysis of finite-dimensional evolution algebras."""

from .adjoint import (AdjointInvariants, GeneratorClassification, HierarchyLevel,
                      ZerothDecomposition, adjoint_annihilator, adjoint_invariants,
                      classify_generators, descendants, hierarchy, is_irreducible,
                      zeroth_decomposition)
from .algebra import Element, EvolutionAlgebra, check_algebra_homomorphism
from .algfile import (emit_algebra_json, emit_algebra_text, load_algebra,
                      parse_algebra_json, parse_algebra_text, parse_vectors_text)
from .errors import EvoAlgError, ParseError, SelfCheckFailed
from .fields import GF, QQ, Mod, is_prime, parse_field, render_field
from .generate import random_algebra
from .ideals import (descendant_closed_sets, ideal_lattice_perfect, is_basic_ideal,
                     is_basic_simple, is_basic_simple_relative, is_ideal, is_simple,
                     is_strongly_connected, reachable)
from .linalg import Matrix, Subspace
from .natural import (Decomposition, ExtensionResult, decompose,
                      decomposition_for_basis, extend_family,
                      has_property_2li, has_unique_natural_basis,
                      is_natural_vector)
from .nilpotency import (CubeNilpotentScan, MinorWitness, NilpotencyReport,
                         OrthogonalityScan, PowerSpaces, cube_witness_from_minor,
                         find_cube_nilpotent, find_orthogonality_witness,
                         is_cube_zero, nilpotency_report, power_spaces,
                         product_space)

__version__ = "0.1.0"

# The API is every name the imports above bind, except the submodules they
# bind too (a module has no __module__), so the list is written once.
__all__ = sorted(name for name, value in globals().items()
                 if getattr(value, "__module__", "").startswith(__name__ + "."))
