"""Exact computer algebra for Hecke symmetries and reflection-equation orbits.

The package builds even Hecke symmetries and their derived data (skew
inverse, trace weights, symmetry rank), q-symmetrizer towers, left and right
modules of the (modified) reflection equation algebra, split-Casimir
matrices with their Cayley-Hamilton identities, Newton identities and their
parametric resolution, orbit multiplicities, string analysis, and q-Euler
characteristics -- all over exact scalars (rationals, or rational functions
in the deformation parameter q).
"""

from .scalars import (Q, QScalar, ScalarDomain, SYMBOLIC, at_q, eval_at,
                      format_scalar, parse_scalar, q_int)
from .tensor import LegOperator, Mat, embed_on_legs, weighted_partial_trace
from .hecke import (HeckeSymmetry, save_r_to_file, skew_inverse_bc,
                    standard_hecke, standard_r, validate_hecke_symmetry)
from .projectors import q_antisymmetrizer, q_symmetrizer
from .reps import (Representation, fundamental_left, rescaled,
                   sym_power_left, sym_power_right_p2, sym_power_right_rea_p2,
                   tensor_power_left, verify_defining_relations, with_mass)
from .casimir import (CasimirMatrix, closed_form_p2, left_casimir_matrix,
                      module_trace, q_dimension, split_casimir_matrix,
                      trace_weights)
from .identities import (CentralValues, RootData, central_elements_in_rep,
                         ch_verify, ch_verify_coefficients, compositions,
                         conjecture_roots, newton_check, omega_roots_p2,
                         parametric_central_values)
from .orbits import (conjecture_scan, higher_newton_classical,
                     higher_newton_quantum_p2, multiplicities,
                     rep_eigenvalues, spectral_idempotents, string_decompose)
from .euler import ModuleClass, classical_euler, q_algebra_check, \
    q_index_and_euler

__version__ = "0.1.0"
