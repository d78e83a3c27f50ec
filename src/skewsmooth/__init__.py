"""skewsmooth: exact smoothness certificates for quasi-commutation algebras.

The package decides (sufficiently) whether an n-generator algebra with
relations x_i x_j - a_ij x_j x_i = linear tail carries a connected,
n-dimensional, integrable differential calculus, constructs the calculus from
the certifying twist family, and verifies the combinatorial and linear-algebra
identities used by three-generator diffusion presentations.
"""

from .algebra import NcPoly, Ordering, Presentation, degree_truncation, relabel
from .calculus import (CalculusContext, DiffForm, integral_form_coefficients,
                       kernel_of_d_bounded, verify_integrability)
from .diffusion import (DiffusionPresentation, DiffusionType, build_aut_matrices,
                        check_derivation_constant_terms, classify_diffusion_3,
                        crosswalk_to_3d, encode_presentation, pq_p, pq_q,
                        solve_sigma_constant_terms, verify_commutation,
                        verify_determinant_identities, verify_left_commutation,
                        verify_pq_recurrences, verify_right_commutation)
from .endos import (AffineEndo, apply_endo, commute, compose, identity_endo,
                    invert, respects_relations)
from .scalars import QQ, PrimeField, RationalField
from .smoothness import (Verdict, assemble_constant_checks, classify_3d, decide,
                         forced_nu, solve_diagonal_unknowns)

__version__ = "0.1.0"
