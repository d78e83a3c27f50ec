"""skewsmooth: exact smoothness certificates for quasi-commutation algebras.

The package decides (sufficiently) whether an n-generator algebra with
relations x_i x_j - a_ij x_j x_i = linear tail carries a connected,
n-dimensional, integrable differential calculus, constructs the calculus from
the certifying twist family, and verifies the combinatorial and linear-algebra
identities used by three-generator diffusion presentations.

``import skewsmooth`` loads no submodule: an exported name is imported from
its module on first access (PEP 562), and so is a submodule read as an
attribute, so a CLI process compiles only the modules its subcommand runs.
"""

from importlib import import_module

# export name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("NcPoly", "Ordering", "Presentation", "degree_truncation", "relabel"),
                    "algebra"),
    **dict.fromkeys(("CalculusContext", "DiffForm", "integral_form_coefficients",
                     "kernel_of_d_bounded", "verify_integrability"), "calculus"),
    **dict.fromkeys(("DiffusionPresentation", "DiffusionType", "build_aut_matrices",
                     "check_derivation_constant_terms", "classify_diffusion_3",
                     "crosswalk_to_3d", "encode_presentation", "pq_p", "pq_q",
                     "solve_sigma_constant_terms", "verify_commutation",
                     "verify_determinant_identities", "verify_left_commutation",
                     "verify_pq_recurrences", "verify_right_commutation"), "diffusion"),
    **dict.fromkeys(("AffineEndo", "apply_endo", "commute", "compose", "identity_endo",
                     "invert", "respects_relations"), "endos"),
    **dict.fromkeys(("QQ", "PrimeField", "RationalField"), "scalars"),
    **dict.fromkeys(("Verdict", "assemble_constant_checks", "classify_3d", "decide",
                     "forced_nu", "solve_diagonal_unknowns"), "smoothness"),
}
_SUBMODULES = frozenset({"algebra", "calculus", "catalog", "cli", "diffusion", "dsl", "endos",
                         "errors", "frozen", "linalg", "scalars", "smoothness"})

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    elif name in _SUBMODULES:
        value = import_module("." + name, __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value     # later reads skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
