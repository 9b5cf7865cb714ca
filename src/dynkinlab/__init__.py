"""Exact Coxeter-transformation and Poincare-series computations on Dynkin
diagrams, with a Molien oracle for cross-checking: groups closed exactly
over F_p, Molien sums in integers once per element order."""

from .coxeter import (
    bicolored_reflections,
    char_polys,
    coxeter_number,
    coxeter_transform,
    ebeling_quotient,
)
from .diagram import BpgId, Diagram, DiagramId, build, catalog_extended, finite_part, fold
from .exact import IntMatrix, IntPoly, RatFunc, format_poly, series_expand
from .kostant import generating_function, multiplicities
from .mckay import (
    Report,
    crosscheck,
    semi_affine,
    verify_closed_form,
    verify_ebeling,
    verify_kostant_form,
    verify_kostant_relation,
    verify_observation,
    verify_z_recurrence,
)
from .molien import enumerate_group, molien_coeffs
from .orbit import assembling_vectors, tau_orbit, z_polynomials

__version__ = "0.1.0"

__all__ = [
    "BpgId",
    "Diagram",
    "DiagramId",
    "IntMatrix",
    "IntPoly",
    "RatFunc",
    "Report",
    "assembling_vectors",
    "bicolored_reflections",
    "build",
    "catalog_extended",
    "char_polys",
    "coxeter_number",
    "coxeter_transform",
    "crosscheck",
    "ebeling_quotient",
    "enumerate_group",
    "finite_part",
    "fold",
    "format_poly",
    "generating_function",
    "molien_coeffs",
    "multiplicities",
    "semi_affine",
    "series_expand",
    "tau_orbit",
    "verify_closed_form",
    "verify_ebeling",
    "verify_kostant_form",
    "verify_kostant_relation",
    "verify_observation",
    "verify_z_recurrence",
    "z_polynomials",
]
