"""Exact point counts of framed torsion modules over the cusp k[[T^2,T^3]].

The package computes the rank-d generating series of submodule counts
by stratifying along leading-term data and raising strata with the
spiral operators, checks the results against closed product forms and
a triangular solve of the self-similarity relation, and pins both down
with brute-force enumeration over F_2 and F_3.
"""

__version__ = "0.1.0"

from .qalgebra import (
    CyclotomicInt,
    LaurentPolyQ,
    RationalQ,
    TPoly,
    TSeries,
    gl_order,
    q_binomial,
    q_pochhammer,
    t_pochhammer,
)
from .groebner import Element, PreBasis, ReducedGB, divide, is_groebner, reduce_basis
from .strata import LeadingTermDatum, Monomial, Orbit, parse_datum, stable_orbit_decomposition
from .varieties import (
    AbProfile,
    GFMatrix,
    MotiveTable,
    VAlphaSpec,
    ab_profile,
    brute_v_d,
    count_v_alpha,
    staircase_motive,
    symbolic_v_alpha,
)
from .series import (
    affine_cohen_lenstra_coefficient,
    cohen_lenstra_coefficient,
    hilb_from_quot,
    hilb_series,
    matrix_count_formula,
    nh_guess,
    quot_series,
    solve_nh,
    zhat_coefficient,
)
from .oracles import (
    count_all_pairs,
    count_nilpotent_pairs,
    count_quot_bruteforce,
    count_stratum_bruteforce,
)

__all__ = [
    "__version__",
    "CyclotomicInt",
    "LaurentPolyQ",
    "RationalQ",
    "TPoly",
    "TSeries",
    "gl_order",
    "q_binomial",
    "q_pochhammer",
    "t_pochhammer",
    "Element",
    "Monomial",
    "PreBasis",
    "ReducedGB",
    "divide",
    "is_groebner",
    "reduce_basis",
    "LeadingTermDatum",
    "Orbit",
    "parse_datum",
    "stable_orbit_decomposition",
    "AbProfile",
    "GFMatrix",
    "MotiveTable",
    "VAlphaSpec",
    "ab_profile",
    "brute_v_d",
    "count_v_alpha",
    "staircase_motive",
    "symbolic_v_alpha",
    "affine_cohen_lenstra_coefficient",
    "cohen_lenstra_coefficient",
    "hilb_from_quot",
    "hilb_series",
    "matrix_count_formula",
    "nh_guess",
    "quot_series",
    "solve_nh",
    "zhat_coefficient",
    "count_all_pairs",
    "count_nilpotent_pairs",
    "count_quot_bruteforce",
    "count_stratum_bruteforce",
]
