"""Sharp distribution-function bounds for two-exponent weight classes.

The package evaluates the sharp upper bound on |{t : w(t) >= lambda}| over
all weights on [0, 1] with prescribed averages <w**p1>, <w**p2> in a class
bounded by Q, constructs weights attaining the bound, and provides numerical
verification campaigns (concavity, brute-force oracle, dyadic majorization)
plus the self-improvement corollary for (1, -1) classes.
"""

from .bellman import (BellmanValue, Gradient, evaluate, evaluate_a2,
                      evaluate_ainf, evaluate_lambda, gradient)
from .errors import ApqError, DomainError, NonIntegrableError, SolveError
from .extremal import ExtremalPlan, build
from .geometry import Point, Region, classify, in_domain
from .implicit_v import dv_sign_check, solve_v_III, solve_v_IV, tangent_pi
from .params import DerivedConstants, Params, ainf_constants, derive_constants, solve_gammas
from .rh import RHCheck, RHResult, alpha0, power_witness, rh_check, rh_constant
from .verify import (VerifyReport, check_concavity, check_dv_signs,
                     check_majorization, oracle_max)
from .weights import (Piece, Weight, apq_norm, constant_weight, cutoff_above,
                      cutoff_below, distribution, moment, scale_weight,
                      step_weight, weight_from_json, weight_to_json)

__all__ = [
    "ApqError", "DomainError", "SolveError", "NonIntegrableError",
    "Params", "DerivedConstants",
    "solve_gammas", "derive_constants", "ainf_constants",
    "Point", "Region", "in_domain", "classify",
    "solve_v_III", "solve_v_IV", "dv_sign_check", "tangent_pi",
    "BellmanValue", "Gradient", "evaluate", "evaluate_lambda", "gradient",
    "evaluate_a2", "evaluate_ainf",
    "Weight", "Piece",
    "constant_weight", "step_weight", "moment", "distribution", "apq_norm",
    "cutoff_below", "cutoff_above", "scale_weight",
    "weight_to_json", "weight_from_json",
    "ExtremalPlan", "build",
    "VerifyReport", "check_concavity", "oracle_max", "check_majorization",
    "check_dv_signs",
    "RHResult", "RHCheck", "alpha0", "rh_constant", "rh_check", "power_witness",
]

__version__ = "0.1.0"
