"""Splitting types of pullback bundles for rational curves on Fermat
hypersurfaces sum x_i^d = 0 with d = p^r + 1 over finite fields.

The library computes Grothendieck splitting types of the restricted
cotangent bundle, its Frobenius-twisted sibling and the tangent bundle of
the hypersurface along a rational curve, classifies curves as free or very
free, and checks the degree-window obstruction and dimension-jump
phenomena on everything it touches.
"""

from .classify import (
    BalancedPrediction,
    ClassificationReport,
    ProbeReport,
    TangentReport,
    WindowModel,
    balanced_model,
    chi_tx,
    classify,
    coefficient_vanishing_probe,
    forbidden_windows,
    prime_power,
    tangent_report,
)
from .errors import (
    CertificateFailure,
    DomainError,
    FermatRCError,
    UsageError,
    WindowViolation,
)
from .fermat import (
    Curve,
    FermatParams,
    act_automorphism,
    compose_cover,
    expand_F,
    is_rnc,
    lift,
    make_line,
    roots_of_minus_one,
    validate,
)
from .ff import FieldCtx, find_irreducible
from .forms import Form, form_gcd
from .rng import SplitMix64, derive_seed
from .search import (
    SearchConfig,
    SurveyRow,
    alternating_solve,
    canonical_key,
    canonical_representative,
    enumerate_standard_lines,
    exhaustive_scan,
    projective_key,
    random_cover_family,
    survey,
)
from .splitbundle import (
    Generator,
    KernelPresentation,
    SplittingType,
    coordinates_in_basis,
    frobenius_pullback,
    h0,
    h0_tx_direct,
    module_generators,
    splitting_f,
    splitting_omega_p,
    splitting_t_p,
    splitting_tx,
    splitting_type,
    tx_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "BalancedPrediction",
    "CertificateFailure",
    "ClassificationReport",
    "Curve",
    "DomainError",
    "FermatParams",
    "FermatRCError",
    "FieldCtx",
    "Form",
    "Generator",
    "KernelPresentation",
    "ProbeReport",
    "SearchConfig",
    "SplitMix64",
    "SplittingType",
    "SurveyRow",
    "TangentReport",
    "UsageError",
    "WindowModel",
    "WindowViolation",
    "act_automorphism",
    "alternating_solve",
    "balanced_model",
    "canonical_key",
    "canonical_representative",
    "chi_tx",
    "classify",
    "coefficient_vanishing_probe",
    "compose_cover",
    "coordinates_in_basis",
    "derive_seed",
    "enumerate_standard_lines",
    "exhaustive_scan",
    "expand_F",
    "find_irreducible",
    "forbidden_windows",
    "form_gcd",
    "frobenius_pullback",
    "h0",
    "h0_tx_direct",
    "is_rnc",
    "lift",
    "make_line",
    "module_generators",
    "prime_power",
    "projective_key",
    "random_cover_family",
    "roots_of_minus_one",
    "splitting_f",
    "splitting_omega_p",
    "splitting_t_p",
    "splitting_tx",
    "splitting_type",
    "survey",
    "tangent_report",
    "tx_pipeline",
    "validate",
]
