"""zfhp: a numerical laboratory for zero-free half-plane criteria.

The package computes, on spaces of analytic functions over the unit disk,
the ingredients of a Nyman-Beurling-style approach to zero-free regions of
the Riemann zeta function: the generator family h_k and its shifted images,
evaluation functionals with proved tail bounds, weight-family
classification for weighted l2 spaces, Hardy-space quasi-norm estimates,
and Möbius-weighted convergence experiments.

Convention: h_k(z) = (1/k) (1-z)^(-1) log((1 + z + ... + z^(k-1))/k); the
1/k normalization is fixed throughout (some treatments omit it).
"""

from ._version import __version__
from .arith import (
    MobiusTable,
    build_mobius,
    mobius_logsum_over_k,
    mobius_sum_over_k,
)
from .errors import ConditioningError, DomainError, PoleError
from .functionals import (
    FunctionalEvaluation,
    lambda_apply,
)
from .norms import (
    QuadratureWarning,
    duren_coefficient_check,
    hardy_from_lq_check,
    hp_norm_estimate,
    lq_norm,
    reverse_holder_check,
)
from .series import (
    TruncatedSeries,
    hk_coeffs,
    ims_hk_coeffs,
)
from .special import (
    ZetaValue,
    f_k,
    fk_upper_bound,
    fk_values,
    g_k,
    lambda_on_constant,
    mellin_rho_alpha,
    mellin_step_pk,
    rho_alpha_tail_bound,
    zeta,
)
from .weights import (
    ClassificationResult,
    ProbeResult,
    WeightFamily,
    c4_halfplane,
    classify,
    extremal_probe,
    parse_weight_family,
    rm_sequence,
)

__all__ = [
    "__version__",
    "MobiusTable",
    "build_mobius",
    "mobius_sum_over_k",
    "mobius_logsum_over_k",
    "TruncatedSeries",
    "ims_hk_coeffs",
    "hk_coeffs",
    "ZetaValue",
    "f_k",
    "fk_values",
    "fk_upper_bound",
    "lambda_on_constant",
    "zeta",
    "g_k",
    "mellin_step_pk",
    "mellin_rho_alpha",
    "rho_alpha_tail_bound",
    "FunctionalEvaluation",
    "lambda_apply",
    "QuadratureWarning",
    "lq_norm",
    "hp_norm_estimate",
    "duren_coefficient_check",
    "hardy_from_lq_check",
    "reverse_holder_check",
    "WeightFamily",
    "ClassificationResult",
    "ProbeResult",
    "parse_weight_family",
    "c4_halfplane",
    "rm_sequence",
    "classify",
    "extremal_probe",
    "DomainError",
    "PoleError",
    "ConditioningError",
]
