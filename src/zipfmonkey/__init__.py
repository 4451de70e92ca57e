"""Random-typing word model with unequal letter probabilities.

Computes the exact rank-probability structure of the word list, the
power-law exponent from sum(p_i**gamma) = 1, constructive envelope
certificates for the counting function, seeded simulation, and log-log
power-law fits.
"""

from .alphabet import (
    Alphabet,
    estimate_from_corpus,
    make_explicit,
    make_gusein_zade,
    make_uniform,
)
from .errors import BoundViolationError, ResourceGuardError
from .fit import (
    ComparisonReport,
    FitResult,
    compare,
    ols_loglog,
    predicted_exponent,
    rank_freq_from_levels,
)
from .gamma import GammaSolution, WeightVector, log_weights, rescale_weights, solve_gamma
from .pyramid import (
    BoundCertificate,
    Level,
    LevelTable,
    enumerate_levels,
    functional_equation_residual,
    p_of_rank,
    q_tilde_direct,
    q_tilde_recursive,
    rank_of_probability,
    verify_bounds,
    weight_events,
)
from .simulate import (
    FrequencyTable,
    RankFrequency,
    empirical_rank_freq,
    generate_words,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BoundCertificate",
    "BoundViolationError",
    "ComparisonReport",
    "FitResult",
    "FrequencyTable",
    "GammaSolution",
    "Level",
    "LevelTable",
    "RankFrequency",
    "ResourceGuardError",
    "WeightVector",
    "compare",
    "empirical_rank_freq",
    "enumerate_levels",
    "estimate_from_corpus",
    "functional_equation_residual",
    "generate_words",
    "log_weights",
    "make_explicit",
    "make_gusein_zade",
    "make_uniform",
    "ols_loglog",
    "p_of_rank",
    "predicted_exponent",
    "q_tilde_direct",
    "q_tilde_recursive",
    "rank_freq_from_levels",
    "rank_of_probability",
    "rescale_weights",
    "solve_gamma",
    "verify_bounds",
    "weight_events",
]
