"""The package's public names: a change to them is deliberate and recorded."""

import importlib.util

import zipfmonkey

PUBLIC_NAMES = [
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


def test_public_names_are_pinned():
    assert sorted(zipfmonkey.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in zipfmonkey.__all__:
        assert getattr(zipfmonkey, name) is not None, name


def test_brute_force_oracle_is_not_in_the_package():
    # the oracle is the tests' ground truth (tests/oracle.py); no command uses it
    assert importlib.util.find_spec("zipfmonkey.oracle") is None
