"""The package's public names and each command's options: a change to them is deliberate."""

import argparse
import importlib.util

import zipfmonkey
from zipfmonkey.cli import build_parser

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


# each subcommand's options: a new knob is a deliberate, reviewed change
ALPHABET = ["--alphabet", "--corpus", "--gusein-zade", "--p0", "--uniform"]
COMMAND_OPTIONS = {
    "certify": sorted(["--help", "--out", "--x-max", "-h", *ALPHABET]),
    "compare": sorted(["--help", "--in", "--out", "--window", "-h", *ALPHABET]),
    "fit": ["--help", "--in", "--out", "--plot-data", "--window", "-h"],
    "gamma": sorted(["--help", "--out", "-h", *ALPHABET]),
    "ingest": ["--alphabet-out", "--corpus", "--help", "--keep-case", "--out", "-h"],
    "levels": sorted(
        ["--help", "--max-rank", "--max-weight", "--no-empty-word", "--out", "-h", *ALPHABET]
    ),
    "qfun": sorted(["--help", "--out", "--x-max", "-h", *ALPHABET]),
    "simulate": sorted(
        ["--help", "--n-words", "--out", "--seed", "--skip-empty", "-h", *ALPHABET]
    ),
}


def test_public_names_are_pinned():
    assert sorted(zipfmonkey.__all__) == PUBLIC_NAMES


def test_command_options_are_pinned():
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: sorted(opt for action in sub._actions for opt in action.option_strings)
        for name, sub in commands.choices.items()
    }
    assert options == COMMAND_OPTIONS


def test_every_public_name_resolves():
    for name in zipfmonkey.__all__:
        assert getattr(zipfmonkey, name) is not None, name


def test_brute_force_oracle_is_not_in_the_package():
    # the oracle is the tests' ground truth (tests/oracle.py); no command uses it
    assert importlib.util.find_spec("zipfmonkey.oracle") is None
