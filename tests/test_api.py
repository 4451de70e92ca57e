"""The package's public names and each command's options: a change to them is deliberate."""

import argparse
import ast
import importlib.util
import inspect
import re
import shlex
from pathlib import Path

import zipfmonkey
from zipfmonkey.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")

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
    "generate_words",
    "log_weights",
    "make_explicit",
    "make_gusein_zade",
    "make_uniform",
    "ols_loglog",
    "predicted_exponent",
    "q_tilde_direct",
    "q_tilde_recursive",
    "rank_of_probability",
    "rescale_weights",
    "solve_gamma",
    "verify_bounds",
    "weight_events",
]

# each public callable's parameters, or a record type's fields: a new library
# knob is as deliberate as a new option (the two errors take a message)
PARAMETERS = {
    "Alphabet": ["letter_probs", "space_prob", "labels"],
    "BoundCertificate": ["c1", "c2", "base_interval_end", "verified_up_to", "event_count"],
    "ComparisonReport": ["fitted_slope", "predicted_slope", "abs_gap", "rank_window"],
    "FitResult": ["intercept", "slope", "r_squared", "n_points", "rank_window"],
    "FrequencyTable": ["entries"],
    "GammaSolution": ["gamma", "residual", "iterations"],
    "Level": ["weight", "rank_lo", "rank_hi", "log_prob"],
    "LevelTable": ["levels", "truncated"],
    "RankFrequency": ["runs"],
    "WeightVector": ["weights"],
    "compare": ["fit", "alphabet"],
    "empirical_rank_freq": ["counts"],
    "enumerate_levels": ["alphabet", "max_rank", "max_weight", "node_budget"],
    "estimate_from_corpus": ["text", "fold_case"],
    "generate_words": ["alphabet", "word_count", "seed", "word_cap"],
    "log_weights": ["alphabet"],
    "make_explicit": ["probs", "p0", "labels"],
    "make_gusein_zade": ["n", "p0"],
    "make_uniform": ["n", "p0"],
    "ols_loglog": ["points", "r_min", "r_max"],
    "predicted_exponent": ["alphabet"],
    "q_tilde_direct": ["weights", "x", "node_budget"],
    "q_tilde_recursive": ["weights", "x", "node_budget"],
    "rank_of_probability": ["alphabet", "f", "node_budget"],
    "rescale_weights": ["alphabet", "gamma"],
    "solve_gamma": ["alphabet"],
    "verify_bounds": ["weights", "x_max", "node_budget"],
    "weight_events": ["weights", "x_max", "node_budget"],
}

# each record's public accessors, the names that are neither its fields nor
# tuple's methods: a new accessor is as deliberate as a new field (a record
# not listed has none)
ACCESSORS = {
    "Alphabet": ["log_weights", "n"],
    "FrequencyTable": ["total_words"],
    "LevelTable": ["max_rank"],
    "WeightVector": ["L_max", "grid", "n", "normalization_defect", "normalized"],
}


# each subcommand's options: a new knob is a deliberate, reviewed change
ALPHABET = ["--alphabet", "--corpus", "--gusein-zade", "--p0", "--uniform"]
COMMAND_OPTIONS = {
    "certify": sorted(["--help", "--out", "--x-max", "-h", *ALPHABET]),
    "compare": sorted(["--help", "--in", "--out", "--window", "-h", *ALPHABET]),
    "fit": ["--help", "--in", "--out", "--plot-data", "--window", "-h"],
    "gamma": sorted(["--help", "--out", "-h", *ALPHABET]),
    "ingest": ["--alphabet-out", "--corpus", "--help", "--keep-case", "--out", "-h"],
    "levels": sorted(["--help", "--max-rank", "--max-weight", "--out", "-h", *ALPHABET]),
    "qfun": sorted(["--help", "--out", "--x-max", "-h", *ALPHABET]),
    "simulate": sorted(["--help", "--n-words", "--out", "--seed", "-h", *ALPHABET]),
}


def test_public_names_are_pinned():
    assert sorted(zipfmonkey.__all__) == PUBLIC_NAMES


def test_parameters_are_pinned():
    public = {name: getattr(zipfmonkey, name) for name in zipfmonkey.__all__}
    got = {
        name: list(inspect.signature(obj).parameters)
        for name, obj in public.items()
        if not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert got == PARAMETERS


def test_records_are_named_tuples():
    # one record idiom: every public record is a tuple whose fields are its pin
    records = {name: getattr(zipfmonkey, name) for name in PARAMETERS}
    records = {name: obj for name, obj in records.items() if isinstance(obj, type)}
    assert len(records) == 10
    assert [name for name, record in records.items() if not issubclass(record, tuple)] == []
    assert {name: list(record._fields) for name, record in records.items()} == {
        name: PARAMETERS[name] for name in records}


def test_record_accessors_are_pinned():
    records = {name: getattr(zipfmonkey, name) for name in PARAMETERS}
    accessors = {
        name: [a for a in sorted(set(dir(record)) - set(record._fields) - set(dir(tuple)))
               if not a.startswith("_")]
        for name, record in records.items() if isinstance(record, type)
    }
    assert {name: names for name, names in accessors.items() if names} == ACCESSORS


def command_options():
    """Each subcommand's option strings, as build_parser declares them."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: sorted(opt for action in sub._actions for opt in action.option_strings)
        for name, sub in commands.choices.items()
    }


def test_command_options_are_pinned():
    assert command_options() == COMMAND_OPTIONS


def test_every_public_name_resolves():
    for name in zipfmonkey.__all__:
        assert getattr(zipfmonkey, name) is not None, name


def readme_section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def quick_start_code():
    """The fenced Python block under "Library quick start"."""
    (code,) = re.findall(r"```python\n(.*?)```", readme_section("Library quick start"), re.DOTALL)
    return code


def test_readme_library_quick_start_runs():
    # the quick start, run as written
    names = {}
    exec(compile(quick_start_code(), "README.md", "exec"), names)
    gamma = names["sol"].gamma
    assert (f"{gamma:.4f}", f"{1.0 / gamma:.4f}") == ("0.8735", "1.1448")  # as its comment says


def test_readme_command_lines_parse():
    # the first fenced block under "Command line": command lines, backslash
    # continuations joined, each followed by indented comments; every command
    # has one, and ingest has one for each of its two outputs
    block = readme_section("Command line").split("```\n")[1]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line and not line.lstrip().startswith("#")]
    commands = []
    for line in lines:
        program, *argv = shlex.split(line)
        assert program == "zipfmonkey", line
        commands.append(build_parser().parse_args(argv).command)  # UsageError if it fails
    assert sorted(set(commands)) == sorted(COMMAND_OPTIONS)


def test_readme_counts_the_public_names():
    (count,) = re.findall(r"package's\s+(\d+)\s+public\s+names", README)
    assert int(count) == len(zipfmonkey.__all__)


def names_in(code, *, strings=False):
    """The names code refers to: each Name, Attribute and imported name, and
    with strings=True each string constant as well."""
    names = set()
    for node in ast.walk(ast.parse(code)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def unreached(names):
    """The names that no package module but __init__.py, no perfbench script
    (string constants included) and not the README quick start refers to."""
    reached = names_in(quick_start_code())
    for path in (ROOT / "src" / "zipfmonkey").glob("*.py"):
        if path.name != "__init__.py":
            reached |= names_in(path.read_text(encoding="utf-8"))
    for path in (ROOT / "perfbench").glob("*.py"):
        reached |= names_in(path.read_text(encoding="utf-8"), strings=True)
    return [name for name in names if name not in reached]


def test_every_public_name_is_reached():
    # the package keeps only what a command, the benchmark or the quick start
    # reaches; a check that only the tests need lives in tests/oracle.py.
    # q_tilde_recursive is reached only as a string, the target that
    # perfbench/tracing.py wraps by name, until ROADMAP item 17 moves it
    # into the tests together with that target
    assert unreached(zipfmonkey.__all__) == []
    # a name that only the tests refer to is reported
    assert unreached(["functional_equation_residual", "p_of_rank", "solve_gamma"]) == [
        "functional_equation_residual", "p_of_rank"]


def test_readme_names_every_option_and_no_other():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README))
    declared = {opt for opts in command_options().values() for opt in opts if opt[1] == "-"}
    assert named == declared - {"--help"}


def src_code_lines():
    """The lines of src/zipfmonkey/*.py that are neither blank, nor a '#'
    comment line, nor part of a module, class or function docstring."""
    total = 0
    for path in sorted((ROOT / "src" / "zipfmonkey").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        total += sum(1 for i, line in enumerate(text.splitlines(), 1)
                     if line.strip() and not line.lstrip().startswith("#") and i not in docstrings)
    return total


def test_src_code_lines_are_pinned():
    # a change to src/ states its size in the same diff: less code, or the
    # capability that pays for more
    assert src_code_lines() == 1093


def test_only_the_cli_reads_the_environment():
    # the two ZIPFMONKEY_* limits are read once, in cli.main; the library
    # takes them as its node_budget and word_cap arguments (reading the
    # environment on each call was measured slower; see ROADMAP)
    readers = [path.name for path in sorted((ROOT / "src" / "zipfmonkey").glob("*.py"))
               if names_in(path.read_text(encoding="utf-8")) & {"environ", "getenv"}]
    assert readers == ["cli.py"]
    # either spelling is found, imported or as an attribute
    assert {"getenv", "environ"} <= names_in("from os import getenv\nos.environ.get('X')")


def test_version_matches_pyproject():
    # a regex, not tomllib: the package supports Python 3.10
    pyproject = (ROOT / "pyproject.toml").read_text("utf-8")
    (version,) = re.findall(r'(?m)^version = "([^"]+)"$', pyproject)
    assert zipfmonkey.__version__ == version


def test_brute_force_oracle_is_not_in_the_package():
    # the oracle is the tests' ground truth (tests/oracle.py); no command uses it
    assert importlib.util.find_spec("zipfmonkey.oracle") is None
