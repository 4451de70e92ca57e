"""Command-line interface.

Subcommands wire the alphabet constructors to the analysis, simulation,
fitting, and ingestion machinery.  TSV is the interchange format (UTF-8,
tab-separated, '#' comments, empty word rendered as <EPS>); every output
starts with a '# format: v1 ...' header line.  Exit codes: 0 ok, 1 usage,
2 validation, 3 resource guard, 4 I/O.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import Counter
from contextlib import nullcontext
from itertools import chain
from typing import Iterable, Sequence

from . import alphabet as alphabet_mod
from . import fit as fit_mod
from . import pyramid, simulate
from .errors import BoundViolationError, ResourceGuardError, quote
from .gamma import log_weights, rescale_weights, solve_gamma

_WRITE_CHARS = 1 << 18  # characters gathered before a write

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_IO = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise UsageError(message)


def _env_limit(name: str, default: int) -> int:
    """The limit set by environment variable name (an integer >= 1), else default."""
    raw = os.environ.get(name)
    try:
        limit = default if raw is None else int(raw)
    except ValueError:
        limit = 0  # refused below, as every value under 1 is
    if limit < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {raw!r}")
    return limit


# --- alphabet sources --------------------------------------------------------


def _resolve_alphabet(args) -> alphabet_mod.Alphabet:
    if args.p0 is not None and args.uniform is None and args.gusein_zade is None:
        raise UsageError("--p0 goes only with --uniform/--gusein-zade; a file sets its own p0")
    if args.alphabet is not None:
        with open(args.alphabet, encoding="utf-8") as fh:
            return alphabet_mod.loads(fh.read())
    if args.corpus is not None:
        with open(args.corpus, encoding="utf-8") as fh:
            return alphabet_mod.estimate_from_corpus(fh.read())
    uniform = args.uniform is not None
    flag, n = ("--uniform", args.uniform) if uniform else ("--gusein-zade", args.gusein_zade)
    if args.p0 is None:
        raise UsageError(f"{flag} requires --p0")
    if n > args.node_budget:  # refused before any letter is built
        raise ResourceGuardError(
            f"{flag} {n} letters exceed the node budget {args.node_budget}; "
            "raise ZIPFMONKEY_NODE_BUDGET to allow more"
        )
    return (alphabet_mod.make_uniform if uniform else alphabet_mod.make_gusein_zade)(n, args.p0)


def _write(path: str | None, lines: Iterable[str]) -> None:
    """Write the items, each with a newline, to the file at path, or to stdout
    for the path None.  An item is one line, or several whole lines joined by
    "\n".  The file is opened only here, once the command's checks have passed:
    an open that fails raises its OSError and leaves no file."""
    with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as fh:
        # one write per _WRITE_CHARS or so: a write per item costs more than the
        # join, and a write of at most _WRITE_CHARS plus one item bounds memory
        block, size = [], 0
        for item in lines:
            block.append(item)
            size += len(item) + 1
            if size >= _WRITE_CHARS:
                fh.write("\n".join(block) + "\n")
                block, size = [], 0
        if block:
            fh.write("\n".join(block) + "\n")


# --- subcommands -------------------------------------------------------------
# Each computes its whole result, then returns (exit code, output lines): one
# output per command, which main writes to --out or stdout (fit --plot-data and
# ingest --alphabet-out select which output that is).  Only rendering is left
# to the lazy lines, and main opens the --out file only after the command
# returns, so a command that fails writes nothing.  levels leaves its walk to
# them too: past its checks it ends only in "# truncated".

Lines = Iterable[str]


def _cmd_gamma(args) -> tuple[int, Lines]:
    al = _resolve_alphabet(args)
    sol = solve_gamma(al)
    lines = [
        "# format: v1 gamma",
        f"# alphabet: n={al.n}, p0={al.space_prob!r}",
        f"# root of sum(p_i**g) = 1: gamma = {sol.gamma:.6f}, so ranked frequencies",
        f"# decay like r**(-{1.0 / sol.gamma:.6f}); residual {sol.residual:.2e} "
        f"after {sol.iterations} bisections",
        f"gamma={sol.gamma!r}",
        f"inv_gamma={1.0 / sol.gamma!r}",
        f"residual={sol.residual!r}",
        f"iterations={sol.iterations}",
    ]
    return EXIT_OK, lines


def _cmd_levels(args) -> tuple[int, Lines]:
    al = _resolve_alphabet(args)
    levels = pyramid.level_rows(
        al, max_rank=args.max_rank, max_weight=args.max_weight, node_budget=args.node_budget
    )
    ln10 = math.log(10.0)

    def rows():
        try:
            for weight, lo, hi, log_prob in levels:
                yield f"{lo}\t{hi}\t{log_prob / ln10!r}\t{weight!r}\t{hi - lo + 1}"
        except ResourceGuardError as exc:  # raised in place of the partial level
            yield f"# truncated: {exc}"

    header = ["# format: v1 levels", "# columns: rank_lo\trank_hi\tlog10_prob\tweight\tcount"]
    return EXIT_OK, chain(header, rows())


def _cmd_qfun(args) -> tuple[int, Lines]:
    al = _resolve_alphabet(args)
    events = pyramid.weight_events(log_weights(al), args.x_max, node_budget=args.node_budget)
    header = ["# format: v1 qfun", "# columns: x\tq"]
    return EXIT_OK, chain(header, (f"{x!r}\t{q}" for x, q in events))


def _cmd_certify(args) -> tuple[int, Lines]:
    al = _resolve_alphabet(args)
    sol = solve_gamma(al)
    weights = rescale_weights(al, sol)
    lines = [
        "# format: v1 certificate",
        "# envelope check for (Q(x) + 1/(n-1)) * exp(-x) on rescaled weights",
        f"gamma={sol.gamma!r}",
    ]
    try:
        cert = pyramid.verify_bounds(weights, args.x_max, node_budget=args.node_budget)
    except BoundViolationError as exc:
        return EXIT_VALIDATION, lines + ["status=FAIL", f"# {exc}"]
    lines += [
        f"c1={cert.c1!r}",
        f"c2={cert.c2!r}",
        f"base_interval_end={cert.base_interval_end!r}",
        f"verified_up_to={cert.verified_up_to!r}",
        f"event_count={cert.event_count}",
        "status=PASS",
    ]
    return EXIT_OK, lines


def _cmd_simulate(args) -> tuple[int, Lines]:
    if args.out and args.seed is None:
        raise UsageError("--seed is required when --out is set (reproducible archives)")
    al = _resolve_alphabet(args)
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "big")
    table = simulate.generate_words(al, args.n_words, seed, word_cap=args.word_cap)
    header = [
        "# format: v1 word_count",
        f"# n_words={table.total_words} seed={seed}",
        "# columns: word\tcount",
    ]
    return EXIT_OK, chain(header, simulate.word_lines(table, al.labels))


def _rank_freq_from_file(path: str) -> simulate.RankFrequency:
    """The curve of a word<TAB>count table, read as simulate and ingest write it.

    Parsed in bulk: the data lines (stripped, neither blank nor '#') are joined
    by tabs and split once.  Each distinct count string is parsed once, and one
    set of the words finds a repeated word: only then is a dict of the words
    built, in which the last row of a word wins."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    # split as file iteration splits (on "\n" after newline translation), not by splitlines;
    # a line without a tab becomes three empty cells, so the cell count below fails on it
    rows = [s if "\t" in s else "\t\t" for s in map(str.strip, text.split("\n"))
            if s and s[0] != "#"]
    del text
    if not rows:
        raise ValueError(f"no data rows in {path}")
    n_rows = len(rows)
    joined = "\t".join(rows)
    del rows  # not held while the cells are split and the counts ranked
    cells = joined.split("\t")
    del joined
    if len(cells) != 2 * n_rows:  # a row of one column or of three or more
        with open(path, encoding="utf-8") as fh:  # find it again, to name it
            for raw in fh:
                s = raw.strip()
                if s and s[0] != "#" and s.count("\t") != 1:
                    raise ValueError(f"expected 2 columns, got {quote(raw)}")
        raise ValueError(f"{path} changed while it was read")
    words, values = cells[0::2], cells[1::2]
    try:
        parsed = {v: int(v) for v in set(values)}
    except ValueError:
        for w, c in zip(words, values):  # find the first such row, to name it
            try:
                int(c)
            except ValueError:
                raise ValueError(f"row {quote(w)} {quote(c)}: count is not an integer") from None
    counts = map(parsed.__getitem__, values)
    if len(set(words)) < n_rows:  # a repeated word: the last row wins
        counts = dict(zip(words, counts)).values()
    return simulate.empirical_rank_freq(counts)


def _fit_from_args(args) -> tuple[fit_mod.FitResult, simulate.RankFrequency]:
    points = _rank_freq_from_file(args.infile)
    r_min, r_max = args.window if args.window else (fit_mod.DEFAULT_R_MIN, None)
    return fit_mod.ols_loglog(points, r_min, r_max), points


def _cmd_fit(args) -> tuple[int, Lines]:
    result, points = _fit_from_args(args)
    if args.plot_data:
        lo, hi = result.rank_window
        lg = ((math.log10(r), math.log10(f)) for r, f in simulate.expand_runs(points.runs, lo, hi))
        rows = (f"{x!r},{y!r},{result.intercept + result.slope * x!r}" for x, y in lg)
        return EXIT_OK, chain(["# format: v1 fit_plot", "lg_r,lg_f,lg_f_fit"], rows)
    lines = [
        "# format: v1 fit",
        f"intercept={result.intercept!r}",
        f"slope={result.slope!r}",
        f"r_squared={result.r_squared!r}",
        f"n_points={result.n_points}",
        f"window_lo={result.rank_window[0]}",
        f"window_hi={result.rank_window[1]}",
    ]
    return EXIT_OK, lines


def _cmd_compare(args) -> tuple[int, Lines]:
    result, _pts = _fit_from_args(args)
    al = _resolve_alphabet(args)
    report = fit_mod.compare(result, al)
    lines = [
        "# format: v1 compare",
        f"fitted_slope={report.fitted_slope!r}",
        f"predicted_slope={report.predicted_slope!r}",
        f"abs_gap={report.abs_gap!r}",
        f"window_lo={report.rank_window[0]}",
        f"window_hi={report.rank_window[1]}",
    ]
    return EXIT_OK, lines


def _tokenize_words(text: str, fold_case: bool = True) -> dict[str, int]:
    """Letters-only words per whitespace token; each distinct token is filtered once,
    and folded letter by letter as the estimated alphabet folds its letters."""
    counts: dict[str, int] = {}
    for token, c in Counter(text.split()).items():
        word = "".join(ch for ch in token if ch.isalpha())
        if fold_case:
            word = alphabet_mod.fold_letters(word)
        if word:
            counts[word] = counts.get(word, 0) + c
    return counts


def _cmd_ingest(args) -> tuple[int, Lines]:
    with open(args.corpus, encoding="utf-8") as fh:
        text = fh.read()
    if args.alphabet_out:
        al = alphabet_mod.estimate_from_corpus(text, fold_case=not args.keep_case)
        return EXIT_OK, [alphabet_mod.to_text(al).removesuffix("\n")]
    counts = _tokenize_words(text, fold_case=not args.keep_case)
    if not counts:
        raise ValueError(f"no words found in {args.corpus}")
    header = [
        "# format: v1 word_count",
        f"# source={args.corpus} words={sum(counts.values())} distinct={len(counts)}",
        "# columns: word\tcount",
    ]
    # corpus words are letters only: no "\0", "\t" or "\n", and no empty word
    return EXIT_OK, chain(header, simulate.word_lines(simulate.FrequencyTable(counts), ()))


# --- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="zipfmonkey",
        description="Random-typing word model: exponents, exact rank structure, "
        "envelope certificates, simulation, and power-law fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    out = _Parser(add_help=False)
    out.add_argument("--out", metavar="FILE", help="write the output here, not to stdout")
    table = _Parser(add_help=False)  # the word<TAB>count table read by fit and compare
    table.add_argument("--in", dest="infile", required=True, metavar="FILE")
    table.add_argument("--window", type=int, nargs=2, metavar=("R_MIN", "R_MAX"))
    source = _Parser(add_help=False)  # the alphabet, read by _resolve_alphabet
    group = source.add_mutually_exclusive_group(required=True)
    group.add_argument("--alphabet", metavar="FILE", help="alphabet file")
    group.add_argument("--uniform", type=int, metavar="N", help="N equally likely letters")
    group.add_argument(
        "--gusein-zade", dest="gusein_zade", type=int, metavar="N",
        help="N letters under the Gusein-Zade law",
    )
    group.add_argument("--corpus", metavar="FILE", help="estimate the alphabet from a text file")
    source.add_argument(
        "--p0", type=float, default=None,
        help="space probability (required with --uniform/--gusein-zade)",
    )

    p = sub.add_parser(
        "gamma", parents=[out, source], help="solve the exponent equation sum(p_i**g) = 1"
    )
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser(
        "levels", parents=[out, source], help="exact probability classes with rank spans"
    )
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--max-rank", type=int, help="enumerate levels through this rank")
    g.add_argument("--max-weight", type=float, help="enumerate levels up to this weight")
    p.set_defaults(func=_cmd_levels)

    p = sub.add_parser("qfun", parents=[out, source], help="counting function at its jump points")
    p.add_argument("--x-max", type=float, required=True)
    p.set_defaults(func=_cmd_qfun)

    p = sub.add_parser(
        "certify", parents=[out, source], help="certify the exponential envelope constants"
    )
    p.add_argument("--x-max", type=float, required=True)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "simulate", parents=[out, source], help="draw words from the model, emit word counts"
    )
    p.add_argument("--n-words", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser(
        "fit", parents=[out, table], help="OLS power-law fit of a word-count table's curve"
    )
    p.add_argument("--plot-data", action="store_true", help="write the lg_r,lg_f,lg_f_fit CSV")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser(
        "compare", parents=[out, table, source],
        help="fitted slope against the model slope -1/gamma",
    )
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "ingest", parents=[out], help="corpus to word-count TSV, or to its estimated alphabet"
    )
    p.add_argument("--corpus", required=True, metavar="FILE")
    p.add_argument("--keep-case", action="store_true")
    p.add_argument("--alphabet-out", action="store_true", help="write the estimated alphabet")
    p.set_defaults(func=_cmd_ingest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.node_budget = _env_limit("ZIPFMONKEY_NODE_BUDGET", pyramid.DEFAULT_NODE_BUDGET)
        args.word_cap = _env_limit("ZIPFMONKEY_WORD_CAP", simulate.DEFAULT_WORD_CAP)
        code, lines = args.func(args)
        _write(args.out, lines)
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ResourceGuardError, MemoryError) as exc:
        print(f"resource guard: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
