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
from typing import Sequence

from . import alphabet as alphabet_mod
from . import fit as fit_mod
from . import pyramid, simulate
from .errors import BoundViolationError, ResourceGuardError
from .gamma import log_weights, rescale_weights, solve_gamma

EPS_TOKEN = "<EPS>"

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


def _node_budget() -> int:
    return int(os.environ.get("ZIPFMONKEY_NODE_BUDGET", pyramid.DEFAULT_NODE_BUDGET))


def _word_cap() -> int:
    return int(os.environ.get("ZIPFMONKEY_WORD_CAP", simulate.DEFAULT_WORD_CAP))


# --- alphabet sources --------------------------------------------------------


def _add_alphabet_options(parser: _Parser, with_file_alias: bool = False) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--alphabet", metavar="FILE", help="alphabet file (text or JSON)")
    if with_file_alias:
        group.add_argument(
            "--alphabet-file", dest="alphabet", metavar="FILE", help=argparse.SUPPRESS
        )
    group.add_argument("--uniform", type=int, metavar="N", help="N equally likely letters")
    group.add_argument(
        "--gusein-zade", dest="gusein_zade", type=int, metavar="N",
        help="N letters under the Gusein-Zade law",
    )
    group.add_argument("--corpus", metavar="FILE", help="estimate the alphabet from a text file")
    parser.add_argument(
        "--p0", type=float, default=None,
        help="space probability (required with --uniform/--gusein-zade)",
    )


def _resolve_alphabet(args) -> alphabet_mod.Alphabet:
    if args.alphabet is not None:
        with open(args.alphabet, encoding="utf-8") as fh:
            return alphabet_mod.loads(fh.read())
    if args.uniform is not None:
        if args.p0 is None:
            raise UsageError("--uniform requires --p0")
        return alphabet_mod.make_uniform(args.uniform, args.p0)
    if args.gusein_zade is not None:
        if args.p0 is None:
            raise UsageError("--gusein-zade requires --p0")
        return alphabet_mod.make_gusein_zade(args.gusein_zade, args.p0)
    with open(args.corpus, encoding="utf-8") as fh:
        return alphabet_mod.estimate_from_corpus(fh.read())


def _write_output(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --- subcommands -------------------------------------------------------------


def _cmd_gamma(args) -> int:
    al = _resolve_alphabet(args)
    sol = solve_gamma(al, tol=args.tol)
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
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_levels(args) -> int:
    al = _resolve_alphabet(args)
    table = pyramid.enumerate_levels(
        al,
        max_rank=args.max_rank,
        max_weight=args.max_weight,
        node_budget=_node_budget(),
    )
    ln10 = math.log(10.0)
    lines = [
        "# format: v1 levels",
        "# columns: rank_lo\trank_hi\tlog10_prob\tweight\tcount",
    ]
    for lv in table:
        lo, hi = lv.rank_lo, lv.rank_hi
        if args.no_empty_word:
            if lv.rank_lo == 1:  # the empty word's level
                lo += 1
                if hi < lo:
                    continue
            lo -= 1
            hi -= 1
        lines.append(
            f"{lo}\t{hi}\t{lv.log_prob / ln10!r}\t{lv.weight!r}\t{lv.word_count}"
        )
    if table.truncated:
        lines.append("# truncated: node budget reached, trailing level dropped")
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_qfun(args) -> int:
    al = _resolve_alphabet(args)
    events = pyramid.weight_events(log_weights(al), args.x_max, node_budget=_node_budget())
    lines = ["# format: v1 qfun", "# columns: x\tq"]
    lines += [f"{x!r}\t{q}" for x, q in events]
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_certify(args) -> int:
    al = _resolve_alphabet(args)
    sol = solve_gamma(al)
    weights = rescale_weights(al, sol)
    lines = [
        "# format: v1 certificate",
        "# envelope check for (Q(x) + 1/(n-1)) * exp(-x) on rescaled weights",
        f"gamma={sol.gamma!r}",
    ]
    try:
        cert = pyramid.verify_bounds(weights, args.x_max, node_budget=_node_budget())
    except BoundViolationError as exc:
        lines += ["status=FAIL", f"# {exc}"]
        _write_output(args, "\n".join(lines) + "\n")
        return EXIT_VALIDATION
    lines += [
        f"c1={cert.c1!r}",
        f"c2={cert.c2!r}",
        f"base_interval_end={cert.base_interval_end!r}",
        f"verified_up_to={cert.verified_up_to!r}",
        f"event_count={cert.event_count}",
        "status=PASS",
    ]
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.out and args.seed is None:
        raise UsageError("--seed is required when --out is set (reproducible archives)")
    al = _resolve_alphabet(args)
    seed = args.seed if args.seed is not None else int.from_bytes(os.urandom(8), "big")
    table = simulate.generate_words(
        al,
        args.n_words,
        seed,
        streams=args.streams,
        skip_empty=args.skip_empty,
        word_cap=_word_cap(),
    )
    # (-count, word) pairs: most frequent first, ties in lexicographic word order
    ranked = sorted(zip([-c for c in table.entries.values()], table.entries))
    lines = [
        "# format: v1 word_count",
        f"# n_words={table.total_words} seed={seed} streams={args.streams}",
        "# columns: word\tcount",
    ]
    lines += [
        f"{simulate.render_word(w, al.labels, EPS_TOKEN)}\t{-c}" for c, w in ranked
    ]
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _read_tsv_rows(path: str) -> list[tuple[str, str]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"expected 2 columns, got {raw!r}")
            rows.append((parts[0], parts[1]))
    return rows


def _rank_freq_from_file(path: str, kind: str) -> simulate.RankFrequency:
    rows = _read_tsv_rows(path)
    if not rows:
        raise ValueError(f"no data rows in {path}")
    if kind == "auto":
        kind = "words"
        try:
            if all(int(a) >= 1 and 0.0 < float(b) <= 1.0 for a, b in rows):
                kind = "ranks"
        except ValueError:
            pass
    if kind == "ranks":
        pts = sorted((int(a), float(b)) for a, b in rows)
        return simulate.RankFrequency(tuple(pts))
    counts = {w: int(c) for w, c in rows}  # a repeated word: the last row wins
    total = sum(counts.values())
    ranked = sorted(counts.values(), reverse=True)
    return simulate.RankFrequency(tuple((i + 1, c / total) for i, c in enumerate(ranked)))


def _fit_from_args(args) -> tuple[fit_mod.FitResult, simulate.RankFrequency]:
    points = _rank_freq_from_file(args.infile, args.kind)
    r_min, r_max = args.window if args.window else (fit_mod.DEFAULT_R_MIN, None)
    return fit_mod.ols_loglog(points, r_min, r_max), points


def _cmd_fit(args) -> int:
    result, points = _fit_from_args(args)
    lines = [
        "# format: v1 fit",
        f"intercept={result.intercept!r}",
        f"slope={result.slope!r}",
        f"r_squared={result.r_squared!r}",
        f"n_points={result.n_points}",
        f"window_lo={result.rank_window[0]}",
        f"window_hi={result.rank_window[1]}",
    ]
    _write_output(args, "\n".join(lines) + "\n")
    if args.plot_data:
        rows = ["lg_r,lg_f,lg_f_fit"]
        for r, f in points:
            if result.rank_window[0] <= r <= result.rank_window[1]:
                lg_r = math.log10(r)
                rows.append(
                    f"{lg_r!r},{math.log10(f)!r},{result.intercept + result.slope * lg_r!r}"
                )
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
    return EXIT_OK


def _cmd_compare(args) -> int:
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
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _tokenize_words(text: str, fold_case: bool = True) -> dict[str, int]:
    counts: dict[str, int] = {}
    for token in text.split():
        word = "".join(ch for ch in token if ch.isalpha())
        if fold_case:
            word = word.lower()
        if word:
            counts[word] = counts.get(word, 0) + 1
    return counts


def _cmd_ingest(args) -> int:
    with open(args.corpus, encoding="utf-8") as fh:
        text = fh.read()
    counts = _tokenize_words(text, fold_case=not args.keep_case)
    if not counts:
        raise ValueError(f"no words found in {args.corpus}")
    total = sum(counts.values())
    ranked = sorted(counts.values(), reverse=True)
    lines = [
        "# format: v1 rank_freq",
        f"# source={args.corpus} words={total} distinct={len(counts)}",
        "# columns: rank\tfreq",
    ]
    lines += [f"{i + 1}\t{c / total!r}" for i, c in enumerate(ranked)]
    _write_output(args, "\n".join(lines) + "\n")
    if args.alphabet_out:
        al = alphabet_mod.estimate_from_corpus(
            text, fold_case=not args.keep_case
        )
        as_json = args.alphabet_out.endswith(".json")
        with open(args.alphabet_out, "w", encoding="utf-8") as fh:
            fh.write(alphabet_mod.to_json(al) if as_json else alphabet_mod.to_text(al))
    return EXIT_OK


# --- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="zipfmonkey",
        description="Random-typing word model: exponents, exact rank structure, "
        "envelope certificates, simulation, and power-law fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="solve the exponent equation sum(p_i**g) = 1")
    _add_alphabet_options(p)
    p.add_argument("--tol", type=float, default=1e-14, help="bisection bracket width")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("levels", help="exact probability classes with rank spans")
    _add_alphabet_options(p)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--max-rank", type=int, help="enumerate levels through this rank")
    g.add_argument("--max-weight", type=float, help="enumerate levels up to this weight")
    p.add_argument(
        "--no-empty-word", action="store_true",
        help="drop the empty word and shift ranks down by one (reporting only)",
    )
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_levels)

    p = sub.add_parser("qfun", help="counting function at its jump points")
    _add_alphabet_options(p)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_qfun)

    p = sub.add_parser("certify", help="certify the exponential envelope constants")
    _add_alphabet_options(p)
    p.add_argument("--x-max", type=float, required=True)
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("simulate", help="draw words from the model, emit word counts")
    _add_alphabet_options(p, with_file_alias=True)
    p.add_argument("--n-words", type=int, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--streams", type=int, default=1)
    p.add_argument("--skip-empty", action="store_true", help="drop empty words, renormalize")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="OLS power-law fit of a rank-frequency table")
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument(
        "--kind", choices=("auto", "ranks", "words"), default="auto",
        help="input columns: rank/freq or word/count",
    )
    p.add_argument("--window", type=int, nargs=2, metavar=("R_MIN", "R_MAX"))
    p.add_argument("--plot-data", metavar="FILE", help="CSV of lg_r,lg_f,lg_f_fit")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("compare", help="fitted slope against the model slope -1/gamma")
    _add_alphabet_options(p)
    p.add_argument("--in", dest="infile", required=True, metavar="FILE")
    p.add_argument("--kind", choices=("auto", "ranks", "words"), default="auto")
    p.add_argument("--window", type=int, nargs=2, metavar=("R_MIN", "R_MAX"))
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("ingest", help="corpus to rank-frequency TSV and estimated alphabet")
    p.add_argument("--corpus", required=True, metavar="FILE")
    p.add_argument("--keep-case", action="store_true")
    p.add_argument("--alphabet-out", metavar="FILE")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=_cmd_ingest)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
