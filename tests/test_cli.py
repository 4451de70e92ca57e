"""CLI subcommands, file round trips, exit codes."""

import contextlib
import hashlib
import importlib
import importlib.util
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zipfmonkey import alphabet as am
from zipfmonkey import (
    enumerate_levels,
    log_weights,
    make_explicit,
    make_gusein_zade,
    make_uniform,
    q_tilde_direct,
    rescale_weights,
    solve_gamma,
    weight_events,
)
from zipfmonkey import cli as cli_mod
from zipfmonkey import fit as fit_mod
from zipfmonkey import simulate
from zipfmonkey.cli import main
from zipfmonkey.errors import BoundViolationError


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(text):
    pairs = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs


def data_digest(text):
    """sha256 of the output's data rows, '#' comment lines excluded."""
    rows = "".join(line + "\n" for line in text.splitlines() if not line.startswith("#"))
    return hashlib.sha256(rows.encode()).hexdigest()


def seeded_corpus(seed, chars, letters):
    """Text over `letters` CJK ideographs with Zipf letter frequencies."""
    rng = random.Random(seed)
    symbols = [chr(0x4E00 + i) for i in range(letters)]
    weights = [1.0 / (i + 1) for i in range(letters)]
    return "".join(rng.choices(symbols + [" "], weights + [0.3], k=chars))


@pytest.fixture
def workdir(tmp_path):
    """A directory holding a small corpus.txt and a rank/freq ranks.tsv."""
    (tmp_path / "corpus.txt").write_text("the cat sat on the mat\nand then ran\n")
    (tmp_path / "ranks.tsv").write_text("".join(f"{r}\t{0.5 / r!r}\n" for r in range(1, 31)))
    return tmp_path


def tsv_rows(text):
    return [
        line.split("\t")
        for line in text.splitlines()
        if line and not line.startswith("#")
    ]


class TestGammaCommand:
    def test_uniform_26(self, capsys):
        code, out, _ = run(capsys, "gamma", "--uniform", "26", "--p0", str(1 / 27))
        assert code == 0
        assert out.startswith("# format: v1 gamma")
        values = kv(out)
        assert float(values["gamma"]) == pytest.approx(math.log(26) / math.log(27), abs=1e-10)
        assert float(values["inv_gamma"]) == pytest.approx(math.log(27) / math.log(26), abs=1e-10)
        assert abs(float(values["residual"])) <= 1e-12
        assert int(values["iterations"]) > 0

    def test_alphabet_file_source(self, capsys, tmp_path):
        path = tmp_path / "alpha.tsv"
        path.write_text(am.to_text(make_explicit((0.6, 0.2), 0.2)))
        code, out, _ = run(capsys, "gamma", "--alphabet", str(path))
        assert code == 0
        assert float(kv(out)["gamma"]) == pytest.approx(0.7271601514124259, abs=1e-10)

    def test_json_alphabet_file(self, capsys, tmp_path):
        # an alphabet file is text; a JSON one fails on its first line
        path = tmp_path / "alpha.json"
        path.write_text('{\n  "space": 0.2,\n  "letters": {"a": 0.6, "b": 0.2}\n}\n')
        code, out, err = run(capsys, "gamma", "--alphabet", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 1: expected '<label> <prob>', got '{'\n"

    def test_uniform_requires_p0(self, capsys):
        code, _, err = run(capsys, "gamma", "--uniform", "26")
        assert code == 1
        assert "p0" in err

    @pytest.mark.parametrize("source", ["--alphabet", "--corpus"])
    def test_p0_with_a_file_source_exits_1(self, capsys, tmp_path, source):
        # the file sets the space probability; --p0 used to be ignored silently
        path = tmp_path / "source.txt"
        path.write_text("space 0.2\na 0.5\nb 0.3\n")
        code, out, err = run(capsys, "gamma", source, str(path), "--p0", "0.9")
        assert (code, out) == (1, "")
        assert "--p0 goes only with --uniform/--gusein-zade" in err

    def test_tol_option_is_gone(self, capsys):
        argv = ["gamma", "--gusein-zade", "26", "--p0", "0.18", "--tol", "1e-14"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert "--tol" in err


class TestLevelsCommand:
    def test_uniform_table(self, capsys):
        code, out, _ = run(
            capsys, "levels", "--uniform", "2", "--p0", str(1 / 3), "--max-rank", "7"
        )
        assert code == 0
        rows = tsv_rows(out)
        assert [(r[0], r[1], r[4]) for r in rows] == [
            ("1", "1", "1"),
            ("2", "3", "2"),
            ("4", "7", "4"),
        ]
        assert float(rows[0][3]) == 0.0
        assert float(rows[1][2]) == pytest.approx(math.log10(1 / 9))

    def test_no_empty_word_shifts_ranks(self, capsys):
        code, out, _ = run(
            capsys, "levels", "--uniform", "2", "--p0", str(1 / 3),
            "--max-rank", "7", "--no-empty-word",
        )
        rows = tsv_rows(out)
        assert [(r[0], r[1]) for r in rows] == [("1", "2"), ("3", "6")]

    def test_no_empty_word_counts_the_shifted_span(self, capsys, tmp_path):
        # "", a, aa and aaa weigh within TIE_EPS of 0: one level of 4 words,
        # of which 3 remain once the empty word is dropped
        path = tmp_path / "tied.txt"
        path.write_text("space 2e-10\na 0.9999999997\nb 1e-10\n")
        code, out, _ = run(
            capsys, "levels", "--alphabet", str(path), "--max-rank", "6", "--no-empty-word",
        )
        assert code == 0
        rows = tsv_rows(out)
        assert [(r[0], r[1], r[4]) for r in rows] == [("1", "3", "3"), ("4", "7", "4")]

    def test_counts_in_full_decimal(self, capsys):
        code, out, _ = run(
            capsys, "levels", "--uniform", "26", "--p0", str(1 / 27), "--max-rank", "100000"
        )
        assert code == 0
        for row in tsv_rows(out):
            assert "e" not in row[4] and "E" not in row[4]
            int(row[4])


DYADIC = "a 0.5\nb 0.25\nc 0.125\nspace 0.125\n"
TIED = "space 0.2\na 0.3\nb 0.3\nc 0.2\n"

# (flags, alphabet) per source; a file source is written under tmp_path
LEVEL_SOURCES = {
    "gz5": lambda tmp: (["--gusein-zade", "5", "--p0", "0.18"], make_gusein_zade(5, 0.18)),
    "gz26": lambda tmp: (["--gusein-zade", "26", "--p0", "0.18"], make_gusein_zade(26, 0.18)),
    "u3": lambda tmp: (["--uniform", "3", "--p0", "0.1"], make_uniform(3, 0.1)),
    "tied": lambda tmp: alphabet_file(tmp, TIED),
    "dyadic": lambda tmp: alphabet_file(tmp, DYADIC),
    "corpus": lambda tmp: corpus_file(tmp, seeded_corpus(7, 5000, 30)),
}
# (options, budget, truncates); a budget of None leaves the default
LEVEL_OPTIONS = {
    "max-rank": (["--max-rank", "3000"], None, False),
    "max-weight": (["--max-weight", "9.5"], None, False),
    "no-empty-word": (["--max-rank", "3000", "--no-empty-word"], None, False),
    "truncated": (["--max-rank", str(10**9), "--no-empty-word"], 400, True),
}


def alphabet_file(tmp, text):
    path = tmp / "alphabet.txt"
    path.write_text(text)
    return ["--alphabet", str(path)], am.loads(text)


def corpus_file(tmp, text):
    path = tmp / "corpus.txt"
    path.write_text(text, encoding="utf-8")
    return ["--corpus", str(path)], am.estimate_from_corpus(text)


def rendered_levels(al, options, budget):
    """The levels rows as rendered from an enumerate_levels table."""
    option, value = options[:2]
    bound = {"max_rank": int(value)} if option == "--max-rank" else {"max_weight": float(value)}
    table = enumerate_levels(al, node_budget=budget or cli_mod.pyramid.DEFAULT_NODE_BUDGET, **bound)
    # the table's own stream against the jump walk: every level through the
    # bound, or through the first level that reaches max_rank
    levels = table.levels
    jumps = weight_events(log_weights(al), bound.get("max_weight", levels[-1].weight))
    assert [(lv.weight, lv.rank_hi) for lv in levels] == jumps
    if "max_rank" in bound and not table.truncated:
        assert levels[-2].rank_hi < bound["max_rank"] <= levels[-1].rank_hi
    rows = []
    for lv in levels:
        lo, hi = lv.rank_lo, lv.rank_hi
        if "--no-empty-word" in options:
            lo, hi = max(lo, 2) - 1, hi - 1
            if hi < lo:
                continue
        rows.append(f"{lo}\t{hi}\t{lv.log_prob / math.log(10.0)!r}\t{lv.weight!r}\t{hi - lo + 1}")
    if table.truncated:
        rows.append(f"# truncated: node budget {budget} reached, trailing level dropped; "
                    "raise ZIPFMONKEY_NODE_BUDGET to allow more")
    return rows, table.truncated


class TestLevelsStreamMatchesTable:
    """levels renders its rows straight off the level walk; they are the rows
    of the enumerate_levels table, truncation line included."""

    @pytest.mark.parametrize("option", LEVEL_OPTIONS)
    @pytest.mark.parametrize("source", LEVEL_SOURCES)
    def test_rows(self, capsys, monkeypatch, tmp_path, source, option):
        flags, al = LEVEL_SOURCES[source](tmp_path)
        options, budget, truncates = LEVEL_OPTIONS[option]
        if budget is not None:
            monkeypatch.setenv("ZIPFMONKEY_NODE_BUDGET", str(budget))
        code, out, err = run(capsys, "levels", *flags, *options)
        assert code == 0, err
        expected, truncated = rendered_levels(al, options, budget)
        assert truncated == truncates
        assert len(expected) > 3
        assert out.splitlines()[2:] == expected


class TestQfunCommand:
    def test_matches_weight_events(self, capsys):
        code, out, _ = run(capsys, "qfun", "--uniform", "2", "--p0", str(1 / 3), "--x-max", "4")
        assert code == 0
        rows = tsv_rows(out)
        events = weight_events(log_weights(make_uniform(2, 1 / 3)), 4.0)
        assert len(rows) == len(events)
        for (x, q), row in zip(events, rows):
            assert float(row[0]) == pytest.approx(x, abs=1e-12)
            assert int(row[1]) == q

    def test_jump_within_tie_above_x_max(self, capsys):
        # a jump up to TIE_EPS above --x-max is counted at x_max, as in levels
        wv = log_weights(make_gusein_zade(3, 0.2))
        jump = weight_events(wv, 6.0)[-3][0]
        x_max = jump - 5e-10
        code, out, _ = run(
            capsys, "qfun", "--gusein-zade", "3", "--p0", "0.2", "--x-max", repr(x_max)
        )
        assert code == 0
        rows = tsv_rows(out)
        assert float(rows[-1][0]) == jump > x_max
        assert int(rows[-1][1]) == q_tilde_direct(wv, x_max)
        for x, q in rows:
            assert int(q) == q_tilde_direct(wv, float(x))


class TestCertifyCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "certify", "--gusein-zade", "3", "--p0", "0.2", "--x-max", "20")
        assert code == 0
        values = kv(out)
        assert values["status"] == "PASS"
        assert 0 < float(values["c1"]) < float(values["c2"])
        assert float(values["verified_up_to"]) == 20.0
        assert int(values["event_count"]) > 0

    def test_jump_within_tie_above_x_max(self, capsys):
        # the last event lies above x_max; its interval ends at the event
        al = make_gusein_zade(3, 0.2)
        wv = rescale_weights(al, solve_gamma(al))
        events = weight_events(wv, 12.0)
        jump = events[-2][0]
        x_max = jump - 5e-10
        code, out, _ = run(
            capsys, "certify", "--gusein-zade", "3", "--p0", "0.2", "--x-max", repr(x_max)
        )
        assert code == 0
        values = kv(out)
        assert values["status"] == "PASS"
        assert float(values["verified_up_to"]) == x_max
        assert int(values["event_count"]) == len(events) - 1

    def test_rejects_small_x_max(self, capsys):
        code, _, err = run(capsys, "certify", "--uniform", "2", "--p0", "0.3", "--x-max", "0.1")
        assert code == 2
        assert "x_max" in err

    def test_failed_check_is_written(self, capsys, monkeypatch, tmp_path):
        def violated(*args, **kwargs):
            raise BoundViolationError("upper envelope broken at x=3.5")

        monkeypatch.setattr(cli_mod.pyramid, "verify_bounds", violated)
        out_path = tmp_path / "cert.txt"
        code, out, _ = run(
            capsys, "certify", "--uniform", "2", "--p0", "0.3", "--x-max", "5",
            "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        text = out_path.read_text()
        assert text.startswith("# format: v1 certificate\n")
        assert text.endswith("status=FAIL\n# upper envelope broken at x=3.5\n")


class TestSimulateCommand:
    def test_deterministic_output(self, capsys):
        args = ("simulate", "--uniform", "2", "--p0", "0.4", "--n-words", "500", "--seed", "9")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        rows = tsv_rows(out1)
        assert sum(int(c) for _w, c in rows) == 500
        assert rows[0][0] == "<EPS>"  # p0=0.4 makes the empty word the mode

    def test_negative_seed_names_the_rule(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--uniform", "2", "--p0", "0.4", "--n-words", "10", "--seed", "-1"
        )
        assert code == 2
        assert out == ""
        assert "seed must be a nonnegative integer, got -1" in err

    def test_skip_empty_with_no_word_left_exits_2_and_writes_nothing(self, capsys, tmp_path):
        out_path = tmp_path / "t.tsv"
        code, out, err = run(
            capsys, "simulate", "--uniform", "2", "--p0", "0.99", "--n-words", "3",
            "--seed", "1", "--skip-empty", "--out", str(out_path),
        )
        assert (code, out) == (2, "")
        assert err == "error: skip_empty dropped all 3 words drawn with seed 1\n"
        assert not out_path.exists()

    def test_seed_required_with_out(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--uniform", "2", "--p0", "0.4",
            "--n-words", "10", "--out", str(tmp_path / "w.tsv"),
        )
        assert code == 1
        assert "seed" in err

    @pytest.mark.parametrize("bad", ["ab"])
    def test_label_that_corrupts_rows_exits_2(self, capsys, tmp_path, bad):
        # "a"+"b" would render like "ab"
        path = tmp_path / "alpha.txt"
        path.write_text(f"space 0.25\na 0.25\n{bad} 0.25\nb 0.25\n")
        code, out, err = run(
            capsys, "simulate", "--alphabet", str(path), "--n-words", "100", "--seed", "1"
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad letter label {bad!r}: it starts with the label")

    @pytest.mark.parametrize("labels", [["<", "EPS>", "b"], ["<EPS>", "b"]])
    def test_labels_that_spell_the_empty_word_exit_2(self, capsys, tmp_path, labels):
        # "<"+"EPS>" would render like the empty word, a second "<EPS>" row
        path = tmp_path / "alpha.txt"
        path.write_text("space 0.2\n" + "".join(f"{x} {0.8 / len(labels)!r}\n" for x in labels))
        code, out, err = run(
            capsys, "simulate", "--alphabet", str(path), "--n-words", "20000", "--seed", "1"
        )
        assert (code, out) == (2, "")
        spelled = " + ".join(repr(x) for x in labels[:-1])
        assert err.startswith(f"error: bad letter labels: {spelled} spells '<EPS>'")


class TestFitAndCompare:
    def test_fit_exact_line(self, capsys, tmp_path):
        path = tmp_path / "ranks.tsv"
        lines = ["# format: v1 rank_freq"]
        lines += [f"{r}\t{10 ** (-1 - math.log10(r))!r}" for r in range(1, 101)]
        path.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "fit", "--in", str(path), "--window", "1", "100")
        assert code == 0
        values = kv(out)
        assert float(values["slope"]) == pytest.approx(-1.0, abs=1e-12)
        assert float(values["intercept"]) == pytest.approx(-1.0, abs=1e-12)
        assert float(values["r_squared"]) == pytest.approx(1.0, abs=1e-12)

    def test_round_trip_simulate_fit_compare(self, capsys, tmp_path):
        words = tmp_path / "words.tsv"
        code, _, _ = run(
            capsys, "simulate", "--gusein-zade", "4", "--p0", "0.2",
            "--n-words", "50000", "--seed", "5", "--out", str(words),
        )
        assert code == 0
        code, out, _ = run(capsys, "fit", "--in", str(words), "--window", "5", "200")
        assert code == 0
        slope = float(kv(out)["slope"])
        code, out, _ = run(
            capsys, "compare", "--in", str(words), "--gusein-zade", "4", "--p0", "0.2",
            "--window", "5", "200",
        )
        assert code == 0
        values = kv(out)
        assert float(values["fitted_slope"]) == pytest.approx(slope, abs=1e-12)
        assert float(values["abs_gap"]) == pytest.approx(
            abs(slope - float(values["predicted_slope"])), abs=1e-12
        )

    def test_plot_data(self, capsys, tmp_path):
        path = tmp_path / "ranks.tsv"
        path.write_text("\n".join(f"{r}\t{1 / r**1.2!r}" for r in range(1, 60)) + "\n")
        plot = tmp_path / "plot.csv"
        code, _, _ = run(
            capsys, "fit", "--in", str(path), "--window", "2", "50",
            "--plot-data", str(plot),
        )
        assert code == 0
        lines = plot.read_text().splitlines()
        assert lines[0] == "lg_r,lg_f,lg_f_fit"
        assert len(lines) == 50  # header + ranks 2..50

    @pytest.mark.parametrize("window", [[], ["--window", "0", "3"]], ids=["default", "0-3"])
    def test_rank_below_one_names_the_rule(self, capsys, tmp_path, window):
        path = tmp_path / "r0.tsv"
        path.write_text("0\t0.5\n1\t0.4\n2\t0.3\n3\t0.2\n")
        code, out, err = run(capsys, "fit", "--in", str(path), *window)  # floats: ranks
        assert (code, out) == (2, "")
        assert err == "error: ranks start at 1, got rank 0\n"

    def test_row_of_neither_kind_names_the_rule(self, capsys, tmp_path):
        path = tmp_path / "neither.tsv"
        path.write_text("w1\t0.5\nw2\t0.25\nw3\t0.1\n")
        code, out, err = run(capsys, "fit", "--in", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: row 'w1' '0.5' is not rank<TAB>freq, which a table is read as "
            "unless every second column is an integer\n"
        )

    @pytest.mark.parametrize("kind", ["auto", "ranks", "words"])
    def test_kind_option_is_gone(self, capsys, tmp_path, kind):
        path = tmp_path / "ranks.tsv"
        path.write_text("".join(f"{r}\t{0.5 / r!r}\n" for r in range(1, 31)))
        code, out, err = run(capsys, "fit", "--in", str(path), "--kind", kind)
        assert (code, out) == (1, "")
        assert err == f"usage error: unrecognized arguments: --kind {kind}\n"

    def test_auto_reads_numeric_words_as_words(self, capsys, tmp_path):
        # integer counts make a word table, even with numeric words and every count 1
        path = tmp_path / "numbers.tsv"
        path.write_text("12\t1\n3\t1\n45\t1\n7\t1\n")
        code, out, _ = run(capsys, "fit", "--in", str(path), "--window", "1", "4")
        assert code == 0
        assert kv(out)["n_points"] == "4"
        assert float(kv(out)["slope"]) == 0.0

    def test_window_below_rank_one_is_rejected(self, capsys, tmp_path):
        path = tmp_path / "words.tsv"
        path.write_text("".join(f"w{i}\t{1000 // i}\n" for i in range(1, 400)))
        code, out, err = run(
            capsys, "compare", "--in", str(path), "--uniform", "3", "--p0", "0.2",
            "--window", "0", "300",
        )
        assert (code, out) == (2, "")
        assert err == "error: rank window [0, 300] must have 1 <= r_min <= r_max\n"

    def test_compare_expands_only_the_window(self, capsys, monkeypatch, tmp_path):
        # 5,000 words in 50 runs of equal count: only ranks 10..300 become points
        path = tmp_path / "words.tsv"
        path.write_text("".join(f"w{i}\t{60 - i // 100}\n" for i in range(5000)))
        expanded = []

        def counted(runs, r_min, r_max):
            for point in simulate.expand_runs(runs, r_min, r_max):
                expanded.append(point)
                yield point

        monkeypatch.setattr(fit_mod, "expand_runs", counted)
        code, out, err = run(
            capsys, "compare", "--in", str(path), "--uniform", "3", "--p0", "0.2",
            "--window", "10", "300",
        )
        assert code == 0, err
        assert [r for r, _f in expanded] == list(range(10, 301))

    @pytest.mark.parametrize("command", ["fit", "compare"])
    def test_word_counts_last_row_wins(self, capsys, tmp_path, command):
        rows = [f"w{i}\t{100 // i}\n" for i in range(1, 31)]
        clean, dup = tmp_path / "clean.tsv", tmp_path / "dup.tsv"
        clean.write_text("".join(rows))
        dup.write_text("w1\t7\nw5\t900\n" + "".join(rows))  # later rows override
        outs = []
        for path in (clean, dup):
            argv = [command, "--in", str(path)]
            if command == "compare":
                argv += ["--gusein-zade", "4", "--p0", "0.2"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["fit", "compare"])
    @pytest.mark.parametrize("bad", ["0", "-4"])
    def test_word_count_not_positive_exits_2(self, capsys, tmp_path, command, bad):
        path = tmp_path / "words.tsv"
        path.write_text("".join(f"w{i}\t{100 // i}\n" for i in range(1, 31)) + f"z\t{bad}\n")
        argv = [command, "--in", str(path)]
        if command == "compare":
            argv += ["--gusein-zade", "4", "--p0", "0.2"]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "positive" in err


def reference_rank_freq(path):
    """The per-row reader the bulk reader replaced, kept as its reference."""
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
    if not rows:
        raise ValueError(f"no data rows in {path}")
    try:
        counts = {w: int(c) for w, c in rows}
    except ValueError:
        pts = sorted(map(cli_mod._rank_row, rows))
        return simulate.RankFrequency(tuple((r, r, f) for r, f in pts))
    return simulate.empirical_rank_freq(counts.values())


def read_outcome(reader, path):
    """The curve, or the exit code main gives the error and its message."""
    try:
        return reader(path)
    except (ValueError, ArithmeticError) as exc:  # main's exit 2
        return 2, str(exc)


_WS = "\x0b\x0c\x85\u2028 "  # whitespace to str.strip and str.split, not to file iteration
_WORD = st.text("ab7", min_size=1, max_size=3)  # numeric words among them
_CELL = st.builds(str.__add__, _WORD, st.text("ab7" + _WS, max_size=3))  # of a tab row
_COUNT = st.one_of(st.integers(1, 40).map(str),
                   st.sampled_from(["+3", " 4", "1_0", "03", "\u0663"]))  # int() reads each
_VALUE = st.one_of(_COUNT, st.integers(-1, 0).map(str), st.floats(1e-4, 1.0).map(repr),
                   st.just("x"))
_EDGE = st.sampled_from(["", "", " ", "\t", "\x0c", "\u2028"])  # around a row


@st.composite
def rows_file(draw):
    """A table of word rows, of rank rows, or of both mixed with rows of 1,
    3 or more columns and values of neither kind; with comments and blank
    lines, ended by \\n, \\r\\n or a lone \\r."""
    mode = draw(st.sampled_from(["words", "ranks", "mixed"]))
    kinds = {"words": ["row"] * 4, "ranks": ["rank"] * 4, "mixed": ["row", "rank", "one", "three"]}
    lines = []
    for k in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds[mode] + ["comment", "blank"]))
        if kind == "row":
            value = draw(_VALUE if mode == "mixed" else _COUNT)
            if draw(st.booleans()):
                line = draw(_CELL) + "\t" + value
            else:
                line = draw(_WORD) + draw(st.sampled_from([" ", "  ", "\x0b", "\x85"])) + value
        elif kind == "rank":
            line = str(k + 1) + draw(st.sampled_from(["\t", " "])) + repr(1.0 / (k + 1))
        elif kind == "comment":
            line = "#" + draw(_CELL) + "\t" + draw(_VALUE)
        elif kind == "blank":
            line = draw(st.text(_WS + "\t", max_size=3))
        elif kind == "one":
            line = draw(_CELL)
        else:
            sep = draw(st.sampled_from(["\t", "\t\t", " "]))
            line = draw(_WORD) + sep + draw(_WORD) + sep + draw(_VALUE)
        lines.append(draw(_EDGE) + line + draw(_EDGE))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


class TestBulkReader:
    """_rank_freq_from_file parses the table in bulk as the per-row reader did."""

    @settings(max_examples=300, deadline=None)
    @given(text=rows_file())
    @example(text="w\t3\r\nv 2\rz\t3\t\n# c\r\n\n")
    @example(text="a\x85b\t2\nc\x0bd\t1\n")  # one row each: not line ends to a file
    @example(text="w\t3\nv\t1\nw\t1\n")  # the last row of w wins
    @example(text="w\t3\nv\t+3\nu\t03\nw\t\u0663\nz\t1_0\n")  # spellings int() merges
    @example(text="w\t3\nv\t2\nu\t1\nz\t0.5\n")  # the one non-integer is in the last row
    @example(text="1\t0.5\n2\t0.25\n3 0.125\n")
    @example(text="w\t3\nv\t2\t\tx\r")  # a bad last line with no newline
    @example(text="w\t3\nv\nu\t1\t2\n")  # 1 and 3 columns: as many cells as 2 and 2
    @example(text="w\t3\nv 1 2\n")
    @example(text="# only comments\n\n \t\n")
    def test_equals_per_row_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "bulk-reader.tsv"
        path.write_bytes(text.encode("utf-8"))
        expected = read_outcome(reference_rank_freq, path)
        assert read_outcome(cli_mod._rank_freq_from_file, path) == expected


class TestWordTableRoundTrip:
    """A simulated table read back whole: counts repeat, words do not."""

    @pytest.mark.parametrize(
        "source, p0, n_words",
        [(("--gusein-zade", 5), "0.18", 20_000), (("--uniform", 26), "0.037037", 10_000)],
        ids=["gz5", "u26"],
    )
    def test_equals_the_simulated_counts(self, capsys, tmp_path, source, p0, n_words):
        (flag, n), path = source, tmp_path / "words.tsv"
        argv = ["simulate", flag, str(n), "--p0", p0, "--n-words", str(n_words), "--seed", "1"]
        assert run(capsys, *argv, "--out", str(path))[0] == 0
        al = (make_gusein_zade if flag == "--gusein-zade" else make_uniform)(n, float(p0))
        table = simulate.generate_words(al, n_words, 1)
        expected = simulate.empirical_rank_freq(table.entries.values())
        assert cli_mod._rank_freq_from_file(path) == expected
        # rows reversed, then the first word (now the rarest) again with another count
        rows = [line for line in path.read_text().splitlines() if line[0] != "#"][::-1]
        word, count = rows[0].split("\t")
        path.write_text("".join(f"{row}\n" for row in rows) + f"{word}\t{int(count) + 5}\n")
        points = cli_mod._rank_freq_from_file(path)
        assert points == reference_rank_freq(path)
        assert points != expected


class _RecordingStdout:
    """A stand-in stdout that records each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


class TestWriteBlocks:
    @pytest.mark.parametrize("kind", ["pieces", "lines"])
    def test_a_write_holds_the_bound_and_one_item(self, monkeypatch, kind):
        if kind == "pieces":  # up to _RUN_SLICE lines each, as simulate writes them
            table = simulate.FrequencyTable(
                {chr(65 + i % 26) * 12 + str(i): 1 + i % 3 for i in range(60_000)}
            )
            items = list(simulate.word_lines(table, [chr(97 + i) for i in range(128)]))
        else:
            items = [f"{i}\t{1.0 / (i + 1)!r}" for i in range(100_000)]
        out = _RecordingStdout()
        monkeypatch.setattr(sys, "stdout", out)
        cli_mod._write(None, iter(items))
        assert "".join(out.writes) == "".join(item + "\n" for item in items)
        longest = max(len(item) + 1 for item in items)
        assert len(out.writes) > 2
        assert max(map(len, out.writes)) <= cli_mod._WRITE_CHARS + longest


class TestIngest:
    def test_corpus_to_rank_freq_and_alphabet(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("The cat sat.  The cat ran!\nThe end.")
        alpha_out = tmp_path / "alpha.tsv"
        code, out, _ = run(
            capsys, "ingest", "--corpus", str(corpus), "--alphabet-out", str(alpha_out)
        )
        assert code == 0
        rows = tsv_rows(out)
        assert float(rows[0][1]) == pytest.approx(3 / 8)  # "the" three times of 8
        assert abs(sum(float(f) for _r, f in rows) - 1.0) < 1e-9
        al = am.loads(alpha_out.read_text())
        assert al.n >= 2

    def test_alphabet_out_json(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat on the mat")
        alpha_out = tmp_path / "alpha.json"
        code, _, _ = run(
            capsys, "ingest", "--corpus", str(corpus), "--alphabet-out", str(alpha_out)
        )
        assert code == 0
        # the one alphabet format, whatever the file's name
        expected = am.to_text(am.estimate_from_corpus("the cat sat on the mat"))
        assert alpha_out.read_text() == expected

    @pytest.mark.parametrize("name", ["alpha.txt", "alpha.json"])
    def test_alphabet_out_reads_back(self, capsys, tmp_path, name):
        # "İ" lowers to "i" plus a combining dot, which would start with the label "i"
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("İstanbul is in it\n")
        alpha_out = tmp_path / name
        code, _, _ = run(
            capsys, "ingest", "--corpus", str(corpus), "--alphabet-out", str(alpha_out)
        )
        assert code == 0
        code, out, _ = run(capsys, "gamma", "--alphabet", str(alpha_out))
        assert code == 0
        assert "n=9" in out
        assert {"i", "İ"} <= set(am.loads(alpha_out.read_text()).labels)

    def test_corpus_without_words_is_refused(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("123 456\n--- !!!\n")
        ranks = tmp_path / "ranks.tsv"
        code, out, err = run(capsys, "ingest", "--corpus", str(corpus), "--out", str(ranks))
        assert (code, out, err) == (2, "", f"error: no words found in {corpus}\n")
        assert not ranks.exists()

    def test_ingest_output_feeds_fit(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        vocab = [f"w{chr(97 + i)}" for i in range(26)]
        words = [w for i, w in enumerate(vocab) for _ in range(26 - i)]
        corpus.write_text(" ".join(words))
        ranks = tmp_path / "ranks.tsv"
        code, _, _ = run(capsys, "ingest", "--corpus", str(corpus), "--out", str(ranks))
        assert code == 0
        code, out, _ = run(capsys, "fit", "--in", str(ranks), "--window", "1", "26")
        assert code == 0
        assert float(kv(out)["slope"]) < 0


def tokenize_per_occurrence(text, fold_case=True):
    """The tokenizer as first written: every token occurrence filtered anew."""
    counts = {}
    for token in text.split():
        # each letter folded alone, as the alphabet folds it: a letter whose
        # lower case is two code points (U+0130) stays as it is
        word = "".join(
            ch.lower() if fold_case and len(ch.lower()) == 1 else ch
            for ch in token if ch.isalpha()
        )
        if word:
            counts[word] = counts.get(word, 0) + 1
    return counts


@pytest.mark.parametrize("fold_case", [True, False])
@pytest.mark.parametrize(
    "text",
    [
        "The cat sat.  The cat ran!\nThe end. the",
        "İstanbul istanbul İSTANBUL i̇stanbul",
        "Straße STRASSE straße strasse ẞ",
        "r2d2 R2D2 42 4x4 -- ... ¿qué? qué",
        "",
        "ΣΑΣ σασ ΟΔΟΣ οδος",
    ],
    ids=["ascii", "dotted-capital-i", "sharp-s", "digits-punctuation", "empty", "final-sigma"],
)
def test_tokenize_counts_each_distinct_token_once(text, fold_case):
    assert cli_mod._tokenize_words(text, fold_case) == tokenize_per_occurrence(text, fold_case)


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "gamma")[0] == 1
        assert run(capsys, "levels", "--uniform", "2", "--p0", "0.2")[0] == 1

    def test_validation_error(self, capsys):
        code, _, err = run(capsys, "gamma", "--uniform", "1", "--p0", "0.5")
        assert code == 2
        assert "letters" in err

    @pytest.mark.parametrize("command, option, value", [
        ("qfun", "--x-max", "inf"),
        ("qfun", "--x-max", "nan"),
        ("levels", "--max-weight", "inf"),
        ("levels", "--max-weight", "nan"),
        ("certify", "--x-max", "inf"),
        ("qfun", "--x-max", "-inf"),
        ("levels", "--max-weight", "-inf"),
        ("certify", "--x-max", "-inf"),
        ("certify", "--x-max", "nan"),
    ])
    def test_non_finite_bound_names_the_rule(self, capsys, tmp_path, command, option, value):
        out_path = tmp_path / "out.tsv"
        code, out, err = run(
            capsys, command, "--gusein-zade", "5", "--p0", "0.18", f"{option}={value}",
            "--out", str(out_path),
        )
        assert code == 2
        assert err == f"error: weight bound must be a finite number, got {value}\n"
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("command, option", [("qfun", "--x-max"), ("levels", "--max-weight")])
    def test_bound_below_the_empty_word_lists_nothing(self, capsys, command, option):
        # -1 + TIE_EPS < 0: not even the empty word is counted
        code, out, err = run(capsys, command, "--gusein-zade", "5", "--p0", "0.18", f"{option}=-1")
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == 2 and out.startswith(f"# format: v1 {command}\n")

    def test_resource_guard(self, capsys, monkeypatch):
        monkeypatch.setenv("ZIPFMONKEY_NODE_BUDGET", "50")
        code, _, err = run(
            capsys, "qfun", "--uniform", "3", "--p0", "0.1", "--x-max", "30"
        )
        assert code == 3
        assert "budget" in err

    def test_node_budget_names_its_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("ZIPFMONKEY_NODE_BUDGET", "50")
        code, _, err = run(
            capsys, "qfun", "--gusein-zade", "3", "--p0", "0.2", "--x-max", "30"
        )
        assert code == 3
        assert "budget 50" in err
        assert "ZIPFMONKEY_NODE_BUDGET" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("source", ["--uniform", "--gusein-zade"])
    @pytest.mark.parametrize("command, options", [
        ("gamma", []),
        ("levels", ["--max-rank", "10"]),
        ("qfun", ["--x-max", "3"]),
        ("certify", ["--x-max", "3"]),
        ("simulate", ["--n-words", "10", "--seed", "1"]),
        ("compare", ["--in", "ranks.tsv"]),
    ])
    def test_alphabet_above_node_budget_exits_3_unbuilt(
        self, capsys, monkeypatch, tmp_path, source, command, options
    ):
        def no_build(*args):
            raise AssertionError("built the alphabet")

        monkeypatch.chdir(tmp_path)
        Path("ranks.tsv").write_text("".join(f"{r}\t{1.0 / r}\n" for r in range(1, 20)))
        monkeypatch.setattr(am, "make_uniform", no_build)
        monkeypatch.setattr(am, "make_gusein_zade", no_build)
        code, _, err = run(capsys, command, source, str(10**12), "--p0", "0.5", *options)
        assert code == 3
        assert "node budget 10000000" in err
        assert "ZIPFMONKEY_NODE_BUDGET" in err
        assert "Traceback" not in err

    def test_alphabet_size_limit_is_the_node_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("ZIPFMONKEY_NODE_BUDGET", "30")
        assert run(capsys, "gamma", "--gusein-zade", "30", "--p0", "0.2")[0] == 0
        code, _, err = run(capsys, "gamma", "--gusein-zade", "31", "--p0", "0.2")
        assert code == 3
        assert "budget 30" in err
        monkeypatch.setenv("ZIPFMONKEY_NODE_BUDGET", "abc")
        assert run(capsys, "gamma", "--uniform", "3", "--p0", "0.2")[0] == 2

    def test_levels_truncation_names_its_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("ZIPFMONKEY_NODE_BUDGET", "500")
        code, out, _ = run(
            capsys, "levels", "--uniform", "3", "--p0", "0.1", "--max-rank", "1000000"
        )
        assert code == 0
        last = out.splitlines()[-1]
        assert last.startswith("# truncated")
        assert "budget 500" in last
        assert "ZIPFMONKEY_NODE_BUDGET" in last

    def test_io_error(self, capsys):
        code, _, err = run(capsys, "gamma", "--alphabet", "/nonexistent/alpha.tsv")
        assert code == 4

    def test_word_cap_env(self, capsys, monkeypatch):
        monkeypatch.setenv("ZIPFMONKEY_WORD_CAP", "10")
        code, _, err = run(
            capsys, "simulate", "--uniform", "2", "--p0", "0.3",
            "--n-words", "100", "--seed", "1",
        )
        assert code == 3  # a resource guard, as the cap on letters is
        assert "ZIPFMONKEY_WORD_CAP" in err

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    @pytest.mark.parametrize(
        "variable, argv",
        [
            ("ZIPFMONKEY_NODE_BUDGET", ["gamma", "--uniform", "3", "--p0", "0.2"]),
            (
                "ZIPFMONKEY_WORD_CAP",
                ["simulate", "--uniform", "2", "--p0", "0.3", "--n-words", "10", "--seed", "1"],
            ),
            # commands that use neither limit validate both as well
            ("ZIPFMONKEY_NODE_BUDGET", ["fit", "--in", "ranks.tsv"]),
            ("ZIPFMONKEY_WORD_CAP", ["ingest", "--corpus", "corpus.txt"]),
        ],
        ids=["node-budget", "word-cap", "fit-node-budget", "ingest-word-cap"],
    )
    def test_invalid_limit_names_its_variable(
        self, capsys, monkeypatch, workdir, variable, argv, value
    ):
        monkeypatch.chdir(workdir)
        monkeypatch.setenv(variable, value)
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert variable in err
        assert "Traceback" not in err

    def test_word_cap_counts_letters_past_int64(self, capsys):
        # at p0 = 1e-300 the word lengths hit numpy's geometric ceiling
        # 2**63 - 1: 1000 of them sum far past 2**63
        code, out, err = run(
            capsys, "simulate", "--uniform", "2", "--p0", "1e-300",
            "--n-words", "1000", "--seed", "1",
        )
        assert (code, out) == (3, "")
        assert "9223372036854775806000 letters" in err
        assert "ZIPFMONKEY_WORD_CAP" in err

    def test_word_cap_bounds_letters(self, capsys, monkeypatch):
        # 1000 words at p0 = 1e-6 need about 10**9 letters
        monkeypatch.setenv("ZIPFMONKEY_WORD_CAP", str(10**6))
        code, _, err = run(
            capsys, "simulate", "--uniform", "2", "--p0", "1e-6",
            "--n-words", "1000", "--seed", "1",
        )
        assert code == 3
        assert "ZIPFMONKEY_WORD_CAP" in err
        assert "Traceback" not in err


class TestOutputFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--uniform", "2", "--p0", "0.5"],
            ["levels", "--gusein-zade", "4", "--p0", "0.2", "--max-rank", "50"],
            ["qfun", "--uniform", "3", "--p0", "0.2", "--x-max", "4"],
            ["certify", "--gusein-zade", "3", "--p0", "0.2", "--x-max", "6"],
            ["simulate", "--uniform", "3", "--p0", "0.3", "--n-words", "100", "--seed", "1"],
            ["fit", "--in", "ranks.tsv"],
            ["compare", "--uniform", "3", "--p0", "0.2", "--in", "ranks.tsv"],
            ["ingest", "--corpus", "corpus.txt"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_flag_writes_file(self, capsys, monkeypatch, workdir, argv):
        monkeypatch.chdir(workdir)
        code, stdout, _ = run(capsys, *argv)
        assert code == 0
        assert stdout.startswith("# format: v1 ")
        code, out, _ = run(capsys, *argv, "--out", "out.txt")
        assert code == 0
        assert out == ""
        assert Path("out.txt").read_bytes() == stdout.encode()

    def test_failed_command_creates_no_file(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("ZIPFMONKEY_NODE_BUDGET", "50")
        out_path = tmp_path / "qfun.tsv"
        code, out, _ = run(
            capsys, "qfun", "--uniform", "3", "--p0", "0.1", "--x-max", "30",
            "--out", str(out_path),
        )
        assert code == 3
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["fit", "--in", "ranks.tsv", "--plot-data", "side.txt"],
            ["ingest", "--corpus", "corpus.txt", "--alphabet-out", "side.txt"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_that_cannot_be_opened_leaves_no_side_file(self, capsys, monkeypatch, workdir,
                                                           argv):
        monkeypatch.chdir(workdir)
        code, out, err = run(capsys, *argv, "--out", str(Path("missing", "out.txt")))
        assert (code, out) == (4, "")
        assert err.startswith("i/o error: ")
        assert not Path("side.txt").exists()
        code, _out, _err = run(capsys, *argv, "--out", "out.txt")
        assert code == 0 and Path("side.txt").exists()

    def test_format_header_everywhere(self, capsys):
        for args in (
            ("gamma", "--uniform", "2", "--p0", "0.5"),
            ("levels", "--uniform", "2", "--p0", "0.5", "--max-rank", "3"),
            ("qfun", "--uniform", "2", "--p0", "0.5", "--x-max", "2"),
            ("certify", "--uniform", "2", "--p0", "0.5", "--x-max", "5"),
            ("simulate", "--uniform", "2", "--p0", "0.5", "--n-words", "10", "--seed", "1"),
        ):
            _code, out, _ = run(capsys, *args)
            assert out.startswith("# format: v1 "), args[0]


class TestExactOutputsPinned:
    """Data rows of the exact commands, digests taken before the level
    generator was rewritten."""

    @pytest.mark.parametrize(
        "argv, budget, digest",
        [
            (
                ("levels", "--gusein-zade", "26", "--p0", "0.18", "--max-rank", "20000"),
                None,
                "4fb10cae51360341e7286beb5a43621645bdc3c42e91b73aa53bfb08b0582847",
            ),
            (
                ("qfun", "--gusein-zade", "5", "--p0", "0.18", "--x-max", "20"),
                None,
                "7d9530def65c756bc54a0b9761ea6a6f66459b1238720a012792d8ce9a7708a7",
            ),
            (
                ("certify", "--gusein-zade", "5", "--p0", "0.18", "--x-max", "20"),
                None,
                "83e7b73a67089d029d4a8d87c2892826905d418ea0aaad4eda91661394906974",
            ),
            (
                ("levels", "--uniform", "3", "--p0", "0.1", "--max-rank", "1000000"),
                "500",
                "2d00920e1fb41631351829616b18e2068cd5ac0ca5a9db1b42373428c9b8aa50",
            ),
        ],
        ids=["levels-gz26", "qfun-gz5", "certify-gz5", "levels-u3-budget500"],
    )
    def test_digest(self, capsys, monkeypatch, argv, budget, digest):
        if budget is not None:
            monkeypatch.setenv("ZIPFMONKEY_NODE_BUDGET", budget)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert data_digest(out) == digest
        assert ("# truncated" in out) == (budget is not None)

    def test_corpus_levels_digest(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(seeded_corpus(40, 20000, 40), encoding="utf-8")
        code, out, _ = run(capsys, "levels", "--corpus", str(corpus), "--max-rank", "20000")
        assert code == 0
        assert data_digest(out) == (
            "6703fa0f80465c7e88fa95624d7ba716bfcc8e97e4a9923e3c6ab0c4a927c71a"
        )

    def test_wide_alphabet_levels(self, capsys, monkeypatch, tmp_path):
        # 1,500 letters once exhausted memory; now well inside a small budget
        h = math.fsum(1.0 / (i + 1) for i in range(1500))
        al = make_explicit([0.82 / ((i + 1) * h) for i in range(1500)], 0.18)
        path = tmp_path / "wide.tsv"
        path.write_text(am.to_text(al))
        monkeypatch.setenv("ZIPFMONKEY_NODE_BUDGET", "100000")
        code, out, err = run(capsys, "levels", "--alphabet", str(path), "--max-rank", "2000")
        assert code == 0, err
        assert "# truncated" not in out
        assert int(tsv_rows(out)[-1][1]) >= 2000


class TestLevelsMemory:
    def test_bytes_per_budgeted_point(self, capsys, monkeypatch, tmp_path):
        # levels holds the walk's heap and one block of output lines, not a
        # record per level: the memory that another 2*10**4 budgeted lattice
        # points add, on 26 distinct weights where each point is its own level,
        # stays under 250 B a point (a Level per row took about 380 B)
        def traced_peak(budget):
            monkeypatch.setenv("ZIPFMONKEY_NODE_BUDGET", str(budget))
            tracemalloc.start()
            try:
                code = main(["levels", "--gusein-zade", "26", "--p0", "0.18",
                             "--max-rank", str(10**30), "--out", str(tmp_path / "levels.tsv")])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            return peak

        traced_peak(1000)  # imports and first-call caches, outside the measure
        low, high = traced_peak(2 * 10**4), traced_peak(4 * 10**4)
        assert (high - low) / (2 * 10**4) < 250
        assert (tmp_path / "levels.tsv").read_text().endswith("ZIPFMONKEY_NODE_BUDGET to allow more\n")


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class TestCurveOutputsPinned:
    """Outputs of the commands that read or write rank-frequency curves,
    digests taken before curves became runs of equal frequency."""

    @pytest.fixture(scope="class")
    def words(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("curves") / "words.tsv"
        code = main([
            "simulate", "--gusein-zade", "5", "--p0", "0.18", "--n-words", "20000",
            "--seed", "7", "--out", str(path),
        ])
        assert code == 0
        return path

    def test_compare(self, capsys, words):
        code, out, _ = run(
            capsys, "compare", "--in", str(words), "--gusein-zade", "5", "--p0", "0.18"
        )
        assert code == 0
        assert sha(out) == "2d09a09db450c08713ef53aea30ff299505114b0b62be4b874a3cca2b0b2059a"

    def test_fit_plot_data(self, capsys, words, tmp_path):
        plot = tmp_path / "plot.csv"
        code, out, _ = run(
            capsys, "fit", "--in", str(words), "--window", "10", "300", "--plot-data", str(plot)
        )
        assert code == 0
        assert sha(out) == "b0626f877c034a6f33194220849b0ea4bdc049653f932ae44b8c3aafb278ef72"
        assert sha(plot.read_text()) == (
            "50e69309d7031fc5379547c1a5a86cc8b1c30c7aefc960071f5572b719d06f39"
        )

    def test_fit_ranks_of_a_simulated_table(self, capsys, words, tmp_path):
        # the table's own curve written one rank per row: ties give equal freqs
        counts = sorted((int(c) for _w, c in tsv_rows(words.read_text())), reverse=True)
        ranks = tmp_path / "ranks.tsv"
        ranks.write_text("".join(f"{i + 1}\t{c / 20000!r}\n" for i, c in enumerate(counts)))
        code, out, _ = run(capsys, "fit", "--in", str(ranks))
        assert code == 0
        assert sha(out) == "38ecce621ac7d457a37e240f991c1e41a9a092694abfaca2435ab8073ec29e54"

    def test_rank_file_with_gaps(self, capsys, tmp_path):
        # triangular ranks, frequencies flat over each three, rows in reverse
        rows = [f"{k * (k + 1) // 2}\t{0.4 / (1 + k // 3) ** 1.7!r}\n" for k in range(1, 81)]
        ranks, plot = tmp_path / "gaps.tsv", tmp_path / "plot.csv"
        ranks.write_text("".join(reversed(rows)))
        code, out, _ = run(
            capsys, "fit", "--in", str(ranks), "--window", "2", "2000", "--plot-data", str(plot)
        )
        assert code == 0
        assert sha(out) == "e96537d078e3b267fdc4fa6bf59ac56314bab9efab4c9ae95a0d336daded3f6d"
        assert sha(plot.read_text()) == (
            "9dbe3dec47d26bea718b31628309fa539a79e3341c42ad5d81caae7f8d6c25fb"
        )

    def test_ingest(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(seeded_corpus(41, 20000, 30), encoding="utf-8")
        code, out, _ = run(capsys, "ingest", "--corpus", str(corpus))
        assert code == 0
        assert data_digest(out) == (
            "3748750b0feee37605591226f08d78fcba72c17eaa7226e60078a5c8a165c224"
        )


SRC = str(Path(__file__).resolve().parents[1] / "src")


def loads_numpy(code, cwd):
    """Run code in a fresh interpreter on src/; True when numpy got imported."""
    probe = f"{code}\nimport sys\nprint('numpy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()[-1] == "True"


class TestBenchTracerTargets:
    def test_every_target_resolves(self):
        # perfbench/tracing.py wraps these by name; a renamed or removed
        # function would make traced runs fail
        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert len(tracing.TARGETS) > 10
        for module_name, attr, layer in tracing.TARGETS:
            assert callable(getattr(importlib.import_module(module_name), attr))
            assert layer in tracing.LAYERS


class TestNumpyImportedOnlyToDrawWords:
    @pytest.mark.parametrize("module", ["zipfmonkey", "zipfmonkey.cli"])
    def test_import(self, workdir, module):
        assert not loads_numpy(f"import {module}", workdir)

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--uniform", "3", "--p0", "0.2"],
            ["levels", "--gusein-zade", "4", "--p0", "0.2", "--max-rank", "50"],
            ["levels", "--corpus", "corpus.txt", "--max-rank", "50"],
            ["qfun", "--uniform", "3", "--p0", "0.2", "--x-max", "4"],
            ["certify", "--gusein-zade", "3", "--p0", "0.2", "--x-max", "6"],
            ["fit", "--in", "ranks.tsv"],
            ["compare", "--uniform", "3", "--p0", "0.2", "--in", "ranks.tsv"],
            ["ingest", "--corpus", "corpus.txt", "--alphabet-out", "alpha.txt"],
            ["simulate", "--uniform", "3", "--p0", "0.3", "--n-words", "100", "--seed", "1"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_command(self, workdir, argv):
        argv = [*argv, "--out", "out.txt"]
        code = f"from zipfmonkey.cli import main\nassert main({argv!r}) == 0"
        assert loads_numpy(code, workdir) == (argv[0] == "simulate")
        assert (workdir / "out.txt").read_text().startswith("# format: v1 ")


def heavy_modules_loaded(code, cwd):
    """Run code under `python -S` on src/, so no site hook preloads anything;
    which of the modules a cold start should not need it left loaded."""
    heavy = ("dataclasses", "inspect", "json", "string", "numpy")
    probe = f"{code}\nimport sys\nprint(*[m for m in {heavy!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


class TestLightImport:
    def test_gamma_loads_no_heavy_module(self, workdir):
        code = (
            "import zipfmonkey, zipfmonkey.cli\n"
            "argv = ['gamma', '--gusein-zade', '5', '--p0', '0.18', '--out', 'g.txt']\n"
            "assert zipfmonkey.cli.main(argv) == 0"
        )
        assert heavy_modules_loaded(code, workdir) == []
        assert (workdir / "g.txt").read_text().startswith("# format: v1 gamma\n")

    def test_alphabet_file_round_trip_loads_no_heavy_module(self, workdir):
        code = (
            "from zipfmonkey.cli import main\n"
            "assert main(['ingest', '--corpus', 'corpus.txt', '--alphabet-out', 'a.txt',"
            " '--out', 'r.tsv']) == 0\n"
            "assert main(['gamma', '--alphabet', 'a.txt', '--out', 'g.txt']) == 0"
        )
        assert heavy_modules_loaded(code, workdir) == []
        expected = solve_gamma(am.estimate_from_corpus((workdir / "corpus.txt").read_text()))
        assert kv((workdir / "g.txt").read_text())["gamma"] == repr(expected.gamma)

    def test_word_table_commands_load_no_heavy_module(self, workdir):
        rows = "".join(f"w{i}\t{100 // i}\n" for i in range(1, 31))
        (workdir / "words.tsv").write_text(rows + "w2\t7\n")  # w2 repeated: the dict path
        code = (
            "from zipfmonkey.cli import main\n"
            "assert main(['fit', '--in', 'words.tsv', '--out', 'f.txt']) == 0\n"
            "assert main(['compare', '--in', 'words.tsv', '--gusein-zade', '5', '--p0', '0.18',"
            " '--out', 'c.txt']) == 0"
        )
        assert heavy_modules_loaded(code, workdir) == []
        assert (workdir / "c.txt").read_text().startswith("# format: v1 compare\n")


# NaN, infinities, negatives, zero and a tiny positive: each option draws one
# of these a quarter of the time and a plain value otherwise
ODD_NUMBERS = ["nan", "inf", "-inf", "-1", "-5e-10", "0", "1e-300"]
ALPHABET_COMMANDS = ("gamma", "levels", "qfun", "certify", "simulate", "compare")
# per command: option -> plain values (None: a flag; a str: a kind of input
# file; a tuple of options: one of them, as for an exclusive group)
COMMAND_OPTIONS = {
    "gamma": {},
    "levels": {("--max-rank", "--max-weight"): ["1", "2.5", "100", "10000"], "--no-empty-word": None},
    "qfun": {"--x-max": ["3", "12"]},
    "certify": {"--x-max": ["3", "12"]},
    "simulate": {
        "--n-words": ["1", "2000"],
        "--seed": ["7"],
        "--skip-empty": None,
    },
    "fit": {"--in": "tsv", "--window": "window"},
    "compare": {"--in": "tsv", "--window": "window"},
    "ingest": {"--corpus": "corpus", "--keep-case": None, "--alphabet-out": "out"},
}
# kind -> file name -> content; names starting "ok" are well formed
CONTRACT_FILES = {
    "alphabet": {
        "empty.txt": "",
        "extra_column.txt": "space 0.2\na 0.4 extra\n",
        "nan.txt": "space nan\na 0.5\nb 0.5\n",
        "inf.txt": "space 0.2\na inf\nb 0.4\n",
        "one_letter.txt": "space 0.2\na 0.8\n",
        "ok.txt": "space 0.2\na 0.5\nb 0.3\n",
        "list.json": "[]",
        "truncated.json": '{"space": 0.2, "letters": {',
        "no_letters.json": '{"space": 0.2}',
        "letters_number.json": '{"letters": 5, "space": 0.1}',
        "null_prob.json": '{"letters": {"a": null, "b": 0.4}, "space": 0.2}',
        "deep.json": '{"a":' * 100_000,
        "prefix.json": '{"letters": {"a": 0.3, "ab": 0.2, "b": 0.3}, "space": 0.2}',
        "hash.json": '{"letters": {"a": 0.3, "#": 0.2, "b": 0.3}, "space": 0.2}',
        "json_format.json": '{"letters": {"a": 0.5, "b": 0.3}, "space": 0.2}',
        "long_line.txt": "space 0.2\n" + "w" * 200_000 + "\n",
    },
    "corpus": {
        "empty.txt": "",
        "blank.txt": " \t\n",
        "one_letter.txt": "aaaa aa\n",
        "no_space.txt": "abab",
        "ok.txt": "the cat sat on the mat\nand then ran\n",
    },
    "tsv": {
        "empty.tsv": "",
        "comment.tsv": "# nothing but a comment\n",
        "three_columns.tsv": "a\tb\tc\n",
        "nan.tsv": "1\tnan\n2\tinf\n3\t-0.5\n",
        "neither.tsv": "w1\t0.5\nw2\t0.25\nw3\t0.1\n",
        "zero_counts.tsv": "x\t0\ny\t0\n",
        "negative_counts.tsv": "x\t-3\ny\t3\nz\t1\n",
        "ok_ranks.tsv": "".join(f"{r}\t{0.5 / r!r}\n" for r in range(1, 31)),
        "ok_words.tsv": "".join(f"w{i}\t{100 // i}\n" for i in range(1, 31)),
        "long_one_column.tsv": "w" * 200_000 + "\n",
        "long_word.tsv": "w" * 200_000 + "\t0.5\n",
    },
}
WINDOWS = [["-5", "-1"], ["0", "0"], ["5", "1"], ["1", "3"], ["1", "1000"], ["10", "30"]]


def odd_or(plain):
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(plain if i else ODD_NUMBERS))


@st.composite
def cli_argv(draw, paths):
    """A command with a random mix of its options, odd values and bad files."""
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = [command]
    if command in ALPHABET_COMMANDS:
        source = draw(st.sampled_from(["--uniform", "--gusein-zade", "--alphabet", "--corpus", None]))
        if source in ("--uniform", "--gusein-zade"):
            argv.append(f"{source}={draw(odd_or(['2', '3', '26', '50', str(10**12), 'x']))}")
        elif source is not None:
            argv += [source, draw(paths[source.lstrip("-")])]
        if draw(st.integers(0, 7)):
            argv.append(f"--p0={draw(odd_or(['0.2', '0.5', '0.9']))}")
    for option, values in COMMAND_OPTIONS[command].items():
        if not draw(st.integers(0, 7)):  # leave required options out now and then
            continue
        if isinstance(option, tuple):
            option = draw(st.sampled_from(option))
        if values == "window":  # argparse reads "-5" after --window as a number
            argv += [option, *draw(st.sampled_from(WINDOWS))]
        elif isinstance(values, str):
            argv += [option, draw(paths[values])]
        elif values is None:
            argv.append(option)
        else:  # one argument, or argparse takes "-inf" and "-5e-10" for option names
            argv.append(f"{option}={draw(odd_or(values))}")
    if draw(st.integers(0, 4)) == 0:
        argv += ["--out", draw(paths["out"])]
    return argv


class TestExitCodeContract:
    """Any argument mix ends in an exit code 0-4, never in a traceback."""

    @pytest.fixture(scope="class")
    def paths(self, tmp_path_factory):
        """kind -> strategy drawing a broken or a well-formed input file, half and half."""
        root = tmp_path_factory.mktemp("contract")
        bad_utf8 = root / "bad_utf8.txt"
        bad_utf8.write_bytes(b"ab \xff\xfe")
        paths = {"out": st.sampled_from([str(root), str(root / "missing" / "out.txt")])}
        for kind, files in CONTRACT_FILES.items():
            broken, ok = [str(root / "missing.txt"), str(bad_utf8)], []
            for name, text in files.items():
                path = root / f"{kind}_{name}"
                path.write_text(text, encoding="utf-8")
                (ok if name.startswith("ok") else broken).append(str(path))
            paths[kind] = st.one_of(st.sampled_from(broken), st.sampled_from(ok))
        return paths

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        node_budget=st.sampled_from(["3000", "abc", "-1", "0"]),
        word_cap=st.sampled_from(["100000", "abc", "-1", "0"]),
    )
    def test_exit_code_in_range(self, paths, data, node_budget, word_cap):
        argv = data.draw(cli_argv(paths), label="argv")
        env = {"ZIPFMONKEY_NODE_BUDGET": node_budget, "ZIPFMONKEY_WORD_CAP": word_cap}
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in range(5)
        assert "Traceback" not in err.getvalue()
        assert "expected one argument" not in err.getvalue()

    @pytest.mark.parametrize("command, kind, name", [
        ("gamma", "alphabet", "long_line.txt"),
        ("fit", "tsv", "long_one_column.tsv"),
        ("fit", "tsv", "long_word.tsv"),
    ])
    def test_long_line_is_quoted_in_part(self, capsys, tmp_path, command, kind, name):
        path = tmp_path / name
        path.write_text(CONTRACT_FILES[kind][name], encoding="utf-8")
        option = "--alphabet" if kind == "alphabet" else "--in"
        code, out, err = run(capsys, command, option, str(path))
        assert (code, out) == (2, "")
        assert len(err.encode()) < 300
