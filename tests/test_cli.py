"""CLI subcommands, file round trips, exit codes."""

import hashlib
import math
import random

import pytest

from zipfmonkey import alphabet as am
from zipfmonkey import make_explicit, make_uniform, weight_events, log_weights
from zipfmonkey.cli import main


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
        path = tmp_path / "alpha.json"
        path.write_text(am.to_json(make_explicit((0.6, 0.2), 0.2)))
        code, out, _ = run(capsys, "gamma", "--alphabet", str(path))
        assert code == 0

    def test_uniform_requires_p0(self, capsys):
        code, _, err = run(capsys, "gamma", "--uniform", "26")
        assert code == 1
        assert "p0" in err


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

    def test_counts_in_full_decimal(self, capsys):
        code, out, _ = run(
            capsys, "levels", "--uniform", "26", "--p0", str(1 / 27), "--max-rank", "100000"
        )
        assert code == 0
        for row in tsv_rows(out):
            assert "e" not in row[4] and "E" not in row[4]
            int(row[4])


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


class TestCertifyCommand:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "certify", "--gusein-zade", "3", "--p0", "0.2", "--x-max", "20")
        assert code == 0
        values = kv(out)
        assert values["status"] == "PASS"
        assert 0 < float(values["c1"]) < float(values["c2"])
        assert float(values["verified_up_to"]) == 20.0
        assert int(values["event_count"]) > 0

    def test_rejects_small_x_max(self, capsys):
        code, _, err = run(capsys, "certify", "--uniform", "2", "--p0", "0.3", "--x-max", "0.1")
        assert code == 2
        assert "x_max" in err


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

    def test_alphabet_file_alias(self, capsys, tmp_path):
        path = tmp_path / "a.tsv"
        path.write_text(am.to_text(make_uniform(2, 0.4)))
        code, out, _ = run(
            capsys, "simulate", "--alphabet-file", str(path),
            "--n-words", "100", "--seed", "1",
        )
        assert code == 0

    def test_seed_required_with_out(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--uniform", "2", "--p0", "0.4",
            "--n-words", "10", "--out", str(tmp_path / "w.tsv"),
        )
        assert code == 1
        assert "seed" in err


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
        assert alpha_out.read_text().lstrip().startswith("{")
        assert am.loads(alpha_out.read_text()).n >= 2

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


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "gamma")[0] == 1
        assert run(capsys, "levels", "--uniform", "2", "--p0", "0.2")[0] == 1

    def test_validation_error(self, capsys):
        code, _, err = run(capsys, "gamma", "--uniform", "1", "--p0", "0.5")
        assert code == 2
        assert "letters" in err

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
        code, _, _ = run(
            capsys, "simulate", "--uniform", "2", "--p0", "0.3",
            "--n-words", "100", "--seed", "1",
        )
        assert code == 2  # cap raises ValueError -> validation

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
    def test_out_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "gamma.txt"
        code, out, _ = run(
            capsys, "gamma", "--uniform", "2", "--p0", "0.5", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert "gamma=" in out_path.read_text()

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
