"""Monte Carlo word generation and empirical rank-frequency tables."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from zipfmonkey import (
    FrequencyTable,
    RankFrequency,
    empirical_rank_freq,
    enumerate_levels,
    estimate_from_corpus,
    generate_words,
    make_explicit,
    make_gusein_zade,
    make_uniform,
    merge_tables,
)
from zipfmonkey.cli import main
from zipfmonkey.simulate import _generate_stream

N_WORDS = 100_000
SEED = 20260808


@pytest.fixture(scope="module")
def skewed_table():
    return generate_words(make_explicit((0.6, 0.2), 0.2), N_WORDS, SEED)


class TestGenerateWords:
    def test_exact_word_count(self, skewed_table):
        assert sum(skewed_table.entries.values()) == N_WORDS
        assert skewed_table.total_words == N_WORDS

    def test_deterministic(self):
        al = make_uniform(3, 0.25)
        a = generate_words(al, 5000, seed=42)
        b = generate_words(al, 5000, seed=42)
        assert a.entries == b.entries
        c = generate_words(al, 5000, seed=43)
        assert c.entries != a.entries

    def test_empty_word_frequency(self, skewed_table):
        # P(empty) = p0
        freq = skewed_table.entries.get((), 0) / N_WORDS
        se = math.sqrt(0.2 * 0.8 / N_WORDS)
        assert abs(freq - 0.2) <= 4 * se

    def test_single_letter_frequencies(self, skewed_table):
        # P(word "a") = p_a * p0
        for idx, p in enumerate((0.6, 0.2)):
            expected = p * 0.2
            freq = skewed_table.entries.get((idx,), 0) / N_WORDS
            se = math.sqrt(expected * (1 - expected) / N_WORDS)
            assert abs(freq - expected) <= 4 * se

    def test_fixed_word_model_probability(self, skewed_table):
        # P("ab") = p_a * p_b * p0
        expected = 0.6 * 0.2 * 0.2
        freq = skewed_table.entries.get((0, 1), 0) / N_WORDS
        se = math.sqrt(expected * (1 - expected) / N_WORDS)
        assert abs(freq - expected) <= 4 * se

    def test_streams_partition_and_merge(self):
        al = make_uniform(3, 0.25)
        table = generate_words(al, 9999, seed=7, streams=4)
        assert table.total_words == 9999
        again = generate_words(al, 9999, seed=7, streams=4)
        assert table.entries == again.entries

    def test_skip_empty(self):
        al = make_uniform(2, 0.5)
        table = generate_words(al, 10_000, seed=3, skip_empty=True)
        assert () not in table.entries
        assert table.total_words == sum(table.entries.values())
        assert table.total_words < 10_000  # half the draws are empty

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_words(make_explicit((0.5, 0.5), 0.0), 100, seed=1)
        with pytest.raises(ValueError):
            generate_words(make_uniform(2, 0.3), 0, seed=1)
        with pytest.raises(ValueError):
            generate_words(make_uniform(2, 0.3), 100, seed=1, streams=0)
        with pytest.raises(ValueError):
            generate_words(make_uniform(2, 0.3), 10**9 + 1, seed=1, word_cap=10**9)


def _corpus_alphabet():
    # 300 CJK letters: more than fit in one byte
    letters = [chr(0x4E00 + i) for i in range(300)]
    words = ("".join(letters[(7 * i + j) % 300] for j in range(1 + i % 9)) for i in range(3000))
    alphabet = estimate_from_corpus(" ".join(words))
    assert alphabet.n == 300
    return alphabet


def _reference_counts(alphabet, count, seed):
    """The same RNG calls as the simulator, counted word by word."""
    rng = np.random.default_rng(seed)
    p0 = alphabet.space_prob
    lengths = (rng.geometric(p0, size=count) - 1).tolist()
    letter_probs = np.asarray(alphabet.letter_probs) / (1.0 - p0)
    letters = rng.choice(alphabet.n, size=sum(lengths), p=letter_probs).tolist()
    counts = Counter()
    start = 0
    for m in lengths:
        counts[tuple(letters[start:start + m])] += 1
        start += m
    return counts


class TestCounting:
    @pytest.mark.parametrize(
        "alphabet, count",
        [
            (make_gusein_zade(5, 0.18), 50_000),  # nearly every word fits a code
            (make_uniform(2, 0.02), 5_000),  # many words past 63 letters
            (_corpus_alphabet(), 20_000),  # codes up to 7 letters, rows beyond
        ],
    )
    def test_matches_word_by_word_count(self, alphabet, count):
        got = _generate_stream(alphabet, count, np.random.default_rng(11), 10**8)
        assert got == _reference_counts(alphabet, count, 11)

    @pytest.mark.parametrize(
        "streams, digest",
        [
            ("1", "4344af5887bb38e9325f3b14a1b585d626595ec61b511cb99c1f33e0cdbd714d"),
            ("3", "92b66b32fe26f1f51daf4e5c69c8b8d7b4a67807fe338de8849ac2aedcc8a893"),
        ],
    )
    def test_cli_output_pinned(self, capsys, streams, digest):
        code = main([
            "simulate", "--gusein-zade", "5", "--p0", "0.18", "--n-words", "20000",
            "--seed", "7", "--streams", streams,
        ])
        assert code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestMergeTables:
    def test_merge_adds_counts(self):
        a = FrequencyTable({(0,): 2, (): 1}, 3)
        b = FrequencyTable({(0,): 1, (1,): 4}, 5)
        merged = merge_tables([a, b])
        assert merged.entries == {(0,): 3, (): 1, (1,): 4}
        assert merged.total_words == 8

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            FrequencyTable({(0,): 2}, 3)


class TestEmpiricalRankFreq:
    def test_single_word(self):
        rf = empirical_rank_freq(FrequencyTable({(0,): 5}, 5))
        assert rf.points == ((1, 1.0),)

    def test_two_words(self):
        rf = empirical_rank_freq(FrequencyTable({(0,): 3, (1,): 1}, 4))
        assert rf.points == ((1, 0.75), (2, 0.25))

    def test_tie_break_lexicographic(self):
        rf = empirical_rank_freq(FrequencyTable({(1,): 2, (0,): 2, (): 2}, 6))
        assert [f for _r, f in rf.points] == [pytest.approx(1 / 3)] * 3
        # ranks follow word order: (), (0,), (1,)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            empirical_rank_freq(FrequencyTable({}, 0))

    def test_level_plateaus(self):
        # empirical frequencies at the ranks of an exact level hover around
        # that level's probability
        al = make_uniform(3, 0.25)
        table = generate_words(al, 300_000, seed=99)
        rf = empirical_rank_freq(table)
        levels = enumerate_levels(al, max_rank=13)  # empty, 3 singles, 9 pairs
        freqs = dict(rf.points)
        for lv in levels:
            p = math.exp(lv.log_prob)
            se = math.sqrt(p * (1 - p) / 300_000)
            for r in range(lv.rank_lo, lv.rank_hi + 1):
                assert abs(freqs[r] - p) <= 5 * se


class TestRankFrequencyInvariants:
    def test_accepts_valid(self):
        RankFrequency(((1, 0.5), (2, 0.5), (3, 0.1)))

    def test_rejects_nonincreasing_ranks(self):
        with pytest.raises(ValueError):
            RankFrequency(((1, 0.5), (1, 0.4)))

    def test_rejects_increasing_freqs(self):
        with pytest.raises(ValueError):
            RankFrequency(((1, 0.1), (2, 0.4)))

    def test_rejects_bad_freq(self):
        with pytest.raises(ValueError):
            RankFrequency(((1, 0.0),))
        with pytest.raises(ValueError):
            RankFrequency(((1, 1.2),))
