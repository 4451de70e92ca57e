"""Monte Carlo word generation and empirical rank-frequency tables."""

import hashlib
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import one_rank_runs
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
    ols_loglog,
)
from zipfmonkey import simulate
from zipfmonkey.cli import main
from zipfmonkey.errors import ResourceGuardError
from zipfmonkey.simulate import _generate_stream, word_lines

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
        freq = skewed_table.entries.get("", 0) / N_WORDS
        se = math.sqrt(0.2 * 0.8 / N_WORDS)
        assert abs(freq - 0.2) <= 4 * se

    def test_single_letter_frequencies(self, skewed_table):
        # P(word "a") = p_a * p0; letter i is the code point i + 1
        for idx, p in enumerate((0.6, 0.2)):
            expected = p * 0.2
            freq = skewed_table.entries.get(chr(idx + 1), 0) / N_WORDS
            se = math.sqrt(expected * (1 - expected) / N_WORDS)
            assert abs(freq - expected) <= 4 * se

    def test_fixed_word_model_probability(self, skewed_table):
        # P("ab") = p_a * p_b * p0
        expected = 0.6 * 0.2 * 0.2
        freq = skewed_table.entries.get("\x01\x02", 0) / N_WORDS
        se = math.sqrt(expected * (1 - expected) / N_WORDS)
        assert abs(freq - expected) <= 4 * se

    def test_letter_shares(self):
        # the character stream the table stands for: each word's letters, then
        # one space; letter i is the code point i + 1
        true = make_explicit((0.45, 0.25, 0.12), 0.18)
        table = generate_words(true, 150_000, seed=20260808)
        letters = [
            sum(c * word.count(chr(i + 1)) for word, c in table.entries.items())
            for i in range(true.n)
        ]
        n_chars = sum(letters) + table.total_words
        for count, p in zip(letters, true.letter_probs):
            se = math.sqrt(p * (1 - p) / n_chars)
            assert abs(count / n_chars - p) <= 3 * se
        se0 = math.sqrt(0.18 * 0.82 / n_chars)
        assert abs(table.total_words / n_chars - 0.18) <= 3 * se0

    def test_skip_empty(self):
        al = make_uniform(2, 0.5)
        table = generate_words(al, 10_000, seed=3, skip_empty=True)
        assert "" not in table.entries
        assert table.total_words == sum(table.entries.values())
        assert table.total_words < 10_000  # half the draws are empty

    def test_skip_empty_refuses_a_draw_of_empty_words(self):
        # at p0 0.99 all three words drawn with seed 1 are empty
        al = make_uniform(2, 0.99)
        assert generate_words(al, 3, seed=1).entries == {"": 3}
        with pytest.raises(ValueError, match="^skip_empty dropped all 3 words drawn with seed 1$"):
            generate_words(al, 3, seed=1, skip_empty=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_words(make_explicit((0.5, 0.5), 0.0), 100, seed=1)
        with pytest.raises(ValueError):
            generate_words(make_uniform(2, 0.3), 0, seed=1)
        with pytest.raises(ResourceGuardError, match="ZIPFMONKEY_WORD_CAP"):
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
        counts["".join(chr(i + 1) for i in letters[start:start + m])] += 1
        start += m
    return counts


def _codes_for(words, p0):
    """A _BLOCK_CODES value that makes blocks of the given number of words."""
    codes = math.ceil(words / p0)
    assert max(1, int(codes * p0)) == words
    return codes


class _RecordingRng:
    """A seeded Generator that records how many letters each random call draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.sizes = []

    def geometric(self, *args, **kwargs):
        return self.rng.geometric(*args, **kwargs)

    def random(self, size=None):
        self.sizes.append(int(size))
        return self.rng.random(size)


class TestCounting:
    @pytest.mark.parametrize(
        "alphabet, count",
        [
            (make_gusein_zade(5, 0.18), 50_000),  # short words, many repeats
            (make_uniform(2, 0.02), 5_000),  # many words past 63 letters
            (_corpus_alphabet(), 20_000),  # 300 letters, past one byte
        ],
    )
    def test_matches_word_by_word_count(self, alphabet, count):
        got = _generate_stream(alphabet, count, np.random.default_rng(11), 10**8)
        assert got == _reference_counts(alphabet, count, 11)

    @pytest.mark.parametrize(
        "block, alphabet",
        [(block, make_gusein_zade(5, 0.18)) for block in (1, 7, 1000, 5000)]
        + [(block, make_uniform(2, 0.9)) for block in (1, 7, 1000)],
        ids=["1", "7", "1000", "5000", "u2-1", "u2-7", "u2-1000"],
    )
    def test_counting_blocks_do_not_change_counts(self, monkeypatch, block, alphabet):
        # 5000 words: ragged last block, whole blocks, and one block; u2's
        # mostly empty words give blocks that draw no letter
        monkeypatch.setattr(simulate, "_BLOCK_CODES", _codes_for(block, alphabet.space_prob))
        got = _generate_stream(alphabet, 5000, np.random.default_rng(11), 10**8)
        assert got == _reference_counts(alphabet, 5000, 11)

    def test_each_draw_holds_one_block_of_letters(self, monkeypatch):
        monkeypatch.setattr(simulate, "_BLOCK_CODES", _codes_for(700, 0.18))
        alphabet = make_gusein_zade(5, 0.18)
        rng = _RecordingRng(11)
        got = _generate_stream(alphabet, 5000, rng, 10**8)
        lengths = np.random.default_rng(11).geometric(0.18, size=5000) - 1
        assert rng.sizes == [int(lengths[i : i + 700].sum()) for i in range(0, 5000, 700)]
        assert got == _reference_counts(alphabet, 5000, 11)

    def test_blocks_hold_a_fixed_number_of_code_points(self):
        # a word is 1/p0 code points on average, so a block is 2**18 * p0 words
        alphabet, block = make_uniform(2, 0.01), int(2**18 * 0.01)
        rng = _RecordingRng(11)
        got = _generate_stream(alphabet, 6000, rng, 10**8)
        lengths = np.random.default_rng(11).geometric(0.01, size=6000) - 1
        assert rng.sizes == [int(lengths[i : i + block].sum()) for i in range(0, 6000, block)]
        assert got == _reference_counts(alphabet, 6000, 11)

    @pytest.mark.parametrize(
        "streams, digest",
        [
            ("1", "4344af5887bb38e9325f3b14a1b585d626595ec61b511cb99c1f33e0cdbd714d"),
            ("3", "92b66b32fe26f1f51daf4e5c69c8b8d7b4a67807fe338de8849ac2aedcc8a893"),
        ],
    )
    def test_cli_output_pinned(self, capsys, streams, digest):
        # digest: what `simulate ... --seed 7 --streams N` printed while the option existed
        argv = ["simulate", "--gusein-zade", "5", "--p0", "0.18", "--n-words", "20000"]
        argv += ["--seed", "7"]
        # the option is gone: a usage error, and nothing drawn
        assert main([*argv, "--streams", streams]) == 1
        err = capsys.readouterr()
        assert err.out == "" and "--streams" in err.err

        # N streams of SeedSequence(7).spawn(N), merged as --streams N merged them
        al, n = make_gusein_zade(5, 0.18), int(streams)
        base, extra = divmod(20000, n)
        counts = Counter()
        for i, child in enumerate(np.random.SeedSequence(7).spawn(n)):
            rng = np.random.Generator(np.random.PCG64(child))
            counts.update(_generate_stream(al, base + (i < extra), rng, simulate.DEFAULT_WORD_CAP))
        table = FrequencyTable(counts)
        rows = "".join(line + "\n" for line in word_lines(table, al.labels))

        def head(tail):
            return (
                f"# format: v1 word_count\n# n_words=20000 seed=7{tail}\n"
                "# columns: word\tcount\n"
            )

        old = head(f" streams={streams}") + rows
        assert hashlib.sha256(old.encode()).hexdigest() == digest

        # a seed draws the rows --streams 1 drew; the header drops ' streams=1'
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith(head(""))
        assert (out == head("") + rows) == (streams == "1")

    def test_one_stream_of_the_seed_sequence(self):
        # the table is drawn from SeedSequence(seed).spawn(1)[0], as before
        al = make_uniform(3, 0.25)
        child = np.random.SeedSequence(7).spawn(1)[0]
        expected = _reference_counts(al, 1000, np.random.PCG64(child))
        assert generate_words(al, 1000, seed=7).entries == expected

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ("--uniform", "30", "--p0", "0.2", "--n-words", "20000"),
                "11870996d1d05709cf72a2665f69c2a966ac7e4d0d711bf79945a89d02ebf46d",
            ),
            (
                ("--uniform", "60000", "--p0", "0.3", "--n-words", "2000"),
                "89090994000019bcc0572620bf1a9c44df30bbea5a020f3667fa69089d7aade2",
            ),
            (
                ("--uniform", "26", "--p0", "0.037037", "--n-words", "20000"),
                "8d8abb10c42a961b102f87a54363db54148ec30938b0201e89296b2ab1e0a5be",
            ),
        ],
        ids=["u30-three-char-labels", "u60000-surrogate-code-points", "u26-long-words"],
    )
    def test_wide_alphabet_rows_pinned(self, capsys, argv, digest):
        # data rows as printed before words became code-point strings (u30,
        # u60000) and while letters were drawn by Generator.choice (u26)
        code = main(["simulate", *argv, "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        rows = "".join(line + "\n" for line in out.splitlines() if not line.startswith("#"))
        assert hashlib.sha256(rows.encode()).hexdigest() == digest

    def test_more_letters_than_code_points_exit_2(self, capsys, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew words")

        monkeypatch.setattr(simulate, "_generate_stream", no_draw)
        code = main([
            "simulate", "--uniform", str(sys.maxunicode + 1), "--p0", "0.5",
            "--n-words", "10", "--seed", "1",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert str(sys.maxunicode) in err
        assert "Traceback" not in err


def _conditional(alphabet):
    """The letter probabilities the simulator draws from."""
    return np.asarray(alphabet.letter_probs) / (1.0 - alphabet.space_prob)


def _dyadic(k):
    """Conditional letter probabilities 1/2, 1/4, ..., 2**-k, 2**-k: every cdf
    step is a multiple of 2**-k, on a bucket edge of every table of at least
    2**k buckets and inside a bucket of a smaller one."""
    return make_explicit([2.0 ** -(i + 2) for i in range(k)] + [2.0 ** -(k + 1)], 0.5)


class _FixedDoubles:
    """A stand-in Generator whose random(size) returns the given doubles."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


def _hard_doubles(cdf):
    """Doubles in [0, 1) on and next to every cdf step, and on and next to
    the bucket edges around each step for every table size from 2**10 to
    2**20 buckets."""
    points = [cdf[:-1]]
    for m in (2.0**k for k in range(10, 21)):
        b = np.floor(cdf[:-1] * m)
        points += [b / m, (b + 1) / m]
    points = np.concatenate(points)
    u = np.concatenate([points, np.nextafter(points, 0), np.nextafter(points, 1), [0.0]])
    return np.unique(u[u < 1.0])


class TestLetterSampler:
    """_letter_sampler draws the letters Generator.choice(p=...) draws."""

    def _check(self, probs, seed, size):
        draw = simulate._letter_sampler(probs)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw(rng, size)
        assert got.dtype == np.dtype("<u4")
        np.testing.assert_array_equal(got, ref.choice(probs.size, size=size, p=probs) + 1)
        assert rng.bit_generator.state == ref.bit_generator.state  # the same doubles consumed

        # choice's rule, cdf.searchsorted(u, "right"), on the doubles where
        # a bucket edge or a step decides the letter
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        u = _hard_doubles(cdf)
        np.testing.assert_array_equal(draw(_FixedDoubles(u), u.size), cdf.searchsorted(u, "right") + 1)

    @pytest.mark.parametrize(
        "alphabet, size",
        [
            (_dyadic(4), 20_000),  # steps on the edges of every table
            (_dyadic(14), 20_000),  # steps 1 - 2**-11 .. 1 - 2**-14 in one of 2**10 buckets
            (make_gusein_zade(5, 0.18), 20_000),
            (make_uniform(26, 0.037037), 20_000),
            (make_gusein_zade(400, 0.2), 100_000),  # tail steps closer than 2**-15
            (make_uniform(60_000, 0.3), 100_000),
            (make_gusein_zade(60_000, 0.2), 100_000),  # tail steps closer than 2**-20
            (make_uniform(2, 0.9), 20_000),
        ],
        ids=["dyadic4", "dyadic14", "gz5", "u26", "gz400", "u60000", "gz60000", "u2-p0.9"],
    )
    def test_matches_choice_draw_for_draw(self, alphabet, size):
        self._check(_conditional(alphabet), 11, size)

    @pytest.mark.parametrize(
        "alphabet, buckets",
        [(make_gusein_zade(400, 0.2), 2**15), (make_gusein_zade(60_000, 0.2), 2**20)],
        ids=["gz400", "gz60000"],
    )
    def test_several_steps_share_a_bucket(self, alphabet, buckets):
        # the tables the draw-for-draw cases read: some bucket holds steps of
        # several letters, so those draws are searched
        cdf = _conditional(alphabet).cumsum()
        cdf /= cdf[-1]
        assert np.bincount(np.floor(cdf[:-1] * buckets).astype(np.intp)).max() >= 2

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.floats(1e-9, 1.0), st.integers(0, 30).map(lambda k: 2.0**-k)),
            min_size=1,
            max_size=300,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_alphabets(self, weights, seed):
        probs = np.asarray(weights) / math.fsum(weights)
        self._check(probs, seed, 3000)

    def test_a_block_of_no_letters_draws_nothing(self):
        # u2 at p0 0.9 gives blocks of empty words (see TestCounting)
        draw = simulate._letter_sampler(_conditional(make_uniform(2, 0.9)))
        rng, ref = np.random.default_rng(1), np.random.default_rng(1)
        got = draw(rng, 0)
        assert got.dtype == np.dtype("<u4") and got.size == 0
        assert rng.bit_generator.state == ref.bit_generator.state


def _two_search_table(cdf, n_buckets):
    """The guide table as two searchsorted calls over the bucket edges built
    it: lo + 1 where no step lies inside the bucket, else 0."""
    edges = np.arange(n_buckets + 1) / n_buckets
    lo = cdf.searchsorted(edges[:-1], "right")
    return np.where(lo == cdf.searchsorted(edges[1:], "left"), lo + 1, 0).astype("<u4")


class TestGuideTable:
    """_guide_table, one bincount, builds the two-search table."""

    def _check(self, probs, n_buckets):
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        got = simulate._guide_table(cdf, n_buckets)
        assert got.dtype == np.dtype("<u4")
        np.testing.assert_array_equal(got, _two_search_table(cdf, n_buckets))

    @pytest.mark.parametrize("n_buckets", [2**10, 2**15, 2**20])
    @pytest.mark.parametrize(
        "alphabet",
        [
            _dyadic(4),
            _dyadic(14),
            _dyadic(22),  # steps on edges of 2**20 buckets and inside them
            make_gusein_zade(5, 0.18),
            make_uniform(26, 0.037037),
            make_gusein_zade(400, 0.2),
            make_uniform(60_000, 0.3),
            make_gusein_zade(60_000, 0.2),
        ],
        ids=["dyadic4", "dyadic14", "dyadic22", "gz5", "u26", "gz400", "u60000", "gz60000"],
    )
    def test_equals_two_searches(self, alphabet, n_buckets):
        self._check(_conditional(alphabet), n_buckets)

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(
            st.one_of(st.floats(0.0, 1.0), st.integers(0, 30).map(lambda k: 2.0**-k)),
            min_size=1,
            max_size=300,
        ).filter(lambda w: math.fsum(w) > 0),
        log_buckets=st.integers(10, 16),
    )
    def test_random_alphabets(self, weights, log_buckets):
        # zero weights too: several steps on one point
        self._check(np.asarray(weights) / math.fsum(weights), 2**log_buckets)


class TestWordRows:
    def test_order_and_labels(self):
        table = FrequencyTable({"\x02": 2, "\x01\x02": 2, "": 1, "\x01": 2, "\x03": 3})
        lines = "\n".join(word_lines(table, ("zy", "x", "w"))).split("\n")
        # most frequent first; ties in letter-index order (a prefix first),
        # not in the order of the rendered labels
        assert lines == ["w\t3", "zy\t2", "zyx\t2", "x\t2", "<EPS>\t1"]

    def test_default_empty_token(self):
        lines = "\n".join(word_lines(FrequencyTable({"": 4}), ("a", "b"))).split("\n")
        assert lines == ["<EPS>\t4"]

    @pytest.mark.parametrize("run_slice", [1, 3, simulate._RUN_SLICE])
    @pytest.mark.parametrize("empty", ["alone", "shared", "absent"])
    @pytest.mark.parametrize(
        "alphabet",
        [
            make_uniform(2, 0.3),
            make_gusein_zade(5, 0.18),
            make_uniform(12, 0.2),  # letters 9 and 10 are the code points of \t and \n
            make_uniform(30, 0.2),  # multi-character default labels
            _corpus_alphabet(),  # CJK labels, one code point each
            make_explicit((0.4, 0.2, 0.2), 0.2, ("zy", "x", "w")),  # file-style labels
        ],
        ids=["u2", "gz5", "u12", "u30", "cjk300", "file-labels"],
    )
    def test_equals_per_row_reference(self, monkeypatch, alphabet, empty, run_slice):
        entries = dict(generate_words(alphabet, 3000, seed=11).entries)
        entries.pop("", None)
        if empty == "alone":
            entries[""] = max(entries.values()) + 1
        elif empty == "shared":
            entries[""] = 1
            assert list(entries.values()).count(1) > 1
        table = FrequencyTable(entries)
        monkeypatch.setattr(simulate, "_RUN_SLICE", run_slice)

        to_labels = dict(enumerate(alphabet.labels, 1))
        reference = [
            f"{w.translate(to_labels) if w else '<EPS>'}\t{c}"
            for w, c in sorted(entries.items(), key=lambda wc: (-wc[1], wc[0]))
        ]
        pieces = list(word_lines(table, alphabet.labels))
        assert "\n".join(pieces).split("\n") == reference

        # each piece is whole lines (none cut across two pieces) of one count,
        # at most run_slice of them
        lines = [piece.split("\n") for piece in pieces]
        assert sum(map(len, lines)) == len(reference)
        for piece in lines:
            assert len(piece) <= run_slice
            assert len({line.rsplit("\t", 1)[1] for line in piece}) == 1


class TestEmpiricalRankFreq:
    def test_single_word(self):
        rf = empirical_rank_freq(FrequencyTable({"\x01": 5}))
        assert tuple(rf) == ((1, 1.0),)

    def test_two_words(self):
        rf = empirical_rank_freq(FrequencyTable({"\x01": 3, "\x02": 1}))
        assert tuple(rf) == ((1, 0.75), (2, 0.25))

    def test_tie_break_lexicographic(self):
        rf = empirical_rank_freq(FrequencyTable({"\x02": 2, "\x01": 2, "": 2}))
        assert [f for _r, f in rf] == [pytest.approx(1 / 3)] * 3
        # ranks follow word order: "", "\x01", "\x02"

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            empirical_rank_freq(FrequencyTable({}))

    def test_bare_counts(self):
        # any iterable of counts, one per distinct word, in any order
        expected = ((1, 0.375), (2, 0.25), (3, 0.25), (4, 0.125))
        assert tuple(empirical_rank_freq([1, 3, 2, 2])) == expected
        assert tuple(empirical_rank_freq(iter((2, 1, 2, 3)))) == expected
        assert tuple(empirical_rank_freq({"a": 2, "b": 6}.values())) == ((1, 0.75), (2, 0.25))
        with pytest.raises(ValueError, match="empty"):
            empirical_rank_freq([])

    @pytest.mark.parametrize("counts", [[3, 0], [0], [5, -1, 2], [-2]])
    def test_non_positive_count_rejected(self, counts):
        with pytest.raises(ValueError, match="positive"):
            empirical_rank_freq(counts)

    def test_level_plateaus(self):
        # empirical frequencies at the ranks of an exact level hover around
        # that level's probability
        al = make_uniform(3, 0.25)
        table = generate_words(al, 300_000, seed=99)
        rf = empirical_rank_freq(table)
        levels = enumerate_levels(al, max_rank=13)  # empty, 3 singles, 9 pairs
        freqs = dict(rf)
        for lv in levels:
            p = math.exp(lv.log_prob)
            se = math.sqrt(p * (1 - p) / 300_000)
            for r in range(lv.rank_lo, lv.rank_hi + 1):
                assert abs(freqs[r] - p) <= 5 * se


class TestRankFrequencyInvariants:
    def test_accepts_valid(self):
        rf = RankFrequency(((1, 2, 0.5), (3, 3, 0.1)))
        assert tuple(rf) == ((1, 0.5), (2, 0.5), (3, 0.1))

    def test_accepts_gaps_between_runs(self):
        rf = RankFrequency(((1, 1, 0.5), (4, 5, 0.1), (9, 9, 0.1)))
        assert tuple(rf) == ((1, 0.5), (4, 0.1), (5, 0.1), (9, 0.1))

    def test_rejects_nonincreasing_ranks(self):
        with pytest.raises(ValueError, match="overlap"):
            RankFrequency(((1, 1, 0.5), (1, 1, 0.4)))
        with pytest.raises(ValueError, match="overlap"):
            RankFrequency(((5, 6, 0.5), (1, 2, 0.4)))

    def test_rejects_overlapping_runs(self):
        with pytest.raises(ValueError, match="overlap"):
            RankFrequency(((1, 3, 0.5), (3, 4, 0.4)))

    def test_rejects_rank_hi_below_rank_lo(self):
        with pytest.raises(ValueError, match="rank_hi 2 < rank_lo 3"):
            RankFrequency(((3, 2, 0.5),))

    def test_rejects_rank_below_one(self):
        for runs in (((0, 0, 0.5),), ((0, 3, 0.5),), ((-4, -2, 0.5), (1, 1, 0.4))):
            with pytest.raises(ValueError, match="ranks start at 1"):
                RankFrequency(runs)

    def test_rejects_increasing_freqs(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            RankFrequency(((1, 1, 0.1), (2, 2, 0.4)))

    def test_rejects_bad_freq(self):
        with pytest.raises(ValueError, match="out of"):
            RankFrequency(((1, 1, 0.0),))
        with pytest.raises(ValueError, match="out of"):
            RankFrequency(((1, 1, 1.2),))

    def test_empty_curve_cannot_be_fitted(self):
        with pytest.raises(ValueError, match="at least 3"):
            ols_loglog(RankFrequency(()))


def per_word_points(counts):
    """The curve as built before runs: one (rank, freq) point per word."""
    total = sum(counts)
    return tuple((i + 1, c / total) for i, c in enumerate(sorted(counts, reverse=True)))


def fit_or_error(points, *window):
    try:
        return ols_loglog(points, *window)
    except ValueError as exc:
        return str(exc)


# mostly small counts, so most words share their count with others
TIED_COUNTS = st.lists(
    st.one_of(st.integers(1, 4), st.integers(1, 10**6)), min_size=1, max_size=600
)


class TestRunsMatchPerWordPoints:
    @settings(max_examples=300, deadline=None)
    @given(
        counts=TIED_COUNTS,
        windows=st.lists(st.tuples(st.integers(-2, 700), st.integers(-2, 700)), max_size=4),
    )
    def test_points_runs_and_fits(self, counts, windows):
        rf = empirical_rank_freq(counts)
        points = list(rf)
        assert tuple(points) == per_word_points(counts)
        assert len(rf.runs) == len(set(counts))
        assert fit_or_error(rf) == fit_or_error(one_rank_runs(points))  # the default window
        for lo, hi in windows:
            assert fit_or_error(rf, lo, hi) == fit_or_error(one_rank_runs(points), lo, hi)

    def test_simulated_table(self, skewed_table):
        counts = list(skewed_table.entries.values())
        rf = empirical_rank_freq(skewed_table)
        assert tuple(rf) == per_word_points(counts)
        assert len(rf.runs) == len(set(counts)) < len(counts) // 10
        per_word = one_rank_runs(per_word_points(counts))
        assert ols_loglog(rf, 10, 300) == ols_loglog(per_word, 10, 300)
