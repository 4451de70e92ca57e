"""Alphabet constructors, invariants, estimation, serialization."""

import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zipfmonkey import alphabet as am
from zipfmonkey import estimate_from_corpus, make_explicit, make_gusein_zade, make_uniform


class TestMakeUniform:
    def test_26_letters_space_one_27th(self):
        al = make_uniform(26, 1 / 27)
        assert al.n == 26
        for p in al.letter_probs:
            assert p == pytest.approx(1 / 27, abs=1e-15)

    def test_two_letters_no_space(self):
        al = make_uniform(2, 0.0)
        assert al.letter_probs == (0.5, 0.5)
        assert al.space_prob == 0.0

    def test_three_letters(self):
        al = make_uniform(3, 0.25)
        assert al.letter_probs == (0.25, 0.25, 0.25)

    @pytest.mark.parametrize("n", [0, 1, -3])
    def test_rejects_small_n(self, n):
        with pytest.raises(ValueError):
            make_uniform(n, 0.1)

    @pytest.mark.parametrize("p0", [-0.1, 1.0, 1.5])
    def test_rejects_bad_p0(self, p0):
        with pytest.raises(ValueError):
            make_uniform(5, p0)


class TestGuseinZade:
    def test_two_letters(self):
        al = make_gusein_zade(2, 0.0)
        assert al.letter_probs[0] == pytest.approx(0.75, abs=1e-15)
        assert al.letter_probs[1] == pytest.approx(0.25, abs=1e-15)

    def test_three_letters(self):
        al = make_gusein_zade(3, 0.0)
        expected = (11 / 18, 5 / 18, 2 / 18)
        for p, e in zip(al.letter_probs, expected):
            assert p == pytest.approx(e, abs=1e-15)

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("p0", [0.0, 0.18, 1 / 27])
    def test_exact_rational_form(self, n, p0):
        # independent evaluation: p_i = (1-p0) (H_n - H_{i-1}) / n in exact rationals
        harmonic = [Fraction(0)]
        for j in range(1, n + 1):
            harmonic.append(harmonic[-1] + Fraction(1, j))
        al = make_gusein_zade(n, p0)
        for i in range(1, n + 1):
            exact = (1.0 - p0) * float((harmonic[n] - harmonic[i - 1]) / n)
            assert abs(al.letter_probs[i - 1] - exact) <= 1e-15

    @pytest.mark.parametrize("n", [2, 3, 5, 26, 400, 2000])
    def test_bit_identical_to_fsum_of_terms(self, n):
        # the quadratic formula the suffix sums replaced: each H(n) - H(i-1)
        # is the fsum of the float terms 1/i, ..., 1/n
        weights = [math.fsum(1.0 / j for j in range(i, n + 1)) for i in range(1, n + 1)]
        total = math.fsum(weights)
        probs = tuple((1.0 - 0.18) * w / total for w in weights)
        assert make_gusein_zade(n, 0.18) == make_explicit(probs, 0.18)

    @pytest.mark.parametrize("n,p0", [(2, 0.0), (7, 0.1), (26, 1 / 27), (40, 0.3)])
    def test_normalization_identity(self, n, p0):
        al = make_gusein_zade(n, p0)
        assert math.fsum(al.letter_probs) == pytest.approx(1 - p0, abs=1e-12)


class TestMakeExplicit:
    def test_passthrough(self):
        al = make_explicit((0.5, 0.3), 0.2)
        assert al.letter_probs == (0.5, 0.3)
        assert al.space_prob == 0.2

    def test_canonicalizes_order(self):
        al = make_explicit((0.3, 0.5), 0.2)
        assert al.letter_probs == (0.5, 0.3)

    def test_labels_follow_sort(self):
        al = make_explicit((0.3, 0.5), 0.2, labels=("x", "y"))
        assert al.labels == ("y", "x")

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError, match="off by"):
            make_explicit((0.5, 0.3), 0.1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_explicit((1.0, -0.2), 0.2)

    def test_renormalizes_within_tolerance(self):
        probs = (0.5 + 4e-13, 0.3)
        al = make_explicit(probs, 0.2)
        assert abs(math.fsum(al.letter_probs) + al.space_prob - 1.0) <= 1e-15

    @given(
        st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=2, max_size=12),
        st.floats(min_value=0.0, max_value=0.9),
    )
    def test_canonical_and_normalized(self, raw, p0):
        total = math.fsum(raw)
        al = make_explicit([r / total * (1 - p0) for r in raw], p0)
        assert abs(math.fsum(al.letter_probs) + al.space_prob - 1.0) <= 1e-12
        for a, b in zip(al.letter_probs, al.letter_probs[1:]):
            assert a >= b


class TestEstimateFromCorpus:
    def test_direct_count(self):
        al = estimate_from_corpus("ab ab")
        assert al.space_prob == pytest.approx(1 / 5)
        assert al.letter_probs == pytest.approx((2 / 5, 2 / 5))

    def test_single_letter_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            estimate_from_corpus("aaaa")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            estimate_from_corpus("...!!!123")
        with pytest.raises(ValueError, match="empty"):
            estimate_from_corpus("")

    def test_punctuation_and_digits_dropped(self):
        al = estimate_from_corpus("a1b, a?b")
        assert al.space_prob == pytest.approx(1 / 5)
        assert al.letter_probs == pytest.approx((2 / 5, 2 / 5))

    def test_whitespace_run_is_one_event(self):
        al = estimate_from_corpus("ab \t\n ab")
        assert al.space_prob == pytest.approx(1 / 5)

    def test_case_folding(self):
        al = estimate_from_corpus("Ab aB")
        assert al.n == 2


def reference_estimate(text, fold_case=True):
    """estimate_from_corpus as one pass over the characters, the spec it must equal."""
    counts = {}
    spaces = 0
    in_run = False
    for ch in text:
        if ch.isspace():
            if not in_run:
                spaces += 1
            in_run = True
        else:
            in_run = False
            if ch.isalpha():
                key = ch.lower() if fold_case and len(ch.lower()) == 1 else ch
                counts[key] = counts.get(key, 0) + 1
    total = spaces + sum(counts.values())
    if total == 0:
        raise ValueError("empty corpus: no letters or spaces after filtering")
    if len(counts) < 2:
        raise ValueError(f"need at least 2 distinct letters, observed {len(counts)}")
    labels = sorted(counts)
    return make_explicit([counts[c] / total for c in labels], spaces / total, labels)


def _outcome(estimate, *args, **kwargs):
    try:
        al = estimate(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return al.letter_probs, al.space_prob, al.labels


# letters whose lowercase differs from a one-letter case map (İ lowers to two
# code points, so it is kept as it is), punctuation, digits, CJK, and
# whitespace beyond ' \t\n'
CORPUS_CHARS = st.sampled_from(
    list("abcXYZİßẞ.,!?-09中文字")
    + [" ", "\t", "\n", "\r", "\x0b", "\x85", "\x1c", "\u2028", "\u3000"]
)


class TestEstimateMatchesReference:
    @settings(max_examples=300)
    @given(
        text=st.text(CORPUS_CHARS, max_size=60),
        fold_case=st.booleans(),
    )
    @example("ab \t\n\u3000 ba\x85", True)
    @example("İßẞ i", True)
    @example("...12", True)
    @example(" \t\x1c", True)
    @example("aaa A", True)
    def test_equals_per_character_count(self, text, fold_case):
        expected = _outcome(reference_estimate, text, fold_case=fold_case)
        assert _outcome(estimate_from_corpus, text, fold_case=fold_case) == expected


ALL_CODE_POINTS = "".join(map(chr, range(sys.maxunicode + 1)))
WHITESPACE = "".join(ch for ch in ALL_CODE_POINTS if ch.isspace())


def regex_runs_outcome(text):
    """estimate_from_corpus on a text of a, b and whitespace, its space
    events counted as the regex's whitespace runs."""
    runs = len(re.findall(r"\s+", text))
    counts = {c: text.count(c) for c in "ab" if c in text}
    total = runs + sum(counts.values())
    if total == 0:
        return "empty corpus: no letters or spaces after filtering"
    if len(counts) < 2:
        return f"need at least 2 distinct letters, observed {len(counts)}"
    return _outcome(make_explicit, [counts[c] / total for c in "ab"], runs / total, ["a", "b"])


class TestWhitespaceRuns:
    def test_regex_whitespace_is_isspace(self):
        assert "".join(re.findall(r"\s", ALL_CODE_POINTS)) == WHITESPACE

    @settings(max_examples=300)
    @given(st.text(st.sampled_from("ab" + WHITESPACE), max_size=40))
    @example("")
    @example(" ")
    @example("\u3000\x85\t\x1c")
    @example(" a b ")
    def test_split_runs_equal_regex_runs(self, text):
        # "ab" on one side keeps the run count visible when text has no letters
        for t in (text, "ab" + text, text + "ab"):
            assert _outcome(estimate_from_corpus, t) == regex_runs_outcome(t), repr(t)


def assert_alphabets_close(a, b, rel=1e-13):
    # parsing renormalizes, so round trips are lossless to well past 12
    # significant digits but not necessarily bit-exact
    assert b.labels == a.labels
    assert b.space_prob == pytest.approx(a.space_prob, rel=rel, abs=1e-15)
    for pa, pb in zip(a.letter_probs, b.letter_probs):
        assert pb == pytest.approx(pa, rel=rel)


class TestSerialization:
    def test_text_round_trip(self):
        al = make_gusein_zade(5, 0.18)
        assert_alphabets_close(al, am.loads(am.to_text(al)))

    def test_missing_space_line(self):
        with pytest.raises(ValueError, match="space"):
            am.loads("a 0.5\nb 0.5\n")

    def test_bad_line(self):
        with pytest.raises(ValueError, match="line 2"):
            am.loads("space 0.2\na 0.4 extra\n")

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lines_end_at_each_newline_form(self, newline):
        text = newline.join(["# format: v1 alphabet", "space 0.5", "a 0.25", "b 0.25", ""])
        assert am.loads(text) == make_explicit((0.25, 0.25), 0.5)
        with pytest.raises(ValueError, match="^line 4: expected '<label> <prob>', got 'bad'$"):
            am.loads(text.replace("b 0.25", "bad"))

    @pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
    def test_only_newlines_end_a_line(self, sep):
        # str.splitlines ends a line at these too, reading a file does not:
        # inside a line they are whitespace, as between a label and its probability
        assert am.loads(f"space 0.5\na{sep}0.25\nb 0.25\n") == make_explicit((0.25, 0.25), 0.5)
        with pytest.raises(ValueError, match="^line 4: expected '<label> <prob>', got 'bad'$"):
            am.loads(f"# one{sep}# two\nspace 0.5\na 0.25\nbad\nb 0.25\n")

    @pytest.mark.parametrize(
        "doc",
        [
            "[]",
            '"abc"',
            '{"space": 0.2}',
            '{"letters": 5, "space": 0.1}',
            '{"letters": {"a": null, "b": 0.4}, "space": 0.2}',
            '{"letters": {"a": 0.4, "b": 0.4}, "space": [0.2]}',
            '{"a":' * 100_000,
        ],
    )
    def test_malformed_json_is_a_value_error(self, doc):
        # the one format is text: a JSON document fails on its first line
        with pytest.raises(ValueError, match="^line 1: "):
            am.loads(doc)


class TestLabelRule:
    """File labels must be prefix-free, nonempty, without whitespace, not
    start with '#' and not be 'space': others corrupt the word table or the
    text format."""

    @pytest.mark.parametrize(
        "labels, bad",
        [
            (["a", "ab", "b"], "ab"),  # "a"+"b" and "ab" render alike
            (["ba", "b", "c"], "ba"),
            (["a", "b", "a"], "a"),  # a duplicate starts with itself
        ],
    )
    def test_label_rejected(self, labels, bad):
        prev = min(x for x in labels if bad.startswith(x))  # the label it starts with
        text = "space 0.25\n" + "".join(f"{label} 0.25\n" for label in labels)
        with pytest.raises(ValueError) as exc:
            am.loads(text)
        assert str(exc.value) == (
            f"bad letter label {bad!r}: it starts with the label {prev!r}, "
            "and labels must be prefix-free"
        )

    def test_space_label_is_a_second_space_line(self):
        with pytest.raises(ValueError, match="^line 3: duplicate space line$"):
            am.loads("space 0.25\na 0.25\nspace 0.25\nb 0.25\n")

    @pytest.mark.parametrize(
        "text", ["space 0.2\na 0.4\nab 0.4\n", "space 0.2\nab 0.4\na 0.4\n"]
    )
    def test_text_prefix_rejected(self, text):
        with pytest.raises(ValueError, match="bad letter label 'ab'"):
            am.loads(text)

    def test_text_duplicate_rejected(self):
        with pytest.raises(ValueError, match="bad letter label 'a'"):
            am.loads("space 0.2\na 0.4\na 0.4\n")

    def test_valid_labels_round_trip(self):
        al = make_explicit((0.3, 0.25, 0.2, 0.05), 0.2, labels=("th", "e", "中", "sp"))
        assert_alphabets_close(al, am.loads(am.to_text(al)))

    def test_generated_labels_are_not_checked(self, monkeypatch):
        def refuse(labels):
            raise AssertionError("checked generated labels")

        monkeypatch.setattr(am, "_check_labels", refuse)
        make_gusein_zade(30, 0.2)
        make_uniform(30, 0.2)
        estimate_from_corpus("İ i ab ba")  # 'i' and the unfolded 'İ' are both labels

    @pytest.mark.parametrize(
        "labels, spelling",
        [
            (["<", "EPS>", "b"], "'<' + 'EPS>'"),
            (["<EPS>", "b"], "'<EPS>'"),
            (["<", "E", "P", "S>", "b"], "'<' + 'E' + 'P' + 'S>'"),
        ],
    )
    def test_labels_that_spell_the_empty_word_rejected(self, labels, spelling):
        # a word table writes the empty word as <EPS>: no word may render like it
        text = "space 0.2\n" + "".join(f"{x} {0.8 / len(labels)!r}\n" for x in labels)
        with pytest.raises(ValueError) as exc:
            am.loads(text)
        assert str(exc.value) == (
            f"bad letter labels: {spelling} spells '<EPS>', which a word table writes "
            "for the empty word"
        )

    @pytest.mark.parametrize("labels", [["<", "EPS", "b"], ["<EPS>x", "b"], ["EPS>", "b"]])
    def test_labels_that_do_not_spell_the_empty_word_pass(self, labels):
        text = "space 0.2\n" + "".join(f"{x} {0.8 / len(labels)!r}\n" for x in labels)
        assert sorted(am.loads(text).labels) == sorted(labels)


class TestOneCodePointLabels:
    def test_dotted_capital_i_is_not_folded(self):
        # İ lowers to "i" plus a combining dot, which starts with the label "i"
        al = estimate_from_corpus("İstanbul is in it")
        assert set(al.labels) == set("abilnstuİ")
        assert_alphabets_close(al, am.loads(am.to_text(al)))

    def test_every_folded_letter_is_one_code_point(self):
        # the only letter whose lower case is longer than one code point
        assert [c for c in map(chr, range(0x110000)) if c.isalpha() and len(c.lower()) > 1] == [
            "\u0130"
        ]


class TestInvariants:
    def test_random_constructions_canonical(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 15)
            p0 = rng.uniform(0, 0.8)
            raw = [rng.uniform(0.01, 1.0) for _ in range(n)]
            s = sum(raw)
            al = make_explicit([r / s * (1 - p0) for r in raw], p0)
            assert abs(math.fsum(al.letter_probs) + al.space_prob - 1.0) <= 1e-12
            assert all(a >= b for a, b in zip(al.letter_probs, al.letter_probs[1:]))
            assert all(p > 0 for p in al.letter_probs)

    @pytest.mark.parametrize(
        "n, p0, message",
        [
            (1, 0.2, "alphabet needs at least 2 letters, got 1"),
            (0, 0.2, "alphabet needs at least 2 letters, got 0"),
            (3, 1.0, "space probability must be in [0, 1), got 1.0"),
            (3, -0.1, "space probability must be in [0, 1), got -0.1"),
            (3, math.nan, "space probability must be in [0, 1), got nan"),
        ],
    )
    @pytest.mark.parametrize(
        "build",
        [
            lambda n, p0: am.Alphabet((1 / max(n, 1),) * n, p0),
            lambda n, p0: make_explicit([(1 - p0) / max(n, 1)] * n, p0),
            make_uniform,
            make_gusein_zade,
        ],
        ids=["Alphabet", "make_explicit", "make_uniform", "make_gusein_zade"],
    )
    def test_each_constructor_states_a_rule_alike(self, build, n, p0, message):
        with pytest.raises(ValueError) as exc:
            build(n, p0)
        assert str(exc.value) == message

    def test_replace_runs_the_checks(self):
        al = make_uniform(3, 0.25)
        assert al._replace(space_prob=0.25) == al
        with pytest.raises(ValueError, match="probabilities sum to"):
            al._replace(space_prob=0.5)
        with pytest.raises(ValueError, match="weights must be positive"):
            al.log_weights._replace(weights=(1.0, -1.0))

    def test_direct_constructor_validates(self):
        with pytest.raises(ValueError):
            am.Alphabet((0.3, 0.5), 0.2)  # not sorted
        with pytest.raises(ValueError):
            am.Alphabet((0.5, 0.5), 0.2)  # bad sum
        with pytest.raises(ValueError):
            am.Alphabet((0.9,), 0.1)  # single letter

    @pytest.mark.parametrize(
        "build, labels, message",
        [
            (am.Alphabet, ("a", "a"), "labels must be distinct"),
            (am.Alphabet, ("a",), "labels must parallel letter_probs"),
            (make_explicit, ("a",), "labels must parallel probs"),
        ],
        ids=["Alphabet-distinct", "Alphabet-parallel", "make_explicit-parallel"],
    )
    def test_labels_rule(self, build, labels, message):
        with pytest.raises(ValueError) as exc:
            build((0.4, 0.4), 0.2, labels)
        assert str(exc.value) == message
