"""Brute-force enumeration and its agreement with the lattice machinery."""

import math
import random

import pytest

from conftest import make_random_alphabet
from oracle import (
    enumerate_all,
    oracle_levels,
    oracle_p_of_rank,
    oracle_rank_of_probability,
    p_of_rank,
)
from zipfmonkey import (
    enumerate_levels,
    log_weights,
    make_explicit,
    make_uniform,
    rank_of_probability,
)
from zipfmonkey.errors import ResourceGuardError


class TestEnumerateAll:
    def test_uniform_length_one(self):
        words = enumerate_all(make_uniform(2, 1 / 3), 1)
        assert [w.letters for w in words] == [(), (0,), (1,)]
        probs = [math.exp(w.log_prob) for w in words]
        assert probs == pytest.approx([1 / 3, 1 / 9, 1 / 9])

    def test_length_zero(self):
        words = enumerate_all(make_uniform(3, 0.25), 0)
        assert len(words) == 1 and words[0].letters == ()

    @pytest.mark.parametrize("n,max_len", [(2, 5), (3, 4)])
    def test_counting_identity(self, n, max_len):
        words = enumerate_all(make_uniform(n, 0.2), max_len)
        assert len(words) == sum(n**m for m in range(max_len + 1))

    def test_sorted_nonincreasing(self):
        words = enumerate_all(make_explicit((0.5, 0.2, 0.1), 0.2), 4)
        for a, b in zip(words, words[1:]):
            assert a.log_prob >= b.log_prob

    def test_total_probability_geometric(self):
        # uniform alphabet: enumerated mass is 1 - (1-p0)**(max_len+1)
        p0 = 0.3
        for max_len in (0, 1, 3, 6):
            words = enumerate_all(make_uniform(2, p0), max_len)
            mass = math.fsum(math.exp(w.log_prob) for w in words)
            assert mass == pytest.approx(1 - (1 - p0) ** (max_len + 1), abs=1e-12)

    def test_guard(self):
        with pytest.raises(ResourceGuardError):
            enumerate_all(make_uniform(10, 0.1), 8)

    def test_requires_space(self):
        with pytest.raises(ValueError):
            enumerate_all(make_explicit((0.5, 0.5), 0.0), 3)


class TestOracleRank:
    def test_anchors(self):
        al = make_explicit((0.6, 0.2), 0.2)
        words = enumerate_all(al, 8)
        assert oracle_rank_of_probability(words, 0.2) == 1
        assert oracle_rank_of_probability(words, 0.6 * 0.2) == 2

    def test_below_reliable_range(self):
        words = enumerate_all(make_explicit((0.6, 0.2), 0.2), 3)
        with pytest.raises(ValueError, match="reliable"):
            oracle_rank_of_probability(words, 0.2 * 0.6**5)

    def test_rejects_nonpositive(self):
        words = enumerate_all(make_uniform(2, 0.5), 2)
        with pytest.raises(ValueError):
            oracle_rank_of_probability(words, 0.0)


class TestCrossCheck:
    """The lattice machinery against plain enumeration."""

    @pytest.fixture(params=[(0.6, 0.2, 0.2), (0.5, 0.3, 0.2), (1 / 3, 1 / 3, 1 / 3)])
    def alphabet(self, request):
        p1, p2, p0 = request.param
        return make_explicit((p1, p2), p0)

    def test_rank_function_matches(self, alphabet):
        words = enumerate_all(alphabet, 8)
        rng = random.Random(13)
        floor = alphabet.space_prob * alphabet.letter_probs[0]**8
        for _ in range(60):
            f = math.exp(rng.uniform(math.log(floor) * 0.95, math.log(alphabet.space_prob)))
            assert rank_of_probability(alphabet, f) == oracle_rank_of_probability(words, f)

    def test_rank_function_matches_tied(self):
        # two letters tie exactly and a third does not: the direct walk's
        # grouped leaf and its ungrouped steps both answer
        al = make_explicit((0.3, 0.3, 0.2), 0.2)
        words = enumerate_all(al, 8)
        rng = random.Random(15)
        floor = al.space_prob * al.letter_probs[0]**8
        for _ in range(60):
            f = math.exp(rng.uniform(math.log(floor) * 0.95, math.log(al.space_prob)))
            assert rank_of_probability(al, f) == oracle_rank_of_probability(words, f)
        for lp in sorted({w.log_prob for w in words if w.log_prob > math.log(floor)}):
            f = math.exp(lp)
            assert rank_of_probability(al, f) == oracle_rank_of_probability(words, f)

    def test_levels_match(self, alphabet):
        max_len = 8
        words = enumerate_all(alphabet, max_len)
        cutoff = (max_len + 1) * min(log_weights(alphabet).weights) * 0.999
        table = enumerate_levels(alphabet, max_weight=cutoff)
        log_p0 = math.log(alphabet.space_prob)
        expected = [lv for lv in oracle_levels(words) if log_p0 - lv[0] <= cutoff]
        assert len(table.levels) == len(expected)
        for lv, (olp, ocount, olo, ohi) in zip(table.levels, expected):
            assert lv.rank_hi - lv.rank_lo + 1 == ocount
            assert lv.rank_lo == olo
            assert lv.rank_hi == ohi
            assert lv.log_prob == pytest.approx(olp, abs=1e-10)

    def test_p_of_rank_matches(self, alphabet):
        max_len = 8
        words = enumerate_all(alphabet, max_len)
        cutoff = (max_len + 1) * min(log_weights(alphabet).weights) * 0.999
        table = enumerate_levels(alphabet, max_weight=cutoff)
        rng = random.Random(14)
        top = table.max_rank
        for _ in range(60):
            r = rng.randint(1, top)
            assert p_of_rank(table.levels, r) == pytest.approx(
                oracle_p_of_rank(words, r), abs=1e-10
            )

    def test_specific_derived_value(self):
        # f = p0 * 0.6**2 for the (0.6, 0.2, p0=0.2) alphabet
        al = make_explicit((0.6, 0.2), 0.2)
        words = enumerate_all(al, 8)
        f = 0.2 * 0.6**2
        expected = oracle_rank_of_probability(words, f)
        assert rank_of_probability(al, f) == expected
        assert expected == 3  # eps (0.2), a (0.12), aa (0.072)
