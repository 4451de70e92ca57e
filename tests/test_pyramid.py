"""Lattice counting, levels, and the envelope certificate."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_random_alphabet
from zipfmonkey import (
    enumerate_levels,
    functional_equation_residual,
    iter_compositions,
    log_weights,
    make_explicit,
    make_gusein_zade,
    make_uniform,
    multinomial,
    p_of_rank,
    q_tilde_direct,
    q_tilde_recursive,
    rank_of_probability,
    rescale_weights,
    solve_gamma,
    verify_bounds,
    weight_events,
)
from zipfmonkey.errors import BoundViolationError, ResourceGuardError
from zipfmonkey.gamma import WeightVector

LN2 = math.log(2.0)
LN3 = math.log(3.0)


class TestMultinomial:
    def test_empty_word(self):
        assert multinomial((0, 0, 0)) == 1
        assert multinomial(()) == 1

    def test_small_values(self):
        assert multinomial((2, 1)) == 3
        assert multinomial((3, 3, 3)) == 1680
        assert multinomial((1, 1, 1, 1)) == 24

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            multinomial((1, -1))

    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=5))
    def test_matches_factorial_formula(self, k):
        expected = math.factorial(sum(k))
        for ki in k:
            expected //= math.factorial(ki)
        assert multinomial(k) == expected


class TestQTilde:
    def test_zero_extension(self):
        wv = log_weights(make_uniform(2, 1 / 3))
        assert q_tilde_direct(wv, -0.001) == 0
        assert q_tilde_recursive(wv, -5.0) == 0

    def test_only_empty_word_at_origin(self):
        wv = log_weights(make_uniform(2, 1 / 3))
        assert q_tilde_direct(wv, 0.0) == 1
        assert q_tilde_recursive(wv, 0.0) == 1

    def test_two_symbol_words(self):
        # p = (1/3, 1/3), p0 = 1/3: words of length <= 2 total 1 + 2 + 4
        wv = log_weights(make_uniform(2, 1 / 3))
        assert q_tilde_direct(wv, 2.2) == 7  # 2 ln 3 = 2.197...
        assert q_tilde_recursive(wv, 2.2) == 7

    def test_uniform_closed_form(self):
        # normalized n=2: Q(x) = 2**(floor(x/ln2)+1) - 1
        wv = WeightVector((LN2, LN2))
        for x in (0.0, 0.5, 1.0, 3.7, 10.0, 20.0):
            expected = 2 ** (int(x / LN2) + 1) - 1
            assert q_tilde_direct(wv, x) == expected
            assert q_tilde_recursive(wv, x) == expected

    def test_boundary_is_inclusive(self):
        # a lattice point exactly at x counts, by the tie tolerance
        wv = WeightVector((LN2, LN2))
        assert q_tilde_direct(wv, 3 * LN2) == 15

    def test_cross_evaluator_random(self):
        rng = random.Random(77)
        for _ in range(150):
            n = rng.choice((2, 3, 4))
            al = make_random_alphabet(rng, n, rng.uniform(0.05, 0.4))
            sol = solve_gamma(al)
            wv = log_weights(al)
            x = rng.uniform(-1.0, 0.9 * math.log(1e6) / sol.gamma)
            assert q_tilde_direct(wv, x) == q_tilde_recursive(wv, x)

    def test_monotone_in_x(self):
        rng = random.Random(78)
        for _ in range(50):
            al = make_random_alphabet(rng, rng.choice((2, 3)), 0.2)
            wv = log_weights(al)
            a, b = sorted((rng.uniform(0, 8), rng.uniform(0, 8)))
            assert q_tilde_direct(wv, a) <= q_tilde_direct(wv, b)

    def test_node_budget_guard(self):
        wv = log_weights(make_uniform(3, 0.1))
        with pytest.raises(ResourceGuardError):
            q_tilde_direct(wv, 30.0, node_budget=100)
        with pytest.raises(ResourceGuardError):
            q_tilde_recursive(wv, 500.0, node_budget=100)


class TestRankOfProbability:
    def test_empty_word_anchor(self):
        al = make_explicit((0.6, 0.2), 0.2)
        assert rank_of_probability(al, 0.2) == 1

    @pytest.mark.parametrize(
        "al",
        [make_gusein_zade(5, 0.18), make_gusein_zade(26, 0.18), make_uniform(26, 0.037037)],
    )
    def test_empty_word_anchor_after_rounding(self, al):
        # exp(log(p0)) rounds above p0 for these alphabets
        levels = enumerate_levels(al, max_rank=1)
        assert rank_of_probability(al, math.exp(levels[0].log_prob)) == 1

    def test_top_letter_anchor(self):
        al = make_explicit((0.6, 0.2), 0.2)
        assert rank_of_probability(al, 0.6 * 0.2) == 2

    def test_nonincreasing_in_f(self):
        al = make_explicit((0.5, 0.3), 0.2)
        ranks = [rank_of_probability(al, f) for f in (0.2, 0.1, 0.05, 0.01, 0.001)]
        assert ranks == sorted(ranks)

    def test_rejects_out_of_range(self):
        al = make_explicit((0.6, 0.2), 0.2)
        with pytest.raises(ValueError):
            rank_of_probability(al, 0.3)  # > p0
        with pytest.raises(ValueError):
            rank_of_probability(al, 0.0)
        with pytest.raises(ValueError):
            rank_of_probability(make_explicit((0.5, 0.5), 0.0), 0.1)  # p0 = 0


class TestEnumerateLevels:
    def test_uniform_first_three_levels(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=7)
        got = [(lv.word_count, lv.rank_lo, lv.rank_hi) for lv in table]
        assert got == [(1, 1, 1), (2, 2, 3), (4, 4, 7)]
        assert table[0].weight == 0.0
        assert table[1].weight == pytest.approx(LN3, abs=1e-12)
        assert table[2].weight == pytest.approx(2 * LN3, abs=1e-12)
        assert not table.truncated

    def test_level_zero_is_empty_word(self):
        table = enumerate_levels(make_explicit((0.6, 0.2), 0.2), max_rank=1)
        lv = table[0]
        assert (lv.weight, lv.word_count, lv.rank_lo, lv.rank_hi) == (0.0, 1, 1, 1)
        assert lv.log_prob == pytest.approx(math.log(0.2))

    def test_mixed_weight_class(self):
        # words "ab" and "ba" share the weight -ln(0.6) - ln(0.2)
        al = make_explicit((0.6, 0.2), 0.2)
        w = -math.log(0.6) - math.log(0.2)
        table = enumerate_levels(al, max_weight=w + 0.01)
        match = [lv for lv in table if abs(lv.weight - w) < 1e-9]
        assert len(match) == 1
        assert match[0].word_count == 2

    def test_rank_chain_invariants(self):
        rng = random.Random(9)
        for _ in range(20):
            al = make_random_alphabet(rng, rng.choice((2, 3, 4)), rng.uniform(0.1, 0.5))
            table = enumerate_levels(al, max_rank=rng.randint(1, 500))
            assert table[0].rank_lo == 1
            for prev, cur in zip(table, table.levels[1:]):
                assert cur.rank_lo == prev.rank_hi + 1
                assert cur.weight > prev.weight
            for lv in table:
                assert lv.rank_hi - lv.rank_lo + 1 == lv.word_count

    def test_rank_budget_completes_final_level(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=5)
        # rank 5 falls inside the third level, which must come back whole
        assert table.max_rank == 7

    def test_weight_budget_matches_counting_function(self):
        rng = random.Random(10)
        for _ in range(20):
            al = make_random_alphabet(rng, rng.choice((2, 3)), 0.25)
            x = rng.uniform(0.5, 6.0)
            table = enumerate_levels(al, max_weight=x)
            assert table.max_rank == q_tilde_direct(log_weights(al), x)

    def test_budget_validation(self):
        al = make_uniform(2, 0.2)
        with pytest.raises(ValueError):
            enumerate_levels(al)
        with pytest.raises(ValueError):
            enumerate_levels(al, max_rank=5, max_weight=2.0)
        with pytest.raises(ValueError):
            enumerate_levels(al, max_rank=0)
        with pytest.raises(ValueError):
            enumerate_levels(make_explicit((0.5, 0.5), 0.0), max_rank=5)

    def test_node_budget_truncates_cleanly(self):
        table = enumerate_levels(make_uniform(3, 0.1), max_rank=10**6, node_budget=500)
        assert table.truncated
        assert len(table) > 0
        for prev, cur in zip(table, table.levels[1:]):
            assert cur.rank_lo == prev.rank_hi + 1


class TestPOfRank:
    def test_rank_one_is_empty_word(self):
        al = make_uniform(2, 1 / 3)
        table = enumerate_levels(al, max_rank=7)
        assert p_of_rank(table, 1) == pytest.approx(math.log(1 / 3))

    def test_inside_level(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=7)
        assert p_of_rank(table, 5) == pytest.approx(math.log(1 / 27), abs=1e-12)

    def test_span_boundaries(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=20)
        for lv in table:
            assert p_of_rank(table, lv.rank_lo) == lv.log_prob
            assert p_of_rank(table, lv.rank_hi) == lv.log_prob

    def test_out_of_range(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=7)
        with pytest.raises(ValueError):
            p_of_rank(table, 0)
        with pytest.raises(ValueError):
            p_of_rank(table, table.max_rank + 1)


class TestFunctionalEquation:
    def test_trivial_points(self):
        wv = log_weights(make_uniform(2, 1 / 3))
        assert functional_equation_residual(wv, -1.0) == 0
        assert functional_equation_residual(wv, 0.0) == 0

    def test_identically_zero_random(self):
        rng = random.Random(11)
        for _ in range(20):
            al = make_random_alphabet(rng, rng.choice((2, 3, 4)), rng.uniform(0.05, 0.5))
            wv = log_weights(al)
            for _ in range(20):
                x = rng.uniform(-2.0, 12.0)
                assert functional_equation_residual(wv, x) == 0


class TestIterCompositions:
    def test_unique_generation_and_order(self):
        wv = log_weights(make_explicit((0.5, 0.3), 0.2))
        comps = list(iter_compositions(wv, 5.0))
        seen = {c.k for c in comps}
        assert len(seen) == len(comps)
        weights = [c.weight for c in comps]
        assert weights == sorted(weights)
        assert comps[0].k == (0, 0) and comps[0].count == 1

    def test_counts_are_multinomials(self):
        wv = log_weights(make_explicit((0.5, 0.3), 0.2))
        for c in iter_compositions(wv, 4.0):
            assert c.count == multinomial(c.k)

    def test_covers_the_region(self):
        wv = log_weights(make_uniform(2, 1 / 3))
        total = sum(c.count for c in iter_compositions(wv, 6.0))
        assert total == q_tilde_direct(wv, 6.0)


class TestVerifyBounds:
    def test_uniform_two_letter_certificate(self):
        wv = WeightVector((LN2, LN2))
        cert = verify_bounds(wv, 30.0)
        # q(x) oscillates over [1, 2) for this lattice
        assert cert.c1 == pytest.approx(1.0, rel=1e-9)
        assert cert.c2 == pytest.approx(2.0, rel=1e-9)
        assert cert.base_interval_end == pytest.approx(LN2)
        assert cert.verified_up_to == 30.0
        assert 0 < cert.c1 < cert.c2
        assert cert.event_count == int(30.0 / LN2) + 1

    def test_rescaled_alphabet_certificate(self):
        al = make_explicit((0.6, 0.2), 0.2)
        wv = rescale_weights(al, solve_gamma(al))
        cert = verify_bounds(wv, 25.0)
        assert cert.verified_up_to == 25.0
        assert 0 < cert.c1 < cert.c2
        assert cert.event_count > 100

    def test_certificate_bounds_hold_at_events(self):
        al = make_explicit((0.6, 0.2), 0.2)
        wv = rescale_weights(al, solve_gamma(al))
        cert = verify_bounds(wv, 20.0)
        shift = 1.0 / (wv.n - 1)
        for x, q in weight_events(wv, 20.0):
            assert cert.c1 < (q + shift) * math.exp(-x) < cert.c2

    def test_rejects_x_max_inside_base(self):
        wv = WeightVector((LN2, LN2))
        with pytest.raises(ValueError):
            verify_bounds(wv, LN2)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            verify_bounds(log_weights(make_uniform(2, 0.2)), 10.0)

    def test_rejects_single_letter(self):
        with pytest.raises(ValueError, match="at least 2"):
            verify_bounds(WeightVector((0.5,)), 10.0)

    def test_node_budget_guard(self):
        al = make_uniform(4, 0.1)
        wv = rescale_weights(al, solve_gamma(al))
        with pytest.raises(ResourceGuardError):
            verify_bounds(wv, 20.0, node_budget=50)
