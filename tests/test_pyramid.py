"""Lattice counting, levels, and the envelope certificate."""

import hashlib
import itertools
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import zipfmonkey
from conftest import make_random_alphabet
from oracle import multinomial
from test_api import PARAMETERS
from zipfmonkey import (
    FrequencyTable,
    compare,
    empirical_rank_freq,
    enumerate_levels,
    functional_equation_residual,
    generate_words,
    log_weights,
    make_explicit,
    make_gusein_zade,
    make_uniform,
    ols_loglog,
    p_of_rank,
    pyramid,
    q_tilde_direct,
    q_tilde_recursive,
    rank_of_probability,
    rescale_weights,
    solve_gamma,
    verify_bounds,
    weight_events,
)
from zipfmonkey.errors import BoundViolationError, ResourceGuardError
from zipfmonkey.gamma import RESIDUAL_TOL, WeightVector
from zipfmonkey.pyramid import (
    DEFAULT_NODE_BUDGET,
    TIE_EPS,
    BoundCertificate,
    _grid,
    _Grid,
    _iter_levels,
    _memo_sum,
    _region_sum,
)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def words_in(lv):
    """How many words a level holds: its rank span."""
    return lv.rank_hi - lv.rank_lo + 1


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

    def test_wide_alphabet_no_recursion_limit(self):
        # one stack frame per letter used to overflow at 1,500 letters
        h = math.fsum(1.0 / (i + 1) for i in range(1500))
        wv = log_weights(make_explicit([0.82 / ((i + 1) * h) for i in range(1500)], 0.18))
        x = 7.0
        assert q_tilde_direct(wv, x) == q_tilde_recursive(wv, x) > 100
        assert functional_equation_residual(wv, x) == 0

    def test_node_budget_guard(self):
        # tied letters are one group to the direct walk: uniform(3) at x=500
        # is floor(500 / ln(1/0.3)) + 1 = 416 grouped points
        wv = log_weights(make_uniform(3, 0.1))
        with pytest.raises(ResourceGuardError):
            q_tilde_direct(wv, 500.0, node_budget=100)
        with pytest.raises(ResourceGuardError):
            q_tilde_recursive(wv, 500.0, node_budget=100)
        untied = log_weights(make_explicit((0.45, 0.25, 0.12), 0.18))
        with pytest.raises(ResourceGuardError, match="ZIPFMONKEY_NODE_BUDGET"):
            q_tilde_direct(untied, 30.0, node_budget=100)

    def test_direct_budget_rule(self):
        # the direct walk trips iff its grouped lattice has more points than
        # the budget: every lattice point when untied, one per length when
        # tied, one per pair of group sizes for two groups, where the root
        # lands on the second lightest and the in-place loop does the walk
        tie = Fraction(TIE_EPS)
        untied = log_weights(make_explicit((0.45, 0.25, 0.12), 0.18))
        points = sum(p for _w, _words, p in product_levels(untied, Fraction(6) + tie, 0))
        uniform = log_weights(make_uniform(3, 0.1))
        lengths = int((Fraction(200) + tie) / Fraction(uniform.weights[0])) + 1
        two = log_weights(make_explicit((0.3, 0.3, 0.2), 0.2))
        groups = WeightVector(tuple(set(two.weights)))
        pairs = sum(p for _w, _words, p in product_levels(groups, Fraction(8) + tie, 0))
        assert groups.n == 2 and all(1 < size < 300 for size in (points, lengths, pairs))
        for wv, x, size in ((untied, 6.0, points), (uniform, 200.0, lengths), (two, 8.0, pairs)):
            expected = q_tilde_recursive(wv, x)
            for budget in range(1, 301):
                if size > budget:
                    with pytest.raises(ResourceGuardError):
                        q_tilde_direct(wv, x, node_budget=budget)
                else:
                    assert q_tilde_direct(wv, x, node_budget=budget) == expected


def dyadic(n):
    """p_i = 2**-i for i = 1..n; p0 takes the rest.  Every weight is an
    integer multiple of ln 2, so many lattice sums coincide."""
    p = [2.0**-i for i in range(1, n + 1)]
    return make_explicit(p, 2.0**-n)


# alphabets whose letters tie exactly, which the direct walk groups; dyadic
# ones, where the memo merges coinciding sums; and the benchmark's 26 letters
CROSS_CHECK_CASES = [
    (make_explicit((0.3, 0.3, 0.2), 0.2), (0.0, 1.2, 4.7, 9.0, 14.0)),
    (make_explicit((0.2, 0.2, 0.1, 0.1, 0.1), 0.3), (0.5, 3.3, 7.9, 10.0)),
    (make_explicit((0.25, 0.25, 0.1, 0.1, 0.05, 0.05), 0.2), (1.4, 5.0, 8.8)),
    (make_explicit((0.15,) * 4 + (0.1,), 0.3), (2.0, 6.1, 11.5)),
    (dyadic(5), (LN2 * 3, 9.9, 20.0, 35.0)),
    (dyadic(8), (LN2 * 7, 12.5, 35.0)),
    (make_uniform(26, 1 / 27), (3 * math.log(27), 20.0, 30.0)),
    (make_gusein_zade(26, 0.18), (3.0, 9.5, 14.0)),
]
CROSS_CHECK_IDS = ["tied3", "tied2groups", "tied3groups", "tied4+1", "dyadic5",
                   "dyadic8", "u26", "gz26"]


class TestTiedAndDyadicCrossCheck:
    @pytest.mark.parametrize("al, xs", CROSS_CHECK_CASES, ids=CROSS_CHECK_IDS)
    def test_direct_equals_recursive(self, al, xs):
        wv = log_weights(al)
        for x in xs:
            assert q_tilde_direct(wv, x) == q_tilde_recursive(wv, x)

    @pytest.mark.parametrize("al, xs", CROSS_CHECK_CASES, ids=CROSS_CHECK_IDS)
    def test_functional_equation(self, al, xs):
        wv = log_weights(al)
        for x in xs:
            assert functional_equation_residual(wv, x) == 0

    def test_tied_groups_count_words(self):
        # letters a, b at 0.3 and c at 0.2: weight <= 2 ln(1/0.3) holds the
        # empty word, a, b, c and the two-letter words over {a, b} (inclusive)
        wv = log_weights(make_explicit((0.3, 0.3, 0.2), 0.2))
        x = 2 * math.log(1 / 0.3)
        assert q_tilde_direct(wv, x) == 1 + 3 + 4


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
        levels = enumerate_levels(al, max_rank=1).levels
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

    @pytest.mark.parametrize(
        "al, x_max",
        [(make_gusein_zade(5, 0.18), 12.0), (make_gusein_zade(26, 0.18), 8.0),
         (make_uniform(26, 0.037037), 15.0)],
        ids=["gz5", "gz26", "u26"],
    )
    def test_every_level_probability_gives_its_rank_hi(self, al, x_max):
        table = enumerate_levels(al, max_weight=x_max)
        assert not table.truncated and len(table.levels) > 4
        for lv in table.levels:
            assert rank_of_probability(al, math.exp(lv.log_prob)) == lv.rank_hi


def fraction_grid(weights, x=None):
    """The Fraction form of _grid, kept as its reference: one lcm over every
    denominator, x + TIE_EPS summed as a Fraction."""
    tie = Fraction(TIE_EPS)
    fs = [Fraction(w) for w in weights] + [tie]
    if x is not None:
        fs.append(Fraction(x) + tie)
    denom = math.lcm(*(f.denominator for f in fs))
    ints = [f.numerator * (denom // f.denominator) for f in fs]
    if x is None:
        return ints[:-1], None, ints[-1], denom
    return ints[:-2], ints[-1], ints[-2], denom


GRID_WEIGHT = st.one_of(  # subnormal and tiny, ordinary, huge
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e-12, max_value=1e3),
    st.floats(min_value=1e250, max_value=1e300),
)
GRID_X = st.one_of(
    st.none(),
    st.floats(min_value=-1e300, max_value=1e300),
    st.integers(min_value=-10**40, max_value=10**40),
    st.fractions(max_denominator=10**9),
)


class TestGrid:
    @given(st.lists(GRID_WEIGHT, min_size=1, max_size=6), GRID_X)
    def test_matches_fraction_reference(self, weights, x):
        grid = _grid(weights)
        W0, T0, tie0, denom0 = fraction_grid(weights, x)
        # the weights in tie groups: each distinct weight once, ascending, with
        # its number of letters
        W = [wi for wi, gi in zip(grid.w, grid.g) for _ in range(gi)]
        assert list(grid.w) == sorted(set(W)) and len(W) == len(weights)
        # the same rationals on possibly different denominators ...
        assert [w * denom0 for w in W] == sorted(w * grid.denom for w in W0)
        assert grid.tie * denom0 == tie0 * grid.denom
        # ... so the walks' float reports round alike
        assert [w / grid.denom for w in W] == sorted(w / denom0 for w in W0)
        if x is not None:
            # every lattice sum is a whole number of the weights' grid steps,
            # so x + TIE_EPS is floored onto that grid
            assert grid.threshold(x) == T0 * grid.denom // denom0


def fine_grid(weights, x):
    """The grid the walks used before thresholds were floored: x's own
    denominator joins the weights', and x + TIE_EPS is exact on it."""
    W0, T0, tie0, denom0 = fraction_grid(weights, x)
    w, g = zip(*sorted(Counter(W0).items()))
    return _Grid(w, g, tie0, denom0), T0


# ordinary, tied and dyadic weights, so lattice sums coincide and tie
FINE_ALPHABETS = [
    make_explicit((0.3, 0.3, 0.2), 0.2),
    make_explicit((0.45, 0.25, 0.12), 0.18),
    make_gusein_zade(5, 0.18),
    dyadic(4),
]
FINE_OFFSET = st.one_of(  # finer than any weight's denominator
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=1e-30, max_value=1e-12),
    st.sampled_from([Fraction(1, 3), Fraction(1, 3 * 2**100), Fraction(7, 3 * 2**90)]),
)


@st.composite
def finer_x(draw, weights):
    """x on a finer grid than the weights: a tiny or subnormal float, a
    third, or a sum of 1-3 weights moved by a tiny offset, with or without
    -TIE_EPS, so that x + TIE_EPS lands just beside a lattice sum."""
    kind = draw(st.sampled_from(["tiny", "third", "beside"]))
    if kind == "tiny":
        return draw(st.floats(min_value=5e-324, max_value=1e-12))
    if kind == "third":
        return Fraction(draw(st.integers(1, 20).filter(lambda n: n % 3)), 3)
    picks = draw(st.lists(st.sampled_from(weights), min_size=1, max_size=3))
    offset = Fraction(draw(FINE_OFFSET)) * draw(st.sampled_from([1, -1]))
    shift = draw(st.sampled_from([0, Fraction(TIE_EPS)]))
    return sum(Fraction(w) for w in picks) - shift + offset


class TestFinerThreshold:
    @settings(deadline=None)
    @given(st.sampled_from(FINE_ALPHABETS), st.data())
    def test_counts_equal_the_fine_grid(self, al, data):
        wv = log_weights(al)
        x = data.draw(finer_x(wv.weights))
        fine, T0 = fine_grid(wv.weights, x)
        assert fine.denom % wv.grid.denom == 0
        assume(fine.denom > wv.grid.denom)  # a float such as 2**-60 is on the weights' grid
        assert fine.threshold(x) == T0  # exact on the fine grid
        budget = DEFAULT_NODE_BUDGET
        direct = _region_sum(fine, T0, budget)
        assert q_tilde_direct(wv, x) == direct
        assert q_tilde_recursive(wv, x) == _memo_sum(fine, T0, budget) == direct
        assert functional_equation_residual(wv, x) == 0
        jumps = list(_iter_levels(SimpleNamespace(grid=fine), x, budget))
        assert weight_events(wv, x) == jumps
        table = enumerate_levels(al, max_weight=x)
        assert not table.truncated
        assert [(lv.weight, lv.rank_hi) for lv in table.levels] == jumps
        assert [words_in(lv) for lv in table.levels] == [
            q - q_prev for (_x, q_prev), (_w, q) in itertools.pairwise([(None, 0), *jumps])
        ]


class TestWeightCache:
    def test_one_weight_vector_and_one_grid_per_alphabet(self, monkeypatch):
        built = Counter()
        new, grid = WeightVector.__new__, pyramid._grid

        def counting_new(cls, weights):
            built["weight vectors"] += 1
            return new(cls, weights)

        def counting_grid(weights):
            built["grids"] += 1
            return grid(weights)

        monkeypatch.setattr(WeightVector, "__new__", counting_new)
        monkeypatch.setattr(pyramid, "_grid", counting_grid)
        al = make_uniform(26, 1 / 27)
        ranks = [rank_of_probability(al, f) for f in (1e-3, 1e-5, 1e-7, 1e-5, 1 / 27)]
        enumerate_levels(al, max_rank=1000)
        assert built == {"weight vectors": 1, "grids": 1}
        assert ranks[1] == ranks[3] and ranks[-1] == 1

    def test_value_semantics_hold_after_a_query(self):
        al, fresh = make_gusein_zade(5, 0.18), make_gusein_zade(5, 0.18)
        rank = rank_of_probability(al, 1e-4)
        wv = log_weights(al)
        fresh_wv = WeightVector(wv.weights)

        def records(al):
            """One of each public record type, built from al alone."""
            sol = solve_gamma(al)
            table = enumerate_levels(al, max_rank=200)
            words = generate_words(al, 2000, seed=1)
            curve = empirical_rank_freq(words.entries.values())
            fit = ols_loglog(curve)
            cert = verify_bounds(rescale_weights(al, sol), 8.0)
            return [sol, table, table.levels[3], cert, words, curve, fit, compare(fit, al)]

        pairs = [(al, fresh), (wv, fresh_wv), *zip(records(al), records(fresh))]
        public = {name for name in zipfmonkey.__all__ if name[0].isupper()} - {
            "BoundViolationError", "ResourceGuardError"}
        assert {type(obj).__name__ for obj, _twin in pairs} == public
        for obj, twin in pairs:
            assert obj is not twin and obj == twin and repr(obj) == repr(twin)
            back = pickle.loads(pickle.dumps(obj))
            assert type(back) is type(obj) and back == obj and repr(back) == repr(obj)
            if isinstance(obj, FrequencyTable):  # holds a dict, so unhashable as before
                with pytest.raises(TypeError):
                    hash(obj)
            else:
                assert hash(obj) == hash(twin) == hash(back)
            field = PARAMETERS[type(obj).__name__][0]
            with pytest.raises(AttributeError):
                setattr(obj, field, getattr(twin, field))
            with pytest.raises(AttributeError):
                delattr(obj, field)
            assert obj == twin
        assert rank_of_probability(pickle.loads(pickle.dumps(al)), 1e-4) == rank

    @pytest.mark.parametrize(
        "make", [lambda: make_gusein_zade(26, 0.18), lambda: make_uniform(26, 1 / 27)],
        ids=["gz26", "u26"],
    )
    def test_equal_alphabets_built_apart_answer_alike(self, make):
        a, b = make(), make()
        assert a == b and log_weights(a) is not log_weights(b)
        fs = [10.0**-e for e in range(2, 9)]
        assert [rank_of_probability(a, f) for f in fs] == [rank_of_probability(b, f) for f in fs]

    def test_tripped_query_message(self):
        al = make_gusein_zade(5, 0.18)
        with pytest.raises(ResourceGuardError) as exc:
            rank_of_probability(al, 1e-9, node_budget=1000)
        assert str(exc.value) == (
            "node budget 1000 exhausted at weight 19.0085; "
            "raise ZIPFMONKEY_NODE_BUDGET to allow more"
        )
        assert rank_of_probability(al, 1e-9) == 11806299  # the trip left the cache sound


# one, two and three letter groups (WeightVector needs no normalization, so
# one letter is allowed), the two lightest groups single letters or tied;
# the lightest group holds the most probable letters
GROUP_CASES = [
    (0.6,),
    (0.3, 0.3, 0.3),
    (0.5, 0.3),
    (0.3, 0.3, 0.2),
    (0.4, 0.2, 0.2),
    (0.25, 0.25, 0.15, 0.15),
    (0.4, 0.3, 0.1),
    (0.3, 0.3, 0.2, 0.1),
    (0.4, 0.2, 0.2, 0.1),
    (0.2, 0.2, 0.15, 0.15, 0.1),
    (0.4, 0.2, 0.1, 0.1),
]
GROUP_IDS = ["1-single", "1-tied", "2-untied", "2-lightest-tied", "2-second-tied",
             "2-both-tied", "3-untied", "3-lightest-tied", "3-second-tied",
             "3-both-tied", "3-heaviest-tied"]


class TestTwoLightestGroups:
    @pytest.mark.parametrize("probs", GROUP_CASES, ids=GROUP_IDS)
    def test_direct_equals_recursive(self, probs):
        wv = WeightVector(tuple(-math.log(p) for p in probs))
        lo, hi = min(wv.weights), wv.L_max
        xs = [0.0, lo, hi, 2 * hi, lo + hi, 3 * lo + 2 * hi, 5.5, 9.0, 13.0]
        for x in xs:
            assert q_tilde_direct(wv, x) == q_tilde_recursive(wv, x)
            assert functional_equation_residual(wv, x) == 0


class TestEnumerateLevels:
    def test_uniform_first_three_levels(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=7)
        got = [(words_in(lv), lv.rank_lo, lv.rank_hi) for lv in table.levels]
        assert got == [(1, 1, 1), (2, 2, 3), (4, 4, 7)]
        assert table.levels[0].weight == 0.0
        assert table.levels[1].weight == pytest.approx(LN3, abs=1e-12)
        assert table.levels[2].weight == pytest.approx(2 * LN3, abs=1e-12)
        assert not table.truncated

    def test_level_zero_is_empty_word(self):
        table = enumerate_levels(make_explicit((0.6, 0.2), 0.2), max_rank=1)
        lv = table.levels[0]
        assert (lv.weight, lv.rank_lo, lv.rank_hi) == (0.0, 1, 1)
        assert lv.log_prob == pytest.approx(math.log(0.2))

    def test_mixed_weight_class(self):
        # words "ab" and "ba" share the weight -ln(0.6) - ln(0.2)
        al = make_explicit((0.6, 0.2), 0.2)
        w = -math.log(0.6) - math.log(0.2)
        table = enumerate_levels(al, max_weight=w + 0.01)
        match = [lv for lv in table.levels if abs(lv.weight - w) < 1e-9]
        assert len(match) == 1
        assert words_in(match[0]) == 2

    def test_rank_chain_invariants(self):
        rng = random.Random(9)
        for _ in range(20):
            al = make_random_alphabet(rng, rng.choice((2, 3, 4)), rng.uniform(0.1, 0.5))
            table = enumerate_levels(al, max_rank=rng.randint(1, 500))
            assert table.levels[0].rank_lo == 1
            for prev, cur in zip(table.levels, table.levels[1:]):
                assert cur.rank_lo == prev.rank_hi + 1
                assert cur.weight > prev.weight

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

    @pytest.mark.parametrize("bound", [math.inf, math.nan])
    def test_non_finite_weight_bound_names_the_rule(self, bound):
        al = make_gusein_zade(5, 0.18)
        rule = f"weight bound must be a finite number, got {bound}"
        with pytest.raises(ValueError, match=rule):
            pyramid.level_rows(al, max_weight=bound)  # refused at the call, unread
        with pytest.raises(ValueError, match=rule):
            enumerate_levels(al, max_weight=bound)
        with pytest.raises(ValueError, match=rule):
            weight_events(log_weights(al), bound)
        with pytest.raises(ValueError, match=rule):
            verify_bounds(rescale_weights(al, solve_gamma(al)), bound)

    def test_node_budget_truncates_cleanly(self):
        table = enumerate_levels(make_uniform(3, 0.1), max_rank=10**6, node_budget=500)
        assert table.truncated
        assert len(table.levels) > 0
        for prev, cur in zip(table.levels, table.levels[1:]):
            assert cur.rank_lo == prev.rank_hi + 1


class TestPOfRank:
    def test_rank_one_is_empty_word(self):
        al = make_uniform(2, 1 / 3)
        table = enumerate_levels(al, max_rank=7)
        assert p_of_rank(table.levels, 1) == pytest.approx(math.log(1 / 3))

    def test_inside_level(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=7)
        assert p_of_rank(table.levels, 5) == pytest.approx(math.log(1 / 27), abs=1e-12)

    def test_span_boundaries(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=20)
        for lv in table.levels:
            assert p_of_rank(table.levels, lv.rank_lo) == lv.log_prob
            assert p_of_rank(table.levels, lv.rank_hi) == lv.log_prob

    def test_out_of_range(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=7)
        with pytest.raises(ValueError):
            p_of_rank(table.levels, 0)
        with pytest.raises(ValueError):
            p_of_rank(table.levels, table.max_rank + 1)

    def test_bisects_without_iterating_the_table(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=20)
        expected = [p_of_rank(table.levels, r) for r in range(1, table.max_rank + 1)]

        class Unscannable(tuple):
            def __iter__(self):
                raise AssertionError("p_of_rank iterated the levels")

        levels = Unscannable(table.levels)
        assert [p_of_rank(levels, r) for r in range(1, table.max_rank + 1)] == expected
        with pytest.raises(ValueError):
            p_of_rank(Unscannable(), 1)


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


BOUND_RULE_ALPHABETS = {
    "gz5": make_gusein_zade(5, 0.18),
    "u26": make_uniform(26, 0.18),
    "tied": make_explicit((0.3, 0.3, 0.2), 0.2),  # two groups, one of them tied
}


class TestOneBoundRule:
    """Every exact entry point counts the words of weight up to x + TIE_EPS,
    negative x included, and refuses a bound that is not finite alike."""

    @pytest.mark.parametrize("x", [-1.0, -2e-9, -1e-9, -5e-10, -1e-12, -0.0, 0.0, 5e-10, 2.5])
    @pytest.mark.parametrize("name", sorted(BOUND_RULE_ALPHABETS))
    def test_entry_points_agree(self, name, x):
        al = BOUND_RULE_ALPHABETS[name]
        wv = log_weights(al)
        events = weight_events(wv, x)
        counts = {
            q_tilde_direct(wv, x),
            q_tilde_recursive(wv, x),
            events[-1][1] if events else 0,
            enumerate_levels(al, max_weight=x).max_rank,
        }
        if x < 1.0:  # below every letter's weight: the empty word alone, from -TIE_EPS on
            assert counts == {int(x >= -TIE_EPS)}
        assert len(counts) == 1
        assert functional_equation_residual(wv, x) == 0

    @pytest.mark.parametrize("bound", [-math.inf, math.inf, math.nan])
    @pytest.mark.parametrize("name", sorted(BOUND_RULE_ALPHABETS))
    def test_non_finite_bound_refused(self, name, bound):
        al = BOUND_RULE_ALPHABETS[name]
        wv = log_weights(al)
        calls = [
            lambda: q_tilde_direct(wv, bound),
            lambda: q_tilde_recursive(wv, bound),
            lambda: weight_events(wv, bound),
            lambda: enumerate_levels(al, max_weight=bound),
            lambda: functional_equation_residual(wv, bound),
            lambda: verify_bounds(rescale_weights(al, solve_gamma(al)), bound),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="^weight bound must be a finite number, got "):
                call()


def product_levels(wv, bound, tie):
    """Brute-force levels of all compositions with exact weight <= bound.

    Compositions come from itertools.product, weights are exact Fractions,
    and a level opens at a weight w0 and takes every weight up to w0 + tie.
    Returns (w0, words, lattice points) per level, ascending.
    """
    L = [Fraction(w) for w in wv.weights]
    top = int(bound / min(L)) + 1
    groups: dict[Fraction, list[int]] = {}
    for k in itertools.product(range(top), repeat=len(L)):
        w = sum(ki * li for ki, li in zip(k, L))
        if w <= bound:
            g = groups.setdefault(w, [0, 0])
            g[0] += multinomial(k)
            g[1] += 1
    levels = []
    for w, (words, points) in sorted(groups.items()):
        if levels and w - levels[-1][0] <= tie:
            levels[-1][1] += words
            levels[-1][2] += points
        else:
            levels.append([w, words, points])
    return [tuple(lv) for lv in levels]


# untied, exactly tied (0.25 = 0.5**2; two equal letters), a tied group
# bumping into a single letter and two tied groups (the generator walks each
# group as one node), and tied within TIE_EPS only (0.16 * (1 + 1e-12)
# against 0.4**2), where the levels and the jumps of the counting function
# both merge weights that differ
GENERATOR_ALPHABETS = [
    make_explicit((0.5, 0.3), 0.2),
    make_explicit((0.45, 0.25, 0.12), 0.18),
    make_explicit((0.5, 0.25), 0.25),
    make_explicit((0.4, 0.2, 0.2), 0.2),
    make_explicit((0.3, 0.3, 0.15), 0.25),
    make_explicit((0.25, 0.25, 0.1, 0.1), 0.3),
    make_explicit((0.4, 0.16 * (1 + 1e-12)), 0.44 - 0.16e-12),
]
GENERATOR_IDS = ["untied2", "untied3", "tied2", "tied3", "tied-bump3", "two-groups4", "near-tie2"]


class TestLevelGenerator:
    @pytest.mark.parametrize("al", GENERATOR_ALPHABETS, ids=GENERATOR_IDS)
    def test_weight_events_match_product_groups(self, al):
        wv = log_weights(al)
        x = 8.0
        tie = Fraction(TIE_EPS)
        expected = []
        cum = 0
        for w, words, _points in product_levels(wv, Fraction(x) + tie, tie):
            cum += words
            expected.append((float(w), cum))
        assert weight_events(wv, x) == expected

    @pytest.mark.parametrize("al", GENERATOR_ALPHABETS, ids=GENERATOR_IDS)
    def test_levels_match_product_groups_within_tie(self, al):
        wv = log_weights(al)
        x = 8.0
        tie = Fraction(TIE_EPS)
        expected = [(float(w), words) for w, words, _ in product_levels(wv, Fraction(x) + tie, tie)]
        table = enumerate_levels(al, max_weight=x)
        assert not table.truncated
        assert [(lv.weight, words_in(lv)) for lv in table.levels] == expected

    def test_letter_order_is_irrelevant(self):
        wv = log_weights(GENERATOR_ALPHABETS[1])
        shuffled = WeightVector(wv.weights[1:] + wv.weights[:1])
        assert weight_events(shuffled, 8.0) == weight_events(wv, 8.0)

    @pytest.mark.parametrize("al", GENERATOR_ALPHABETS, ids=GENERATOR_IDS)
    def test_every_event_is_a_q_value(self, al):
        wv = log_weights(al)
        events = weight_events(wv, 8.0)
        assert len(events) > 5
        for x, q in events:
            assert q == q_tilde_direct(wv, x)

    def test_near_ties_merge_in_both(self):
        al = GENERATOR_ALPHABETS[-1]
        wv = log_weights(al)
        events = weight_events(wv, 8.0)
        table = enumerate_levels(al, max_weight=8.0)
        assert table.max_rank == events[-1][1]
        assert len(table.levels) == len(events)
        assert events == [(lv.weight, lv.rank_hi) for lv in table.levels]
        exact = product_levels(wv, Fraction(8.0) + Fraction(TIE_EPS), 0)
        assert len(events) < len(exact)  # the near ties did merge

    def test_last_level_keeps_its_tie_above_the_bound(self):
        # "b" and "aa" differ by 1e-12 nats and x_max + TIE_EPS falls between
        # them: the last level opens at "b", so "aa" belongs to it
        al = make_explicit((0.4, 0.16 * (1 + 1e-12)), 0.44 - 0.16e-12)
        wv = log_weights(al)
        a, b = sorted(wv.weights)
        assert 0 < 2 * a - b < TIE_EPS
        x_max = (b + 2 * a) / 2 - TIE_EPS
        x, q = weight_events(wv, x_max)[-1]
        assert x == b
        assert q == q_tilde_direct(wv, x) == 4
        last = enumerate_levels(al, max_weight=x_max).levels[-1]
        assert last == enumerate_levels(al, max_rank=4).levels[-1]
        assert words_in(last) == 2
        # a level opening within TIE_EPS above x_max + TIE_EPS stays out
        events = weight_events(wv, 3.0)
        x_max = events[-1][0] - 1.5 * TIE_EPS
        assert weight_events(wv, x_max) == events[:-1]
        assert len(enumerate_levels(al, max_weight=x_max).levels) == len(events) - 1

    def test_uniform_budget_rule(self):
        # the grouped walk pops one node per length m, standing for the
        # comb(m+2, 2) lattice points of that length; it keeps level m iff
        # the comb(m+3, 3) points through it fit in the budget
        al = make_uniform(3, 0.1)
        for budget in range(1, 401):
            table = enumerate_levels(al, max_rank=10**6, node_budget=budget)
            kept = sum(1 for m in range(20) if math.comb(m + 3, 3) <= budget)
            assert table.truncated
            assert [words_in(lv) for lv in table.levels] == [3**m for m in range(kept)]

    @pytest.mark.parametrize(
        "al",
        [GENERATOR_ALPHABETS[i] for i in (1, 3, 4, 5)],
        ids=["untied3", "tied3", "tied-bump3", "two-groups4"],
    )
    def test_heap_budget_rule(self, al):
        # the heap keeps a level iff the lattice points popped through it fit
        tie = Fraction(TIE_EPS)
        brute = product_levels(log_weights(al), Fraction(18), tie)[:-1]  # last may be cut
        through = list(itertools.accumulate(points for _w, _words, points in brute))
        assert through[-1] > 300
        for budget in range(1, 301):
            table = enumerate_levels(al, max_rank=10**12, node_budget=budget)
            kept = sum(1 for t in through if t <= budget)
            assert table.truncated
            assert [(lv.weight, words_in(lv)) for lv in table.levels] == [
                (float(w), words) for w, words, _ in brute[:kept]
            ]

    def test_partly_tied_table_pinned(self):
        # 20 tied letters beside 6 distinct ones: grouped nodes stand for many
        # lattice points each, and the budget still counts every one of them
        al = make_explicit((0.03,) * 20 + (0.08, 0.06, 0.05, 0.04, 0.035, 0.025), 0.11)
        table = enumerate_levels(al, max_rank=10**15, node_budget=10**6)
        assert table.truncated
        assert len(table.levels) == 1292
        assert table.max_rank == 446_681_832
        pairs = repr([(lv.weight, words_in(lv)) for lv in table.levels]).encode()
        assert hashlib.sha256(pairs).hexdigest() == (
            "6a458358a5847fb7dbc015e8293c33b45af3d3ca675e7eafc91467c3dd2207cf"
        )

    def test_weight_events_budget_counts_pops(self):
        wv = log_weights(GENERATOR_ALPHABETS[1])
        bound = Fraction(6) + Fraction(TIE_EPS)
        points = sum(p for _w, _words, p in product_levels(wv, bound, 0))
        assert len(weight_events(wv, 6.0, node_budget=points)) > 0
        with pytest.raises(ResourceGuardError, match="ZIPFMONKEY_NODE_BUDGET"):
            weight_events(wv, 6.0, node_budget=points - 1)


def two_pass_certificate(wv, x_max):
    """verify_bounds read the plain way: the jumps held in a list and read in
    pairs, with two exps per event interval; c1 and c2 from the intervals
    that start in the base interval, then every interval checked."""
    jumps = weight_events(wv, x_max)
    shift = 1.0 / (wv.n - 1)
    ends = [x for x, _q in jumps[1:]] + [max(x_max, jumps[-1][0])]
    terms = [
        (x, (q + shift) * math.exp(-x), (q + shift) * math.exp(-end))
        for (x, q), end in zip(jumps, ends)
    ]
    base = [t for t in terms if t[0] <= wv.L_max]
    c2 = max(sup for _x, sup, _inf in base) * (1.0 + pyramid._ENVELOPE_PAD)
    c1 = min(inf for _x, _sup, inf in base) * (1.0 - pyramid._ENVELOPE_PAD)
    for x, sup, inf in terms:
        if not sup < c2:
            raise BoundViolationError(f"upper envelope failed at x={x}: {sup} >= c2={c2}")
        if not inf > c1:
            raise BoundViolationError(f"lower envelope failed on [{x}, next): {inf} <= c1={c1}")
    return BoundCertificate(c1, c2, wv.L_max, x_max, len(terms))


def _rescaled(al):
    return rescale_weights(al, solve_gamma(al))


CERTIFY_WEIGHTS = {
    "untied": _rescaled(make_gusein_zade(5, 0.18)),
    "tied": _rescaled(make_explicit((0.3, 0.3, 0.2), 0.2)),
    "dyadic": _rescaled(make_explicit((0.5, 0.25, 0.125), 0.125)),
}


def certify_x_maxes(wv):
    """x_max just above L_max, at a few larger values, and within TIE_EPS
    below a jump, so the last jump lies in (x_max, x_max + TIE_EPS]."""
    jump = weight_events(wv, 10.0)[-2][0]
    return [math.nextafter(wv.L_max, math.inf), wv.L_max + 0.5, 7.0, 16.0, jump - 5e-10]


class TestVerifyBoundsMatchesTwoPass:
    @pytest.mark.parametrize("name", CERTIFY_WEIGHTS)
    def test_bit_for_bit(self, name):
        wv = CERTIFY_WEIGHTS[name]
        for x_max in certify_x_maxes(wv):
            got, expected = verify_bounds(wv, x_max), two_pass_certificate(wv, x_max)
            assert got == expected
            assert (got.c1.hex(), got.c2.hex()) == (expected.c1.hex(), expected.c2.hex())
        last = weight_events(wv, x_max)[-1][0]
        assert x_max < last <= x_max + TIE_EPS

    @pytest.mark.parametrize("name", CERTIFY_WEIGHTS)
    def test_same_violation(self, name, monkeypatch):
        # a negative pad puts c2 below the largest sup and c1 above the least inf
        monkeypatch.setattr(pyramid, "_ENVELOPE_PAD", -1e-11)
        wv = CERTIFY_WEIGHTS[name]
        for x_max in certify_x_maxes(wv):
            with pytest.raises(BoundViolationError) as expected:
                two_pass_certificate(wv, x_max)
            with pytest.raises(BoundViolationError, match=f"^{re.escape(str(expected.value))}$"):
                verify_bounds(wv, x_max)


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
        with pytest.raises(ValueError, match="normalized") as refused:
            verify_bounds(log_weights(make_uniform(2, 0.2)), 10.0)
        # the message names the tolerance the check applies
        assert f"= 1 within {RESIDUAL_TOL}, defect" in str(refused.value)

    def test_rejects_single_letter(self):
        with pytest.raises(ValueError, match="at least 2"):
            verify_bounds(WeightVector((0.5,)), 10.0)

    def test_node_budget_guard(self):
        al = make_uniform(4, 0.1)
        wv = rescale_weights(al, solve_gamma(al))
        with pytest.raises(ResourceGuardError):
            verify_bounds(wv, 20.0, node_budget=50)


def _renewal_limit(wv):
    """1/mu with mu = sum(L_i * exp(-L_i)), the mean of the renewal step law."""
    return 1.0 / sum(L * math.exp(-L) for L in wv.weights)


class TestRenewalConstant:
    """Q(x) * exp(-x) tends to 1/mu on rescaled non-lattice alphabets.

    The key renewal theorem gives the limit; uniform and dyadic alphabets are
    lattice and have none, so they are left out.
    """

    @pytest.mark.parametrize(
        "al, x_cert, window, band",
        [
            (make_gusein_zade(5, 0.18), 25.0, (25.0, 30.0), 0.02),
            (make_gusein_zade(26, 0.18), 14.0, (11.0, 14.0), 0.02),
            (make_explicit((0.6, 0.2), 0.2), 25.0, (20.0, 25.0), 0.1),
        ],
        ids=["gz5", "gz26", "two"],
    )
    def test_certificate_and_tail_bracket_the_limit(self, al, x_cert, window, band):
        wv = rescale_weights(al, solve_gamma(al))
        limit = _renewal_limit(wv)
        cert = verify_bounds(wv, x_cert)
        assert cert.c1 < limit < cert.c2
        lo, hi = window
        tail = [q * math.exp(-x) for x, q in weight_events(wv, hi) if lo < x <= hi]
        assert len(tail) > 100
        assert min(tail) < limit < max(tail)
        assert all(abs(q / limit - 1.0) < band for q in tail)

    def test_random_alphabets(self):
        rng = random.Random(7)
        for _ in range(3):
            al = make_random_alphabet(rng, 3, 0.2)
            wv = rescale_weights(al, solve_gamma(al))
            limit = _renewal_limit(wv)
            cert = verify_bounds(wv, 20.0)
            assert cert.c1 < limit < cert.c2
            tail = [q * math.exp(-x) for x, q in weight_events(wv, 20.0) if x > 16.0]
            assert min(tail) < limit < max(tail)

    @pytest.mark.parametrize(
        "al",
        [make_gusein_zade(5, 0.18), make_gusein_zade(26, 0.18), make_explicit((0.6, 0.2), 0.2)],
        ids=["gz5", "gz26", "two"],
    )
    def test_levels_follow_the_prefactor_law(self, al):
        # p(r) ~ p0 * (mu * r)**(-1/gamma): both ends of every level's rank
        # span in [100, 10**6] lie within 0.2 nats (at most 0.174 measured)
        sol = solve_gamma(al)
        mu = 1.0 / _renewal_limit(rescale_weights(al, sol))
        log_p0 = math.log(al.space_prob)
        ends = [
            (lv.log_prob, r)
            for lv in enumerate_levels(al, max_rank=10**6).levels
            for r in (lv.rank_lo, lv.rank_hi)
            if 100 <= r <= 10**6
        ]
        assert len(ends) >= 400
        worst = max(abs(lp - (log_p0 - math.log(mu * r) / sol.gamma)) for lp, r in ends)
        assert worst < 0.2
