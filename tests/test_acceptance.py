"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with the measured margins.
"""

import math
import random
import time

import pytest

from conftest import make_random_alphabet, one_rank_runs
from oracle import (
    enumerate_all,
    functional_equation_residual,
    oracle_levels,
    oracle_p_of_rank,
    oracle_rank_of_probability,
    p_of_rank,
)
from zipfmonkey import (
    empirical_rank_freq,
    enumerate_levels,
    generate_words,
    log_weights,
    make_gusein_zade,
    make_uniform,
    ols_loglog,
    predicted_exponent,
    q_tilde_direct,
    q_tilde_recursive,
    rank_of_probability,
    rescale_weights,
    solve_gamma,
    verify_bounds,
)

SIM_SEED = 20260808


def report(num, name, detail):
    print(f"ACCEPTANCE {num} PASS {name}: {detail}")


@pytest.fixture(scope="module")
def million_word_table():
    """10**6 words from the Gusein-Zade 5-letter alphabet, p0 = 0.18."""
    alphabet = make_gusein_zade(5, 0.18)
    table = generate_words(alphabet, 10**6, seed=SIM_SEED)
    return alphabet, table


def test_criterion_1_exponent_closed_form():
    """solve_gamma matches ln(n) / (ln(n) - ln(1-p0)) to 1e-10; < 1 s."""
    t0 = time.perf_counter()
    worst = 0.0
    cases = 0
    for n in range(2, 41):
        for p0 in (0.0, 0.01, 1 / 27, 0.3):
            sol = solve_gamma(make_uniform(n, p0))
            closed = 1.0 if p0 == 0.0 else math.log(n) / (math.log(n) - math.log(1 - p0))
            worst = max(worst, abs(sol.gamma - closed))
            cases += 1
    sol26 = solve_gamma(make_uniform(26, 1 / 27))
    gap26 = abs(1 / sol26.gamma - math.log(27) / math.log(26))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10
    assert gap26 <= 1e-10
    assert elapsed < 1.0
    report(1, "exponent closed form",
           f"max |gamma - closed form| = {worst:.2e} over {cases} cases, "
           f"1/gamma(26, 1/27) off by {gap26:.2e} ({elapsed:.2f} s)")


def test_criterion_2_evaluator_equivalence():
    """q_tilde_direct == q_tilde_recursive on 500 random instances; < 60 s."""
    t0 = time.perf_counter()
    rng = random.Random(2_000)
    max_q = 0
    for _ in range(500):
        n = rng.choice((2, 3, 4))
        alphabet = make_random_alphabet(rng, n, rng.uniform(0.05, 0.45))
        gamma = solve_gamma(alphabet).gamma
        weights = log_weights(alphabet)
        x = rng.uniform(0.0, 0.93 * math.log(1e7) / gamma)
        direct = q_tilde_direct(weights, x)
        while direct > 10**7:
            x *= 0.8
            direct = q_tilde_direct(weights, x)
        assert direct == q_tilde_recursive(weights, x)
        max_q = max(max_q, direct)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(2, "evaluator equivalence",
           f"500 instances exactly equal, largest count {max_q} ({elapsed:.1f} s)")


def test_criterion_3_oracle_equivalence():
    """Levels, Q(f), p(r) match brute-force enumeration exactly; < 60 s."""
    t0 = time.perf_counter()
    rng = random.Random(3_000)
    alphabets = [
        ("0.6/0.2", [0.6, 0.2], 0.2),
        ("0.5/0.3", [0.5, 0.3], 0.2),
        ("0.45/0.25/0.12", [0.45, 0.25, 0.12], 0.18),
        ("uniform3", [0.25, 0.25, 0.25], 0.25),
    ]
    max_len = 8
    for _name, probs, p0 in alphabets:
        from zipfmonkey import make_explicit

        alphabet = make_explicit(probs, p0)
        words = enumerate_all(alphabet, max_len)

        # the two anchor ranks
        assert oracle_rank_of_probability(words, p0) == 1
        assert rank_of_probability(alphabet, p0) == 1
        top = alphabet.letter_probs[0] * p0
        expected_top = 2 if probs.count(max(probs)) == 1 else len(probs) + 1
        assert oracle_rank_of_probability(words, top) == expected_top
        assert rank_of_probability(alphabet, top) == expected_top

        # complete level prefix: nothing longer than max_len can intrude
        cutoff = (max_len + 1) * min(log_weights(alphabet).weights) * 0.999
        table = enumerate_levels(alphabet, max_weight=cutoff)
        log_p0 = math.log(p0)
        expected = [lv for lv in oracle_levels(words) if log_p0 - lv[0] <= cutoff]
        assert len(table.levels) == len(expected)
        for lv, (olp, ocount, olo, ohi) in zip(table.levels, expected):
            assert (lv.rank_hi - lv.rank_lo + 1, lv.rank_lo, lv.rank_hi) == (ocount, olo, ohi)
            assert abs(lv.log_prob - olp) <= 1e-10

        floor = p0 * alphabet.letter_probs[0]**max_len
        for _ in range(100):
            f = math.exp(rng.uniform(math.log(floor) * 0.98, math.log(p0)))
            assert rank_of_probability(alphabet, f) == oracle_rank_of_probability(words, f)
        for _ in range(100):
            r = rng.randint(1, table.max_rank)
            assert abs(p_of_rank(table.levels, r) - oracle_p_of_rank(words, r)) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(3, "oracle equivalence",
           f"{len(alphabets)} alphabets, levels + 100 Q(f) + 100 p(r) each, "
           f"anchors Q(p0)=1 and Q(p'p0) included ({elapsed:.1f} s)")


def test_criterion_4_functional_equation_identity():
    """Residual exactly 0 at 200 random x per random alphabet."""
    rng = random.Random(4_000)
    checked = 0
    for _ in range(5):
        n = rng.choice((2, 3, 4))
        weights = log_weights(make_random_alphabet(rng, n, rng.uniform(0.05, 0.5)))
        for _ in range(200):
            x = rng.uniform(-2.0, 14.0)
            assert functional_equation_residual(weights, x) == 0
            checked += 1
    report(4, "functional equation", f"residual 0 at {checked} points")


def _largest_feasible_x(weights, cap=2_000_000, x_hi=60.0):
    n = len(weights)
    prod = math.prod(weights)
    x = x_hi
    while x**n / (math.factorial(n) * prod) > cap and x > 10.0:
        x *= 0.9
    return x


def test_criterion_5_boundedness_certificate():
    """verify_bounds to x_max=25 on 20 normalized vectors; slope near gamma; < 5 min."""
    t0 = time.perf_counter()
    rng = random.Random(5_000)
    worst_slope_gap = 0.0
    for i in range(20):
        n = 2 + i % 4  # n in {2, 3, 4, 5}
        alphabet = make_random_alphabet(rng, n, rng.uniform(0.05, 0.3))
        solution = solve_gamma(alphabet)
        normalized = rescale_weights(alphabet, solution)
        cert = verify_bounds(normalized, 25.0)
        assert 0 < cert.c1 < cert.c2
        assert cert.base_interval_end == normalized.L_max
        assert cert.verified_up_to == 25.0
        assert cert.event_count > 0

        raw = log_weights(alphabet)
        x = max(_largest_feasible_x(raw.weights), 30.0 * min(raw.weights))
        slope = math.log(q_tilde_direct(raw, x)) / x
        gap = abs(slope - solution.gamma)
        worst_slope_gap = max(worst_slope_gap, gap)
        assert gap <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(5, "boundedness certificate",
           f"20 certificates to x=25, worst slope gap {worst_slope_gap:.4f} "
           f"<= 0.02 ({elapsed:.1f} s)")


def test_criterion_6_monte_carlo_end_to_end(million_word_table):
    """Fitted slope over ranks 10..300 within 0.1 of -1/gamma; < 2 min."""
    t0 = time.perf_counter()
    alphabet, table = million_word_table
    points = empirical_rank_freq(table.entries.values())
    fit = ols_loglog(points, 10, 300)
    predicted = -predicted_exponent(alphabet)
    gap = abs(fit.slope - predicted)
    elapsed = time.perf_counter() - t0
    assert gap <= 0.1
    assert elapsed < 120.0
    report(6, "Monte Carlo end to end",
           f"slope {fit.slope:.4f} vs predicted {predicted:.4f}, "
           f"gap {gap:.4f} <= 0.1 ({elapsed:.1f} s)")


def test_criterion_7_ols_exactness():
    """Exact log-log line recovered to 1e-12 with R^2 = 1."""
    points = [(r, 10 ** (-1.3 - 0.8 * math.log10(r))) for r in range(1, 200)]
    fit = ols_loglog(one_rank_runs(points), 1, 199)
    assert abs(fit.intercept + 1.3) <= 1e-12
    assert abs(fit.slope + 0.8) <= 1e-12
    assert abs(fit.r_squared - 1.0) <= 1e-12
    report(7, "OLS exactness",
           f"intercept off {abs(fit.intercept + 1.3):.1e}, "
           f"slope off {abs(fit.slope + 0.8):.1e}, R^2 = {fit.r_squared}")


def test_criterion_8_simulation_model_consistency(million_word_table):
    """Empty-word and single-letter frequencies within 4 SE at 10**6 words."""
    alphabet, table = million_word_table
    n_words = table.total_words
    margins = []

    def check(word, p):
        freq = table.entries.get(word, 0) / n_words
        se = math.sqrt(p * (1 - p) / n_words)
        margins.append(abs(freq - p) / se)
        assert abs(freq - p) <= 4 * se, (word, freq, p)

    check("", alphabet.space_prob)
    for i, p_letter in enumerate(alphabet.letter_probs):
        check(chr(i + 1), p_letter * alphabet.space_prob)  # letter i is the code point i + 1
    report(8, "simulation consistency",
           f"empty word and {alphabet.n} single letters within 4 SE "
           f"(worst {max(margins):.2f} SE)")
