"""Exponent solver and weight rescaling."""

import math
import random

import mpmath
import pytest

from conftest import make_random_alphabet
from zipfmonkey import (
    WeightVector,
    log_weights,
    make_explicit,
    make_gusein_zade,
    make_uniform,
    rescale_weights,
    solve_gamma,
)
from zipfmonkey.gamma import RESIDUAL_TOL, power_sum

# Independent oracle for 0.6**g + 0.2**g = 1, frozen from a 200-bit
# bisection (see bisect_200bit below, which reproduces it).
GAMMA_06_02 = 0.7271601514124259243


def bisect_200bit(probs):
    mpmath.mp.prec = 200
    lo, hi = mpmath.mpf(0), mpmath.mpf(1)
    for _ in range(300):
        mid = (lo + hi) / 2
        if sum(mpmath.mpf(p) ** mid for p in probs) > 1:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def uniform_closed_form(n, p0):
    return math.log(n) / (math.log(n) - math.log(1.0 - p0)) if p0 else 1.0


class TestSolveGamma:
    def test_uniform_26_matches_log_ratio(self):
        sol = solve_gamma(make_uniform(26, 1 / 27))
        assert sol.gamma == pytest.approx(math.log(26) / math.log(27), abs=1e-12)
        assert 1 / sol.gamma == pytest.approx(math.log(27) / math.log(26), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 11, 26, 40])
    @pytest.mark.parametrize("p0", [0.0, 0.01, 1 / 27, 0.3])
    def test_uniform_closed_form(self, n, p0):
        sol = solve_gamma(make_uniform(n, p0))
        assert abs(sol.gamma - uniform_closed_form(n, p0)) <= 1e-10

    def test_no_space_gives_one_exactly(self):
        sol = solve_gamma(make_explicit((0.5, 0.5), 0.0))
        assert sol.gamma == 1.0
        assert sol.iterations == 0

    def test_frozen_oracle_value(self):
        sol = solve_gamma(make_explicit((0.6, 0.2), 0.2))
        assert sol.gamma == pytest.approx(GAMMA_06_02, abs=1e-13)
        # and the 200-bit oracle reproduces the frozen literal
        assert float(bisect_200bit([0.6, 0.2])) == pytest.approx(GAMMA_06_02, abs=1e-16)

    def test_solution_invariants(self):
        rng = random.Random(31)
        for _ in range(50):
            al = make_random_alphabet(rng, rng.randint(2, 8), rng.uniform(0.01, 0.6))
            sol = solve_gamma(al)
            assert abs(sol.residual) <= 1e-12
            assert 0.0 < sol.gamma < 1.0  # p0 > 0 here
            assert sol.iterations > 0

    def test_power_sum_monotone(self):
        rng = random.Random(32)
        for _ in range(100):
            al = make_random_alphabet(rng, rng.randint(2, 6), rng.uniform(0.0, 0.7))
            a = rng.uniform(0.05, 2.0)
            b = rng.uniform(0.05, 2.0)
            if a == b:
                continue
            lo, hi = min(a, b), max(a, b)
            assert power_sum(al, lo) > power_sum(al, hi)


class TestRescaleWeights:
    def test_symmetric_no_space(self):
        al = make_explicit((0.5, 0.5), 0.0)
        wv = rescale_weights(al, solve_gamma(al))
        assert wv.weights == (math.log(2), math.log(2))
        assert wv.normalized

    def test_uniform_26_all_log26(self):
        al = make_uniform(26, 1 / 27)
        wv = rescale_weights(al, solve_gamma(al))
        for w in wv.weights:
            assert w == pytest.approx(math.log(26), abs=1e-12)
        assert abs(wv.normalization_defect) <= 1e-12

    def test_identity_on_random_alphabets(self):
        rng = random.Random(33)
        for _ in range(60):
            al = make_random_alphabet(rng, rng.randint(2, 9), rng.uniform(0.0, 0.6))
            wv = rescale_weights(al, solve_gamma(al))
            assert abs(wv.normalization_defect) <= 1e-10
            assert wv.normalized or abs(wv.normalization_defect) <= 1e-10

    def test_rejects_mismatched_solution(self):
        al1 = make_explicit((0.6, 0.2), 0.2)
        al2 = make_uniform(2, 0.2)
        with pytest.raises(ValueError, match="does not solve"):
            rescale_weights(al2, solve_gamma(al1))

    def test_refuses_at_the_shared_residual_tolerance(self):
        # the tolerance verify_bounds holds the rescaled weights to: a gamma
        # off by more is refused here, naming the exponent equation
        al = make_gusein_zade(5, 0.18)
        sol = solve_gamma(al)
        gamma = sol.gamma - 1e-11
        off = sol._replace(gamma=gamma, residual=power_sum(al, gamma) - 1.0)
        assert RESIDUAL_TOL < abs(off.residual) < 1e-9
        with pytest.raises(ValueError, match="does not solve the exponent equation"):
            rescale_weights(al, off)
        assert rescale_weights(al, sol).normalized  # the solver's own root passes


class TestWeightVector:
    def test_raw_weights(self):
        al = make_explicit((0.6, 0.2), 0.2)
        wv = log_weights(al)
        assert wv.weights[0] == pytest.approx(-math.log(0.6))
        assert wv.weights[1] == pytest.approx(-math.log(0.2))
        assert wv.L_max == wv.weights[1]
        assert not wv.normalized  # sums to 1 - p0 = 0.8

    def test_raw_weights_normalized_iff_no_space(self):
        assert log_weights(make_explicit((0.5, 0.5), 0.0)).normalized

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            WeightVector((1.0, 0.0))
        with pytest.raises(ValueError):
            WeightVector(())
