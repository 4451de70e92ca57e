"""OLS power-law fitting and exponent comparison."""

import math
import random

import pytest

from zipfmonkey import (
    compare,
    enumerate_levels,
    make_explicit,
    make_uniform,
    ols_loglog,
    predicted_exponent,
    rank_freq_from_levels,
)

GAMMA_06_02 = 0.7271601514124259243  # frozen in test_gamma


class TestOlsExactness:
    def test_recovers_exact_line(self):
        pts = [(r, 10 ** (-1.0 - 1.0 * math.log10(r))) for r in range(1, 101)]
        fit = ols_loglog(pts, 1, 100)
        assert abs(fit.intercept - (-1.0)) <= 1e-12
        assert abs(fit.slope - (-1.0)) <= 1e-12
        assert abs(fit.r_squared - 1.0) <= 1e-12
        assert fit.n_points == 100
        assert fit.rank_window == (1, 100)

    def test_flat_data_zero_slope(self):
        pts = [(r, 0.25) for r in range(1, 20)]
        fit = ols_loglog(pts, 1, 19)
        assert fit.slope == pytest.approx(0.0, abs=1e-15)
        assert fit.r_squared == 1.0

    def test_residual_orthogonality(self):
        rng = random.Random(21)
        for _ in range(25):
            pts = sorted(
                {(rng.randint(1, 10_000), rng.uniform(1e-6, 1.0)) for _ in range(40)}
            )
            pts = [(r, f) for i, (r, f) in enumerate(pts) if all(r != q[0] for q in pts[:i])]
            fit = ols_loglog(pts, 1, 10_000)
            resid = [
                math.log10(f) - fit.intercept - fit.slope * math.log10(r)
                for r, f in pts
            ]
            assert abs(math.fsum(resid)) <= 1e-9
            assert abs(math.fsum(e * math.log10(r) for e, (r, _f) in zip(resid, pts))) <= 1e-9

    def test_refit_is_identical(self):
        pts = [(r, 1.0 / r**1.3) for r in range(1, 200)]
        a = ols_loglog(pts, 5, 150)
        b = ols_loglog(pts, 5, 150)
        assert a == b

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            ols_loglog([(1, 0.5), (2, 0.3)], 1, 10)
        with pytest.raises(ValueError):
            ols_loglog([(r, 1 / r) for r in range(1, 50)], 40, 41)

    def test_rejects_window_outside_the_ranks(self):
        pts = [(r, 1.0 / r) for r in range(1, 50)]
        for r_min, r_max in ((0, 10), (-5, 10), (0, None), (10, 5)):
            with pytest.raises(ValueError, match=rf"rank window \[{r_min}, {r_max}\]"):
                ols_loglog(pts, r_min, r_max)

    def test_default_window(self):
        pts = [(r, 1.0 / r) for r in range(1, 50_000)]
        fit = ols_loglog(pts)
        assert fit.rank_window == (10, 10_000)


class TestLevelTableFit:
    def test_uniform_26_exponent(self):
        # levels are a factor of 26 apart in rank, so a window that holds
        # enough one-per-level points must reach past 10**4
        al = make_uniform(26, 1 / 27)
        table = enumerate_levels(al, max_rank=10**6)
        fit = ols_loglog(rank_freq_from_levels(table), 10, 10**6)
        assert fit.n_points >= 4
        expected_slope = -math.log(27) / math.log(26)
        assert abs(fit.slope - expected_slope) <= 0.02

    def test_level_points_shape(self):
        table = enumerate_levels(make_uniform(2, 1 / 3), max_rank=7)
        rf = rank_freq_from_levels(table)
        assert [r for r, _f in rf] == [1, 2, 4]
        assert [f for _r, f in rf] == pytest.approx([1 / 3, 1 / 9, 1 / 27])


class TestPredictedExponent:
    def test_uniform_26(self):
        assert predicted_exponent(make_uniform(26, 1 / 27)) == pytest.approx(
            math.log(27) / math.log(26), abs=1e-12
        )

    def test_no_space_gives_one(self):
        assert predicted_exponent(make_explicit((0.5, 0.5), 0.0)) == 1.0

    def test_frozen_oracle_alphabet(self):
        got = predicted_exponent(make_explicit((0.6, 0.2), 0.2))
        assert got == pytest.approx(1.0 / GAMMA_06_02, abs=1e-12)


class TestCompare:
    def test_gap_arithmetic(self):
        al = make_uniform(26, 1 / 27)
        fit = ols_loglog([(r, 10 ** (-1 - 1.02 * math.log10(r))) for r in range(1, 100)], 1, 99)
        report = compare(fit, al)
        assert report.fitted_slope == pytest.approx(-1.02, abs=1e-9)
        assert report.predicted_slope == pytest.approx(-math.log(27) / math.log(26), abs=1e-12)
        assert report.abs_gap == pytest.approx(
            abs(-1.02 + math.log(27) / math.log(26)), abs=1e-9
        )
        assert report.rank_window == (1, 99)

    def test_exact_levels_close_to_prediction(self):
        al = make_uniform(26, 1 / 27)
        table = enumerate_levels(al, max_rank=10**6)
        report = compare(ols_loglog(rank_freq_from_levels(table), 10, 10**6), al)
        assert report.abs_gap <= 0.02
