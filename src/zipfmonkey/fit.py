"""Power-law fitting in log-log space and comparison with the model exponent.

Reports use decimal logarithms (the convention of n-gram frequency work);
the slope of a power law is base-invariant, so nothing depends on the
choice internally.  A fit takes its curve only as a simulate.RankFrequency,
runs of equal frequency, and expands only the ranks in its window, so its
cost follows the window and the number of runs, not the number of words.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .alphabet import Alphabet
from .gamma import solve_gamma
from .simulate import RankFrequency, expand_runs

DEFAULT_R_MIN = 10
DEFAULT_R_MAX_CAP = 10**4


class FitResult(NamedTuple):
    intercept: float  # lg f at rank 1
    slope: float
    r_squared: float
    n_points: int
    rank_window: tuple[int, int]


class ComparisonReport(NamedTuple):
    fitted_slope: float
    predicted_slope: float  # -1/gamma
    abs_gap: float
    rank_window: tuple[int, int]


def ols_loglog(
    points: RankFrequency, r_min: int = DEFAULT_R_MIN, r_max: int | None = None
) -> FitResult:
    """Least-squares line lg f = intercept + slope * lg r over a rank window.

    The default window [10, min(max rank, 10**4)] skips the head, where the
    level structure is a staircase, and the deep tail.  Requires a window
    1 <= r_min <= r_max with at least 3 points; a RankFrequency's
    frequencies are positive by construction.  Only the window's ranks are
    expanded.
    """
    if r_min < 1 or (r_max is not None and r_max < r_min):
        raise ValueError(f"rank window [{r_min}, {r_max}] must have 1 <= r_min <= r_max")
    if r_max is None:
        r_max = min(max((hi for _lo, hi, _f in points.runs), default=0), DEFAULT_R_MAX_CAP)
    window = list(expand_runs(points.runs, r_min, r_max))
    if len(window) < 3:
        raise ValueError(
            f"need at least 3 points with rank in [{r_min}, {r_max}], got {len(window)}"
        )

    xs = [math.log10(r) for r, _ in window]
    ys = [math.log10(f) for _, f in window]
    m = len(window)
    x_bar = math.fsum(xs) / m
    y_bar = math.fsum(ys) / m
    sxx = math.fsum((x - x_bar) ** 2 for x in xs)
    sxy = math.fsum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_bar - slope * x_bar
    ss_res = math.fsum((y - intercept - slope * x) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - y_bar) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    r_squared = min(1.0, max(0.0, r_squared))
    return FitResult(intercept, slope, r_squared, m, (r_min, r_max))


def predicted_exponent(alphabet: Alphabet) -> float:
    """Model rank exponent 1/gamma; frequencies decay like r**(-1/gamma)."""
    return 1.0 / solve_gamma(alphabet).gamma


def compare(fit: FitResult, alphabet: Alphabet) -> ComparisonReport:
    """Fitted slope against the model slope -1/gamma."""
    predicted = -predicted_exponent(alphabet)
    return ComparisonReport(fit.slope, predicted, abs(fit.slope - predicted), fit.rank_window)
