"""Power-law exponent and log-weight geometry.

The exponent gamma is the unique root of sum(p_i ** gamma) = 1 over the
letter probabilities alone.  Because every p_i is in (0, 1) the power sum
is strictly decreasing in gamma, tends to n > 1 at 0 and equals 1 - p0 at
1, so the root lies in (0, 1] and plain bisection brackets it
unconditionally.  Rescaling the log-weights L_i = -ln(p_i) by gamma yields
a weight vector with sum(exp(-L_i)) = 1, the normalized setting in which
the word-counting function grows like exp(x).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple

from .alphabet import Alphabet

RESIDUAL_TOL = 1e-12
BRACKET_TOL = 1e-14  # bisection stops once the bracket is this narrow: 47 halvings


class GammaSolution(NamedTuple):
    """Root of the exponent equation plus an audit trail."""

    gamma: float
    residual: float  # value of sum(p_i**gamma) - 1 at the returned root
    iterations: int


class WeightVector(NamedTuple("WeightVector", [("weights", tuple)])):
    """Positive log-weights; the lattice geometry of the word list."""

    def __new__(cls, weights):
        weights = tuple(float(w) for w in weights)
        if not weights:
            raise ValueError("weight vector must be nonempty")
        for w in weights:
            if not w > 0.0:
                raise ValueError(f"weights must be positive, got {w}")
        return super().__new__(cls, weights)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @cached_property
    def grid(self):
        """The weights on their integer grid with their tie groups (pyramid._grid), built once."""
        from .pyramid import _grid  # pyramid imports this module
        return _grid(self.weights)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def L_max(self) -> float:
        return max(self.weights)

    @property
    def normalization_defect(self) -> float:
        """sum(exp(-L_i)) - 1; zero for normalized weights."""
        return math.fsum(math.exp(-w) for w in self.weights) - 1.0

    @property
    def normalized(self) -> bool:
        return abs(self.normalization_defect) <= RESIDUAL_TOL


def power_sum(alphabet: Alphabet, g: float) -> float:
    """sum(p_i ** g) over the letter probabilities."""
    return math.fsum(p**g for p in alphabet.letter_probs)


def solve_gamma(alphabet: Alphabet) -> GammaSolution:
    """Solve sum(p_i ** gamma) = 1 by bisection on (0, 1].

    With p0 = 0 the letter probabilities already sum to 1 and gamma is 1
    exactly.  Otherwise the bracket [0, 1] is halved to width <= BRACKET_TOL
    (each midpoint exact, the bracket far wider than adjacent floats) and
    the midpoint returned, with the residual reported for auditing.
    """
    if alphabet.space_prob == 0.0:
        return GammaSolution(1.0, power_sum(alphabet, 1.0) - 1.0, 0)
    lo, hi = 0.0, 1.0
    iterations = 0
    while hi - lo > BRACKET_TOL:
        mid = 0.5 * (lo + hi)
        if power_sum(alphabet, mid) > 1.0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    root = 0.5 * (lo + hi)
    residual = power_sum(alphabet, root) - 1.0
    if abs(residual) > RESIDUAL_TOL:
        raise ArithmeticError(
            f"bisection stalled with residual {residual} at gamma={root}"
        )
    return GammaSolution(root, residual, iterations)


def log_weights(alphabet: Alphabet) -> WeightVector:
    """Raw letter weights L_i = -ln(p_i), built once per Alphabet object."""
    return alphabet.log_weights


def rescale_weights(alphabet: Alphabet, gamma: GammaSolution) -> WeightVector:
    """Rescaled weights gamma * L_i, normalized so sum(exp(-L_i)) = 1.

    Rejects a gamma that does not solve the exponent equation for this
    alphabet within RESIDUAL_TOL (stale or mismatched solutions), the
    tolerance verify_bounds holds the rescaled weights to.
    """
    check = power_sum(alphabet, gamma.gamma) - 1.0
    if abs(check) > RESIDUAL_TOL:
        raise ValueError(
            f"gamma={gamma.gamma} does not solve the exponent equation for this "
            f"alphabet (residual {check})"
        )
    return WeightVector(tuple(gamma.gamma * -math.log(p) for p in alphabet.letter_probs))
