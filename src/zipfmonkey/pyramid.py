"""Exact combinatorics of the word list.

The words of the typing model, grouped by letter multiplicities
k = (k_1, ..., k_n), form a lattice: every composition k stands for
multinomial(k) distinct words sharing the weight w(k) = sum(k_i * L_i) and
hence one probability p0 * exp(-w(k)).  The counting function

    Q(x) = number of words with weight <= x   (empty word included)

is evaluated here three independent ways: by a walk over the admissible
lattice region (q_tilde_direct, which answers rank_of_probability), by
memoized recursion on the functional equation
Q(x) = Q(x - L_1) + ... + Q(x - L_n) + step(x) (q_tilde_recursive, the
cross-check), and by one best-first generator of its jumps, one per level,
behind level_rows (which the CLI streams and enumerate_levels holds),
weight_events and verify_bounds (one exp per jump).  Both walks
group letters of exactly equal weight: g letters in k slots make g**k
words.  The direct walk sums its two lightest groups in one loop, the
lightest in closed form.  The generator walks multisets of groups as
nondecreasing group sequences with two successors per node (append the
last group, or bump it to the next), the sorted-sums frontier of
Frederickson and Johnson, so its heap holds at most one node per pop.

All weight comparisons run in exact integer arithmetic.  Every float is a
dyadic rational, so the weights and TIE_EPS over their largest power-of-two
denominator become integers (_grid, built once per WeightVector, tie
groups included); lattice sums never suffer rounding, and ties are exact
equalities.  A query floors x + TIE_EPS onto that grid, which is exact:
every lattice sum is an integer there, whatever finite x.  One tie
rule holds everywhere: weights within TIE_EPS are one level, and a query
at x (or a bound x_max) counts every point up to x + TIE_EPS, so levels,
the jumps of Q and rank queries group words identically.
Counts are Python ints throughout: the counting function grows like
exp(gamma * x) and leaves 64-bit range almost immediately.

A node budget (default 10**7 lattice points) guards every enumeration;
exceeding it raises ResourceGuardError.  The level generator counts the
lattice points popped through the level it is building, so every level
it yields is complete; the direct walk counts its tie-grouped points.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

from .alphabet import Alphabet
from .errors import BoundViolationError, ResourceGuardError
from .gamma import RESIDUAL_TOL, WeightVector, log_weights

TIE_EPS = 1e-9  # absolute tie tolerance for weights, in nats
DEFAULT_NODE_BUDGET = 10**7


class Level(NamedTuple):
    """One probability class of words and its (inclusive) rank span."""

    weight: float
    rank_lo: int
    rank_hi: int
    log_prob: float


class LevelTable(NamedTuple):
    """Levels in strictly increasing weight order, plus a truncation flag.

    truncated is True when the node budget ran out mid-level; the partial
    level is dropped and the returned prefix is certified complete.
    """

    levels: tuple[Level, ...]
    truncated: bool

    @property
    def max_rank(self) -> int:
        return self.levels[-1].rank_hi if self.levels else 0


class BoundCertificate(NamedTuple):
    """Witness constants for the exponential envelope of the counting function.

    c1 < (Q(x) + 1/(n-1)) * exp(-x) < c2 was verified on every event
    interval up to verified_up_to, with c1 and c2 computed from the exact
    piecewise extrema over the base interval [0, base_interval_end].
    """

    c1: float
    c2: float
    base_interval_end: float
    verified_up_to: float
    event_count: int


# --- exact dyadic scaling ----------------------------------------------------


class _Grid(NamedTuple):
    """The weights as integers over a common denominator, in tie groups."""

    w: tuple[int, ...]  # each distinct weight * denom, ascending
    g: tuple[int, ...]  # how many letters have that weight
    tie: int  # TIE_EPS * denom
    denom: int

    def threshold(self, x) -> int:
        """floor((x + TIE_EPS) * denom), exactly, for a float, int or Fraction x."""
        if not -math.inf < x < math.inf:
            raise ValueError(f"weight bound must be a finite number, got {x}")
        x_num, x_den = x.as_integer_ratio()
        return x_num * self.denom // x_den + self.tie


def _grid(weights: Sequence[float]) -> _Grid:
    """Map the weights and the tie tolerance onto one integer grid.

    Float denominators are powers of two, so the largest among the
    weights' and TIE_EPS's is their lcm, and every lattice sum is an
    integer on it.  Any common denominator gives the same counts and, by
    correctly rounded int / int division, the same floats.  This is the
    one tie rule: weights within tie of each other are one level, and a
    point within tie above x is counted at x (_Grid.threshold floors x
    onto this grid).  WeightVector.grid builds it once per weight vector.
    """
    ratios = [w.as_integer_ratio() for w in weights]
    tie_num, tie_den = TIE_EPS.as_integer_ratio()
    denom = max(tie_den, *(d for _n, d in ratios))
    w, g = zip(*sorted(Counter(n * (denom // d) for n, d in ratios).items()))
    return _Grid(w, g, tie_num * (denom // tie_den), denom)


def _over_budget(budget: int, weight: float) -> ResourceGuardError:
    return ResourceGuardError(
        f"node budget {budget} exhausted at weight {weight:.6g}; "
        "raise ZIPFMONKEY_NODE_BUDGET to allow more"
    )


# --- evaluators --------------------------------------------------------------


def _region_sum(grid: _Grid, T: int, budget: int) -> int:
    """Sum of multinomial(k) over the region sum(k_i * W_i) <= T.

    Letters of equal weight form one group: g letters in k slots make g**k
    words.  Groups go heaviest first on an explicit stack (no recursion
    limit); a bisect skips those heavier than the remaining weight, and
    each k of the group it lands on is pushed, except on the two lightest
    groups, which one loop sums in place: each k of the second lightest
    adds a leaf that collapses the lightest, sum_{j<=m} C(t+j, j) * g**j,
    the hockey stick C(t+m+1, m) when g == 1.  The budget counts grouped
    points, m + 1 per leaf: every lattice point when untied.  _memo_sum
    cross-checks this.
    """
    if T < 0:
        return 0
    w, g = grid.w, grid.g  # ascending, so the lightest group is index 0
    wl, gl = w[0], g[0]
    nodes = 0
    total = 0
    stack = [(len(w) - 1, T, 0, 1)]  # (group, remaining weight, letters so far, coefficient)
    while stack:
        j, rem, letters, coeff = stack.pop()
        j = bisect_right(w, rem, 0, j + 1) - 1  # the heaviest group that fits, or -1
        k = 0
        while True:
            if j > 1:
                stack.append((j - 1, rem, letters + k, coeff))
            else:
                t = letters + k
                m = rem // wl
                nodes += m + 1
                if nodes > budget:
                    raise _over_budget(budget, T / grid.denom)
                total += coeff * (
                    math.comb(t + m + 1, m) if gl == 1
                    else sum(math.comb(t + i, i) * gl ** i for i in range(m + 1))
                )
                if j <= 0:  # landed on the lightest group, or below it
                    break
            rem -= w[j]
            if rem < 0:
                break
            k += 1
            coeff = coeff * (letters + k) // k * g[j]  # C(letters+k, k) * g**k
    return total


def _memo_sum(grid: _Grid, T: int, budget: int) -> int:
    """Same region count via the functional equation, memoized.

    The value at remaining budget T - s depends on s alone, so the memo is
    keyed on the exact reachable weight sums; tied lattice points share one
    entry, and g letters of one weight are one term times g.  Iterative
    post-order to sidestep recursion limits.
    """
    if T < 0:
        return 0
    w, g = grid.w, grid.g
    memo: dict[int, int] = {}
    stack = [0]
    while stack:
        s = stack[-1]
        missing = [s + wi for wi in w if s + wi <= T and (s + wi) not in memo]
        if missing:
            stack.extend(missing)  # all above s: the stack ascends, no sum is pushed twice
            continue
        memo[s] = 1 + sum(gi * memo[s + wi] for wi, gi in zip(w, g) if s + wi <= T)
        stack.pop()
        if len(memo) > budget:
            raise _over_budget(budget, T / grid.denom)
    return memo[0]


def q_tilde_direct(
    weights: WeightVector, x: float, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Exact number of words with weight <= x, by lattice-region summation.

    Boundary lattice points within TIE_EPS of x are counted, so probability
    queries are inclusive: 0 below -TIE_EPS, and 1 (the empty word) from
    there up to the lightest letter's weight.  x must be finite.
    """
    grid = weights.grid
    return _region_sum(grid, grid.threshold(x), node_budget)


def q_tilde_recursive(
    weights: WeightVector, x: float, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Same value as q_tilde_direct, via the memoized functional equation."""
    grid = weights.grid
    return _memo_sum(grid, grid.threshold(x), node_budget)


def functional_equation_residual(
    weights: WeightVector, x: float, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Q(x) - sum_i Q(x - L_i) - step(x); zero when the evaluators are sound.

    The shifted arguments x - L_i are formed exactly on the integer grid, one
    per tie group times its size, and the step term uses the same tie
    tolerance as the counting function, so the identity is checked without
    any rounding slack.
    """
    grid = weights.grid
    T = grid.threshold(x)
    lhs = _region_sum(grid, T, node_budget)
    shifted = sum(gi * _region_sum(grid, T - wi, node_budget) for wi, gi in zip(grid.w, grid.g))
    step = 1 if T >= 0 else 0
    return lhs - shifted - step


def rank_of_probability(
    alphabet: Alphabet, f: float, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Rank of the last word whose probability is at least f.

    Equals the counting function at x = ln(p0 / f) on the raw weights, from
    q_tilde_direct, whose budget counts tie-grouped lattice points.
    Only defined for 0 < f <= p0: the empty word, at rank 1, is the most
    probable word, with probability p0.  An f above p0 by no more than the
    tie tolerance in log space is p0 up to rounding.
    """
    p0 = alphabet.space_prob
    if p0 <= 0.0:
        raise ValueError("rank queries need a positive space probability")
    if not f > 0.0:
        raise ValueError(f"probability threshold must be positive, got {f}")
    x = math.log(p0) - math.log(f)
    if x < -TIE_EPS:
        raise ValueError(
            f"no word has probability {f} > p0 = {p0}; the empty word is the maximum"
        )
    return q_tilde_direct(log_weights(alphabet), x, node_budget=node_budget)


# --- best-first enumeration --------------------------------------------------


def _iter_levels(
    weights: WeightVector, x: float | None, budget: int
) -> Iterator[tuple[float, int]]:
    """The jumps (weight, Q(weight)) of the counting function, level by level.

    A level is complete when yielded: it opens at a lattice point of weight
    w0 and closes at the first popped point heavier than w0 + TIE_EPS.  With
    a bound, levels open up to x + TIE_EPS, so points are pushed up to
    x + 2 * TIE_EPS and the walk ends at the first level opening beyond
    (none below -TIE_EPS).  A bound must be finite, checked at the call;
    with None the caller must stop reading.

    A multiset k of tie groups (sizes g_j, by weight) is walked as its
    nondecreasing group sequence.  A node (w, words, j, m, length, points)
    ends in m copies of group j and stands for prod C(k_j + g_j - 1, k_j)
    lattice points and multinomial(k) * prod g_j**k_j words.  Its children:
    append j, and (if m > 0) bump the last j to j+1.  Every multiset has one
    parent and weights never decrease along an edge, so the heap holds at
    most pops + 1 nodes; n equal letters make one node per word length.
    ResourceGuardError is raised once more than budget lattice points have
    been popped through the open level; the levels before it are yielded.
    """
    return _walk(weights.grid, None if x is None else weights.grid.threshold(x), budget)


def _walk(grid: _Grid, T: int | None, budget: int) -> Iterator[tuple[float, int]]:
    if T is not None and T < 0:  # the loop never checks the first level against T
        return
    w, g, tie, denom = grid
    last = len(w) - 1
    reach = math.inf if T is None else T + tie  # the last level's own tie
    heap = [(0, 1, 0, 0, 0, 1)]
    popped = start = q = 0
    while heap:
        wt, words, j, m, length, points = heapq.heappop(heap)
        if wt - start > tie:
            yield start / denom, q
            if T is not None and wt > T:
                return
            start = wt
        q += words
        popped += points
        if popped > budget:
            raise _over_budget(budget, wt / denom)
        gj = g[j]
        child = wt + w[j]
        if child <= reach:
            heapq.heappush(heap, (child, words * (length + 1) // (m + 1) * gj, j, m + 1,
                                  length + 1, points * (m + gj) // (m + 1)))
        if m and j < last:
            child = wt - w[j] + w[j + 1]
            if child <= reach:
                gk = g[j + 1]
                heapq.heappush(heap, (child, words * m // gj * gk, j + 1, 1, length,
                                      points * m // (m + gj - 1) * gk))
    yield start / denom, q


def level_rows(
    alphabet: Alphabet,
    *,
    max_rank: int | None = None,
    max_weight: float | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[tuple[float, int, int, float]]:
    """Yield the probability classes as (weight, rank_lo, rank_hi, log_prob).

    Exactly one bound, checked at the call: complete levels until the rank
    reaches max_rank, or every level with weight <= max_weight, which must
    be finite (none below -TIE_EPS).  Weights within TIE_EPS are one level.
    ResourceGuardError replaces the level that the node budget cuts.
    """
    if (max_rank is None) == (max_weight is None):
        raise ValueError("specify exactly one of max_rank, max_weight")
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"rank budget must be positive, got {max_rank}")
    p0 = alphabet.space_prob
    if p0 <= 0.0:
        raise ValueError("levels need a positive space probability")
    log_p0 = math.log(p0)
    jumps = _iter_levels(log_weights(alphabet), max_weight, node_budget)

    def rows():
        q_prev = 0  # the ranks of a level run from the previous jump's Q + 1 to its own
        for weight, q in jumps:
            yield weight, q_prev + 1, q, log_p0 - weight
            if max_rank is not None and q >= max_rank:
                return
            q_prev = q

    return rows()


def enumerate_levels(
    alphabet: Alphabet,
    *,
    max_rank: int | None = None,
    max_weight: float | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> LevelTable:
    """level_rows' levels as a table, truncated=True if the node budget cut one."""
    rows = level_rows(alphabet, max_rank=max_rank, max_weight=max_weight, node_budget=node_budget)
    levels: list[Level] = []
    try:
        for row in rows:
            levels.append(Level._make(row))
    except ResourceGuardError:
        return LevelTable(tuple(levels), True)  # the partial level was never yielded
    return LevelTable(tuple(levels), False)


def p_of_rank(levels: Sequence[Level], r: int) -> float:
    """Log-probability of the rank-r word, from enumerated levels (LevelTable.levels)."""
    if not levels:
        raise ValueError("empty level table")
    if r < 1 or r > levels[-1].rank_hi:
        raise ValueError(f"rank {r} outside enumerated range [1, {levels[-1].rank_hi}]")
    return levels[bisect_left(levels, r, key=lambda lv: lv.rank_hi)].log_prob


# --- envelope certificate ----------------------------------------------------


def weight_events(
    weights: WeightVector,
    x_max: float,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[tuple[float, int]]:
    """Jump points of the counting function up to x_max, with its values.

    Returns (x, Q(x)) pairs, ascending, one per level: weights within
    TIE_EPS are one level, as in enumerate_levels, and levels are counted
    up to x_max + TIE_EPS (none when x_max < -TIE_EPS), so each Q(x) equals
    q_tilde_direct at its x.  x_max must be finite.
    """
    return list(_iter_levels(weights, x_max, node_budget))


# Relative padding applied to the exact base extrema so the strict
# inequalities survive float exp() evaluation at every checked event.
_ENVELOPE_PAD = 1e-11


def verify_bounds(
    weights: WeightVector,
    x_max: float,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> BoundCertificate:
    """Constructively certify the exponential envelope of the counting function.

    Requires normalized weights (sum(exp(-L_i)) = 1), under which
    q(x) = (Q(x) + 1/(n-1)) * exp(-x) is bounded between positive constants.
    The constants are read off the base interval [0, L_max] exactly: the
    shifted count is constant on each event interval [e, e'), so its
    supremum there is q(e) and its infimum is the limit at e'.  The strict
    envelope c1 < q(x) < c2 is then checked on every event interval up to
    x_max, which must be finite and exceed L_max.  A failed check raises
    BoundViolationError; it cannot happen for genuinely normalized weights
    since the envelope propagates through the recurrence with factor
    sum(exp(-L_i)) = 1.
    """
    n = weights.n
    if n < 2:
        raise ValueError("envelope shift 1/(n-1) needs at least 2 letters")
    if not weights.normalized:
        raise ValueError(
            f"weights must be normalized: sum(exp(-L_i)) = 1 within {RESIDUAL_TOL}, "
            f"defect {weights.normalization_defect}"
        )
    jumps = _iter_levels(weights, x_max, node_budget)  # refuses a bound that is not finite
    if not x_max > weights.L_max:
        raise ValueError(
            f"x_max ({x_max}) must exceed the base interval end L_max "
            f"({weights.L_max})"
        )

    base_end = weights.L_max
    shift = 1.0 / (n - 1)

    def intervals():  # (x, sup, inf) per event interval [x, next), one exp per jump
        x, q = next(jumps)
        e = math.exp(-x)
        for nxt, q_nxt in jumps:
            e_nxt = math.exp(-nxt)  # the inf of [x, nxt) and the sup of [nxt, ...)
            yield x, (q + shift) * e, (q + shift) * e_nxt
            x, q, e = nxt, q_nxt, e_nxt
        yield x, (q + shift) * e, (q + shift) * math.exp(-max(x_max, x))  # the last interval

    terms = intervals()
    held = []  # the base interval's terms, then the first beyond it
    for term in terms:
        held.append(term)
        if term[0] > base_end:
            break
    c2 = max(sup for x, sup, _inf in held if x <= base_end) * (1.0 + _ENVELOPE_PAD)
    c1 = min(inf for x, _sup, inf in held if x <= base_end) * (1.0 - _ENVELOPE_PAD)

    event_count = 0
    for event_count, (x, sup, inf) in enumerate(chain(held, terms), 1):
        if not sup < c2:
            raise BoundViolationError(f"upper envelope failed at x={x}: {sup} >= c2={c2}")
        if not inf > c1:
            raise BoundViolationError(f"lower envelope failed on [{x}, next): {inf} <= c1={c1}")
    return BoundCertificate(c1, c2, base_end, x_max, event_count)
