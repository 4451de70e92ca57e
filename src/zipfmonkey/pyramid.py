"""Exact combinatorics of the word list.

The words of the typing model, grouped by letter multiplicities
k = (k_1, ..., k_n), form a lattice: every composition k stands for
multinomial(k) distinct words sharing the weight w(k) = sum(k_i * L_i) and
hence one probability p0 * exp(-w(k)).  The counting function

    Q(x) = number of words with weight <= x   (empty word included)

is evaluated here three independent ways: by nested iteration over the
admissible lattice region (q_tilde_direct), by memoized recursion on the
functional equation Q(x) = Q(x - L_1) + ... + Q(x - L_n) + step(x)
(q_tilde_recursive), and by best-first composition enumeration
(enumerate_levels and friends).

All weight comparisons run in exact integer arithmetic.  Every float is a
dyadic rational, so weights and thresholds mapped onto a common
power-of-two denominator become integers; lattice sums then never suffer
rounding, ties are decided exactly, and for equal weights (uniform
alphabets) level indices are exact integer multiples by construction.
Counts are Python ints throughout: the counting function grows like
exp(gamma * x) and leaves 64-bit range almost immediately.

A node budget (default 10**7 lattice points) guards every enumeration;
exceeding it raises ResourceGuardError.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .alphabet import Alphabet
from .errors import BoundViolationError, ResourceGuardError
from .gamma import WeightVector, log_weights

TIE_EPS = 1e-9  # absolute tie tolerance for weights, in nats
DEFAULT_NODE_BUDGET = 10**7

_TIE_EPS_FRACTION = Fraction(TIE_EPS)


@dataclass(frozen=True)
class Composition:
    """One lattice point: letter multiplicities, weight, exact word count."""

    k: tuple[int, ...]
    weight: float
    count: int


@dataclass(frozen=True)
class Level:
    """One probability class of words and its (inclusive) rank span."""

    weight: float
    word_count: int
    rank_lo: int
    rank_hi: int
    log_prob: float


@dataclass(frozen=True)
class LevelTable:
    """Levels in strictly increasing weight order, plus a truncation flag.

    truncated is True when the node budget ran out mid-level; the partial
    level is dropped and the returned prefix is certified complete.
    """

    levels: tuple[Level, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    def __getitem__(self, i):
        return self.levels[i]

    @property
    def max_rank(self) -> int:
        return self.levels[-1].rank_hi if self.levels else 0


@dataclass(frozen=True)
class BoundCertificate:
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


def multinomial(k: Sequence[int]) -> int:
    """Exact count of distinct words with letter multiplicities k.

    Computed as a product of binomials C(k_1+...+k_i, k_i), which keeps the
    intermediates no larger than the result.
    """
    total = 0
    out = 1
    for ki in k:
        if ki < 0:
            raise ValueError(f"multiplicities must be nonnegative, got {ki}")
        total += ki
        out *= math.comb(total, ki)
    return out


# --- exact dyadic scaling ----------------------------------------------------


def _scaled(weights: Sequence[float], thresholds: Sequence[Fraction]):
    """Map float weights and exact thresholds onto one integer grid.

    Returns (W, T, D) with W[i] = weights[i] * D and T[j] = thresholds[j] * D
    all exact integers; D is the least common power-of-two denominator.
    """
    fw = [Fraction(w) for w in weights]
    ft = list(thresholds)
    denom = math.lcm(*(f.denominator for f in fw + ft))

    def to_grid(f: Fraction) -> int:
        return f.numerator * (denom // f.denominator)

    return [to_grid(f) for f in fw], [to_grid(f) for f in ft], denom


def _threshold(x) -> Fraction:
    """Inclusive counting threshold for the query point x."""
    return Fraction(x) + _TIE_EPS_FRACTION


# --- evaluators --------------------------------------------------------------


def _region_sum(W: list[int], T: int, budget: int) -> int:
    """Sum of multinomial(k) over the region sum(k_i * W_i) <= T.

    Nested iteration letter by letter; the innermost dimension is collapsed
    with the hockey-stick identity sum_{j<=m} C(t+j, j) = C(t+m+1, m), so
    each leaf costs a single binomial.
    """
    if T < 0:
        return 0
    n = len(W)
    nodes = 0
    total = 0

    def walk(i: int, rem: int, letters: int, coeff: int) -> None:
        nonlocal nodes, total
        if i == n - 1:
            m = rem // W[i]
            nodes += m + 1
            if nodes > budget:
                raise ResourceGuardError(
                    f"lattice region exceeds node budget {budget}"
                )
            total += coeff * math.comb(letters + m + 1, m)
            return
        k = 0
        c = coeff
        r = rem
        while True:
            walk(i + 1, r, letters + k, c)
            r -= W[i]
            if r < 0:
                return
            k += 1
            c = c * (letters + k) // k  # C(letters+k, k) from its predecessor

    walk(0, T, 0, 1)
    return total


def _memo_sum(W: list[int], T: int, budget: int) -> int:
    """Same region count via the functional equation, memoized.

    The value at remaining budget T - w depends on w alone, so the memo is
    keyed on the exact reachable weight sums; tied lattice points share one
    entry.  Iterative post-order to sidestep recursion limits.
    """
    if T < 0:
        return 0
    memo: dict[int, int] = {}
    stack = [0]
    while stack:
        w = stack[-1]
        if w in memo:
            stack.pop()
            continue
        missing = [w + wi for wi in W if w + wi <= T and (w + wi) not in memo]
        if missing:
            stack.extend(missing)
            continue
        memo[w] = 1 + sum(memo[w + wi] for wi in W if w + wi <= T)
        stack.pop()
        if len(memo) > budget:
            raise ResourceGuardError(f"memo table exceeds node budget {budget}")
    return memo[0]


def q_tilde_direct(
    weights: WeightVector, x: float, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Exact number of words with weight <= x, by lattice-region summation.

    Extended with zero for x < 0.  Boundary lattice points within TIE_EPS
    of x are counted, so probability queries are inclusive.
    """
    if x < 0:
        return 0
    W, (T,), _ = _scaled(weights.weights, [_threshold(x)])
    return _region_sum(W, T, node_budget)


def q_tilde_recursive(
    weights: WeightVector, x: float, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Same value as q_tilde_direct, via the memoized functional equation."""
    if x < 0:
        return 0
    W, (T,), _ = _scaled(weights.weights, [_threshold(x)])
    return _memo_sum(W, T, node_budget)


def functional_equation_residual(
    weights: WeightVector, x: float, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Q(x) - sum_i Q(x - L_i) - step(x); zero when the evaluators are sound.

    The shifted arguments x - L_i are formed exactly on the integer grid, and
    the step term uses the same tie tolerance as the counting function, so
    the identity is checked without any rounding slack.
    """
    W, (T,), _ = _scaled(weights.weights, [_threshold(x)])
    lhs = _region_sum(W, T, node_budget)
    shifted = sum(_region_sum(W, T - wi, node_budget) for wi in W)
    step = 1 if T >= 0 else 0
    return lhs - shifted - step


def rank_of_probability(
    alphabet: Alphabet, f: float, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Rank of the last word whose probability is at least f.

    Equals the counting function at x = ln(p0 / f) on the raw weights.
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
    x = max(x, 0.0)  # f == p0 up to rounding
    return q_tilde_recursive(log_weights(alphabet), x, node_budget=node_budget)


# --- best-first enumeration --------------------------------------------------


def _first_nonzero(k: tuple[int, ...]) -> int:
    for i, ki in enumerate(k):
        if ki:
            return i
    return len(k) - 1  # k == 0: children in every coordinate


def _iter_scaled(
    W: list[int], T: int | None, budget: int
) -> Iterator[tuple[int, tuple[int, ...], int]]:
    """Yield (scaled_weight, k, multinomial(k)) in nondecreasing weight order.

    Best-first on a heap; each composition is generated exactly once via the
    unique-parent rule (children are k + e_i for i up to the first nonzero
    coordinate, every i for k = 0).  With T None the lattice is unbounded
    and the caller must stop consuming.
    """
    n = len(W)
    heap: list[tuple[int, tuple[int, ...]]] = [(0, (0,) * n)]
    pushes = 1
    while heap:
        w, k = heapq.heappop(heap)
        yield w, k, multinomial(k)
        for i in range(_first_nonzero(k) + 1):
            cw = w + W[i]
            if T is None or cw <= T:
                pushes += 1
                if pushes > budget:
                    raise ResourceGuardError(
                        f"composition frontier exceeds node budget {budget}"
                    )
                heapq.heappush(heap, (cw, k[:i] + (k[i] + 1,) + k[i + 1 :]))


def iter_compositions(
    weights: WeightVector,
    max_weight: float,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[Composition]:
    """All compositions with weight <= max_weight, best-first by weight."""
    if max_weight < 0:
        return
    W, (T,), denom = _scaled(weights.weights, [_threshold(max_weight)])
    for w, k, count in _iter_scaled(W, T, node_budget):
        yield Composition(k, w / denom, count)


def enumerate_levels(
    alphabet: Alphabet,
    *,
    max_rank: int | None = None,
    max_weight: float | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> LevelTable:
    """Group the word list into probability classes with cumulative ranks.

    Exactly one budget must be given: max_rank enumerates complete levels
    until the cumulative rank reaches it; max_weight enumerates every level
    with weight <= max_weight.  Compositions whose weights differ by at most
    TIE_EPS merge into one level.  If the node budget runs out mid-level the
    partial level is dropped and the complete prefix is returned with
    truncated=True.
    """
    if (max_rank is None) == (max_weight is None):
        raise ValueError("specify exactly one of max_rank, max_weight")
    if max_rank is not None and max_rank < 1:
        raise ValueError(f"rank budget must be positive, got {max_rank}")
    if max_weight is not None and max_weight < 0:
        raise ValueError(f"weight budget must be nonnegative, got {max_weight}")
    p0 = alphabet.space_prob
    if p0 <= 0.0:
        raise ValueError("levels need a positive space probability")
    log_p0 = math.log(p0)

    wv = log_weights(alphabet)
    thresholds = [_TIE_EPS_FRACTION]
    if max_weight is not None:
        thresholds.append(_threshold(max_weight))
    W, scaled, denom = _scaled(wv.weights, thresholds)
    tie_window = scaled[0]
    T = scaled[1] if max_weight is not None else None

    if all(w == W[0] for w in W):
        # equal weights: level m holds exactly n**m words at weight m * L,
        # so the table comes out in closed form with exact integer indices
        n = len(W)
        levels = []
        rank_lo = 1
        m = 0
        while True:
            if T is not None and m * W[0] > T:
                break
            if math.comb(m + n, n) > node_budget:  # lattice points through level m
                return LevelTable(tuple(levels), True)
            count = n**m
            weight = m * W[0] / denom
            levels.append(
                Level(weight, count, rank_lo, rank_lo + count - 1, log_p0 - weight)
            )
            rank_lo += count
            if max_rank is not None and rank_lo > max_rank:
                break
            m += 1
        return LevelTable(tuple(levels), False)

    levels: list[Level] = []
    next_rank = 1
    start_w: int | None = None  # scaled weight opening the current level
    count = 0
    truncated = False

    def close() -> None:
        nonlocal next_rank, start_w, count
        if start_w is None:
            return
        weight = start_w / denom
        levels.append(
            Level(weight, count, next_rank, next_rank + count - 1, log_p0 - weight)
        )
        next_rank += count
        start_w = None
        count = 0

    try:
        for w, _k, c in _iter_scaled(W, T, node_budget):
            if start_w is not None and w - start_w > tie_window:
                close()
                if max_rank is not None and next_rank > max_rank:
                    return LevelTable(tuple(levels), False)
            if start_w is None:
                start_w = w
            count += c
        close()  # max_weight mode: the queue drained, last level is complete
    except ResourceGuardError:
        truncated = True  # drop the partial level
    return LevelTable(tuple(levels), truncated)


def p_of_rank(levels: LevelTable | Sequence[Level], r: int) -> float:
    """Log-probability of the rank-r word, from an enumerated level table."""
    seq = levels.levels if isinstance(levels, LevelTable) else tuple(levels)
    if not seq:
        raise ValueError("empty level table")
    if r < 1 or r > seq[-1].rank_hi:
        raise ValueError(f"rank {r} outside enumerated range [1, {seq[-1].rank_hi}]")
    lo, hi = 0, len(seq) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if seq[mid].rank_hi < r:
            lo = mid + 1
        else:
            hi = mid
    return seq[lo].log_prob


# --- envelope certificate ----------------------------------------------------


def weight_events(
    weights: WeightVector,
    x_max: float,
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> list[tuple[float, int]]:
    """Jump points of the counting function up to x_max, with its values.

    Returns (x, Q(x)) pairs at every distinct weight <= x_max, ascending.
    """
    if x_max < 0:
        return []
    W, (T,), denom = _scaled(weights.weights, [Fraction(x_max)])
    n = len(W)
    if all(w == W[0] for w in W):
        # equal weights: the counting function jumps at m * L by n**m
        events = []
        cum = 0
        m = 0
        while m * W[0] <= T:
            if math.comb(m + n, n) > node_budget:
                raise ResourceGuardError(
                    f"lattice region exceeds node budget {node_budget}"
                )
            cum += n**m
            events.append((m * W[0] / denom, cum))
            m += 1
        return events
    events: list[tuple[float, int]] = []
    cum = 0
    cur_w: int | None = None
    for w, _k, c in _iter_scaled(W, T, node_budget):
        if w != cur_w:
            if cur_w is not None:
                events.append((cur_w / denom, cum))
            cur_w = w
        cum += c
    if cur_w is not None:
        events.append((cur_w / denom, cum))
    return events


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
    x_max.  A failed check raises BoundViolationError; it cannot happen for
    genuinely normalized weights since the envelope propagates through the
    recurrence with factor sum(exp(-L_i)) = 1.
    """
    n = weights.n
    if n < 2:
        raise ValueError("envelope shift 1/(n-1) needs at least 2 letters")
    if not weights.normalized:
        raise ValueError(
            "weights must be normalized: sum(exp(-L_i)) = 1 within 1e-12, "
            f"defect {weights.normalization_defect}"
        )
    if not x_max > weights.L_max:
        raise ValueError(
            f"x_max ({x_max}) must exceed the base interval end L_max "
            f"({weights.L_max})"
        )

    events = weight_events(weights, x_max, node_budget=node_budget)
    shift = 1.0 / (n - 1)
    base_end = weights.L_max

    sups: list[float] = []
    infs: list[float] = []
    for j, (x, q_val) in enumerate(events):
        shifted = float(q_val) + shift
        right = events[j + 1][0] if j + 1 < len(events) else x_max
        sups.append(shifted * math.exp(-x))
        infs.append(shifted * math.exp(-right))

    in_base = [j for j, (x, _) in enumerate(events) if x <= base_end]
    c2 = max(sups[j] for j in in_base) * (1.0 + _ENVELOPE_PAD)
    c1 = min(infs[j] for j in in_base) * (1.0 - _ENVELOPE_PAD)

    for j, (x, _) in enumerate(events):
        if not sups[j] < c2:
            raise BoundViolationError(
                f"upper envelope failed at x={x}: {sups[j]} >= c2={c2}"
            )
        if not infs[j] > c1:
            raise BoundViolationError(
                f"lower envelope failed on [{x}, next): {infs[j]} <= c1={c1}"
            )
    return BoundCertificate(c1, c2, base_end, x_max, len(events))
