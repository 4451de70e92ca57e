"""Shared test helpers."""

from __future__ import annotations

import random

from zipfmonkey import RankFrequency, make_explicit


def make_random_alphabet(rng: random.Random, n: int, p0: float):
    """Random alphabet with letter ratios bounded in [0.5, 2], given p0."""
    raw = [rng.uniform(0.5, 2.0) for _ in range(n)]
    s = sum(raw)
    return make_explicit([r / s * (1.0 - p0) for r in raw], p0)


def one_rank_runs(points) -> RankFrequency:
    """(rank, freq) points, ranks ascending and freqs nonincreasing, as one-rank runs."""
    return RankFrequency(tuple((r, r, f) for r, f in points))
