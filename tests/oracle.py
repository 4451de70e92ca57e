"""Brute-force ground truth for the word list.

Exhaustively enumerates every word up to a length cap, computes each
probability directly, and sorts.  Rank queries, level tables, and
probability-of-rank lookups all fall out of the sorted list by counting,
with no lattice combinatorics involved, which is exactly why the module is
useful: it checks the fast machinery from first principles.  multinomial
counts the words of one letter composition the same way, for the lattice
walks.  Deliberately naive; desk-scale verification only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from zipfmonkey.alphabet import Alphabet
from zipfmonkey.errors import ResourceGuardError

ENUMERATION_CAP = 10**6
LOG_TOL = 1e-12  # absolute tolerance for log-probability comparisons


@dataclass(frozen=True)
class WordRecord:
    letters: tuple[int, ...]
    log_prob: float


def enumerate_all(
    alphabet: Alphabet, max_len: int, *, cap: int = ENUMERATION_CAP
) -> list[WordRecord]:
    """Every word of length 0..max_len, sorted by descending probability.

    Ties (to the float) break lexicographically on the letter indices.
    """
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    if alphabet.space_prob <= 0.0:
        raise ValueError("word probabilities need a positive space probability")
    n = alphabet.n
    if n**max_len > cap:
        raise ResourceGuardError(
            f"{n}**{max_len} words exceeds the enumeration cap {cap}"
        )
    log_p = [math.log(p) for p in alphabet.letter_probs]
    log_p0 = math.log(alphabet.space_prob)
    words = []
    for m in range(max_len + 1):
        for letters in itertools.product(range(n), repeat=m):
            lp = log_p0
            for i in letters:
                lp += log_p[i]
            words.append(WordRecord(letters, lp))
    words.sort(key=lambda w: (-w.log_prob, w.letters))
    return words


def _reliable_floor(words: list[WordRecord]) -> float:
    """Largest possible log-probability of any word NOT in the list.

    Words longer than the cap use at most max_len+1 copies of the most
    probable letter, so anything above this floor is certainly present.
    """
    log_p0 = words[0].log_prob  # empty word is always rank 1
    max_len = max(len(w.letters) for w in words)
    if max_len < 1:
        raise ValueError("need words of length 1 to bound the omitted words")
    best_letter = max(w.log_prob for w in words if len(w.letters) == 1) - log_p0
    return log_p0 + (max_len + 1) * best_letter


def oracle_rank_of_probability(words: list[WordRecord], f: float) -> int:
    """Number of enumerated words with probability >= f.

    Refuses thresholds at or below the reliability floor, where the length
    cap could truncate the answer.
    """
    if not f > 0.0:
        raise ValueError(f"probability threshold must be positive, got {f}")
    log_f = math.log(f)
    if log_f <= _reliable_floor(words):
        raise ValueError(
            f"f={f} is below the reliable range for this length cap"
        )
    return sum(1 for w in words if w.log_prob >= log_f - LOG_TOL)


def oracle_levels(
    words: list[WordRecord], *, tol: float = LOG_TOL
) -> list[tuple[float, int, int, int]]:
    """(log_prob, count, rank_lo, rank_hi) per probability class, best first."""
    out = []
    rank = 1
    i = 0
    while i < len(words):
        j = i
        while j < len(words) and words[i].log_prob - words[j].log_prob <= tol:
            j += 1
        count = j - i
        out.append((words[i].log_prob, count, rank, rank + count - 1))
        rank += count
        i = j
    return out


def oracle_p_of_rank(words: list[WordRecord], r: int) -> float:
    if r < 1 or r > len(words):
        raise ValueError(f"rank {r} outside the enumerated range [1, {len(words)}]")
    return words[r - 1].log_prob


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
