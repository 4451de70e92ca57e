"""Seeded Monte Carlo word generation from the typing model.

Words are drawn one at a time rather than by splitting one long character
stream: a word's length is geometric (m letters then a space, probability
(1-p0)**m * p0) and its letters are i.i.d. with the conditional letter
distribution p_i / (1-p0).  That is distributionally identical to typing
characters and splitting on spaces, and it makes "exactly word_count
words" trivially true.

Generation is vectorized with numpy and driven by PCG64; numpy is imported
inside the two functions that draw words, so importing this module (and
with it the package and the CLI) does not load it.  A fixed
(alphabet, word_count, seed, streams) quadruple reproduces the same table
within one build.  Multiple streams partition the word count across
generators spawned from one SeedSequence, so partial tables merge by plain
count addition.

Each stream draws all word lengths, then all letters in one call.  Counting
groups the words by length with one sort.  A length-m word over n letters
whose base-n code fits in int64 (n**m <= 2**63) is counted as that code,
and only the distinct codes are decoded back to letter tuples; longer words
fall back to counting unique letter rows.  The RNG stream, and hence the
table, does not depend on how the words are counted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .alphabet import Alphabet
from .errors import ResourceGuardError

Word = tuple[int, ...]

DEFAULT_WORD_CAP = 10**8


@dataclass
class FrequencyTable:
    """Occurrence counts per word (tuple of letter indices)."""

    entries: dict[Word, int]
    total_words: int

    def __post_init__(self):
        if sum(self.entries.values()) != self.total_words:
            raise ValueError("entry counts must sum to total_words")


@dataclass(frozen=True)
class RankFrequency:
    """(rank, relative frequency) points, ranks ascending, freqs nonincreasing."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        pts = []
        for r, f in self.points:
            r, f = int(r), float(f)
            if not 0.0 < f <= 1.0:
                raise ValueError(f"frequency out of (0, 1]: {f}")
            if pts and r <= pts[-1][0]:
                raise ValueError("ranks must be strictly increasing")
            if pts and f > pts[-1][1]:
                raise ValueError("frequencies must be nonincreasing")
            pts.append((r, f))
        object.__setattr__(self, "points", tuple(pts))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def _generate_stream(
    alphabet: Alphabet, count: int, rng: np.random.Generator, word_cap: int
) -> dict[Word, int]:
    import numpy as np

    p0 = alphabet.space_prob
    n = alphabet.n
    lengths = rng.geometric(p0, size=count) - 1  # letters before the space
    n_letters = int(lengths.sum(dtype=object))  # Python ints: no overflow for a tiny p0
    if n_letters > word_cap:
        raise ResourceGuardError(
            f"{n_letters} letters to draw exceed the cap {word_cap}; "
            "raise ZIPFMONKEY_WORD_CAP to allow more"
        )
    letter_probs = np.asarray(alphabet.letter_probs) / (1.0 - p0)
    letters = rng.choice(n, size=n_letters, p=letter_probs)
    starts = np.cumsum(lengths) - lengths

    counts: dict[Word, int] = {}
    order = np.argsort(lengths, kind="stable")
    for sel in np.split(order, np.flatnonzero(np.diff(lengths[order])) + 1):
        m = int(lengths[sel[0]])
        first = starts[sel]
        # codes stay below n**m <= 2**63; m < 64 is implied (n >= 2) and skips a huge n**m
        if m < 64 and n**m <= 2**63:
            codes = np.zeros(len(sel), dtype=np.int64)
            for j in range(m):
                codes = codes * n + letters[first + j]
            uniq, cnt = np.unique(codes, return_counts=True)
            rows = uniq[:, None] // np.power(n, np.arange(m - 1, -1, -1)) % n
        else:
            rows = letters[first[:, None] + np.arange(m)]
            rows, cnt = np.unique(rows, axis=0, return_counts=True)
        counts.update(zip(map(tuple, rows.tolist()), cnt.tolist()))
    return counts


def merge_tables(tables: Iterable[FrequencyTable]) -> FrequencyTable:
    """Combine partial tables; count addition is associative and commutative."""
    entries: dict[Word, int] = {}
    total = 0
    for t in tables:
        total += t.total_words
        for w, c in t.entries.items():
            entries[w] = entries.get(w, 0) + c
    return FrequencyTable(entries, total)


def generate_words(
    alphabet: Alphabet,
    word_count: int,
    seed: int,
    *,
    streams: int = 1,
    skip_empty: bool = False,
    word_cap: int = DEFAULT_WORD_CAP,
) -> FrequencyTable:
    """Draw exactly word_count words from the model distribution.

    Requires p0 > 0 (a zero space probability never terminates a word).
    Empty words count as occurrences of the empty word unless skip_empty is
    set, in which case they are dropped and the table renormalizes over the
    remaining words.
    """
    if alphabet.space_prob <= 0.0:
        raise ValueError("simulation requires a positive space probability")
    if word_count < 1:
        raise ValueError(f"word_count must be positive, got {word_count}")
    if word_count > word_cap:
        raise ValueError(f"word_count {word_count} exceeds the cap {word_cap}")
    if streams < 1:
        raise ValueError(f"streams must be positive, got {streams}")

    import numpy as np

    # children are indexed by spawn key, so spawning only the streams that
    # get a word leaves every drawn stream as it was
    children = np.random.SeedSequence(seed).spawn(min(streams, word_count))
    base, extra = divmod(word_count, len(children))
    parts = []
    for i, child in enumerate(children):
        cnt = base + (1 if i < extra else 0)
        rng = np.random.Generator(np.random.PCG64(child))
        parts.append(FrequencyTable(_generate_stream(alphabet, cnt, rng, word_cap), cnt))
    table = parts[0] if len(parts) == 1 else merge_tables(parts)
    if skip_empty and () in table.entries:
        dropped = table.entries.pop(())
        table.total_words -= dropped
    return table


def empirical_rank_freq(table: FrequencyTable | Iterable[int]) -> RankFrequency:
    """Rank words by count: the rank-r point is (r, r-th largest count / total).

    Takes a FrequencyTable or the bare counts, one per distinct word.  Tied
    words share a frequency, so the points do not depend on their order.
    An empty input or a count that is not positive raises ValueError.
    """
    counts = table.entries.values() if isinstance(table, FrequencyTable) else table
    ranked = sorted(counts, reverse=True)
    if not ranked:
        raise ValueError("empty frequency table")
    if ranked[-1] <= 0:
        raise ValueError(f"counts must be positive, got {ranked[-1]}")
    total = sum(ranked)
    return RankFrequency(tuple((i + 1, c / total) for i, c in enumerate(ranked)))


def render_word(word: Sequence[int], labels: Sequence[str], empty_token: str = "<EPS>") -> str:
    """Human-readable word; the empty word gets an explicit token."""
    if not word:
        return empty_token
    return "".join(labels[i] for i in word)
