"""Seeded Monte Carlo word generation from the typing model.

Words are drawn one at a time rather than by splitting one long character
stream: a word's length is geometric (m letters then a space, probability
(1-p0)**m * p0) and its letters are i.i.d. with the conditional letter
distribution p_i / (1-p0).  That is distributionally identical to typing
characters and splitting on spaces, and it makes "exactly word_count
words" trivially true.

Generation is vectorized with numpy and driven by PCG64; numpy is imported
inside the function that draws words, so importing this module (and with
it the package and the CLI) does not load it.  A fixed (alphabet,
word_count, seed) triple reproduces the same table within one build.

A word is a str from the draw to the output: letter i is the code point
i + 1, so words sort like their letter-index tuples and the empty word is
"".  The generator draws all word lengths, then takes them in blocks of
about 2**18 code points (letters and separators): it draws a block's
letters, writes them as code points with a 0 between words, decodes them
and counts the words.  Memory grows with the words, the distinct words
and one block's letters, not with all the letters; the block size changes
no count.  The encoding allows at most sys.maxunicode letters.

A rank-frequency curve is held as runs of equal frequency, one per distinct
count (the frequency spectrum), not as one point per word.  A word table is
rendered run by run: word_lines renders a slice of a run with one join,
translate, replace and split, exact while no label holds a newline.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

from .alphabet import EMPTY_WORD, Alphabet
from .errors import ResourceGuardError

Word = str  # letter i is chr(i + 1)

DEFAULT_WORD_CAP = 10**8

_BLOCK_CODES = 1 << 18  # code points (letters and separators) drawn and counted at a time
_RUN_SLICE = 8192  # words of one run rendered by one pass of string calls


class FrequencyTable(NamedTuple):
    """Occurrence counts per word (letter i is the code point i + 1);
    total_words is their sum."""

    entries: dict[Word, int]

    @property
    def total_words(self) -> int:
        return sum(self.entries.values())


class RankFrequency:
    """Runs (rank_lo, rank_hi, freq) of ranks >= 1, each rank of a run at the
    relative frequency freq.  Runs ascend in rank without overlap (gaps
    allowed), freqs nonincreasing.  Iterating yields the (rank, freq) points."""

    def __init__(self, runs: tuple[tuple[int, int, float], ...]):
        checked: list[tuple[int, int, float]] = []
        for lo, hi, f in runs:
            lo, hi, f = int(lo), int(hi), float(f)
            if not 0.0 < f <= 1.0:
                raise ValueError(f"frequency out of (0, 1]: {f}")
            if lo < 1:
                raise ValueError(f"ranks start at 1, got rank {lo}")
            if hi < lo:
                raise ValueError(f"empty run: rank_hi {hi} < rank_lo {lo}")
            if checked and lo <= checked[-1][1]:
                raise ValueError("runs must ascend in rank without overlap")
            if checked and f > checked[-1][2]:
                raise ValueError("frequencies must be nonincreasing")
            checked.append((lo, hi, f))
        self.__dict__["runs"] = tuple(checked)

    def __setattr__(self, name, *_value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.runs == other.runs if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self.runs)

    def __repr__(self):
        return f"RankFrequency(runs={self.runs!r})"

    def __iter__(self) -> Iterator[tuple[int, float]]:
        return expand_runs(self.runs)


def expand_runs(runs, r_min=-math.inf, r_max=math.inf) -> Iterator[tuple[int, float]]:
    """The (rank, freq) points of runs (rank_lo, rank_hi, freq) with r_min <=
    rank <= r_max, rank by rank; ranks outside the window are never expanded."""
    return ((r, f) for lo, hi, f in runs for r in range(max(lo, r_min), min(hi, r_max) + 1))


def _generate_stream(
    alphabet: Alphabet, count: int, rng: np.random.Generator, word_cap: int
) -> Counter[Word]:
    """Draw count words and count them, about _BLOCK_CODES code points at a
    time: a word is 1/p0 code points on average (its letters and a
    separator), so a block is _BLOCK_CODES * p0 words whatever p0 is."""
    import numpy as np

    p0 = alphabet.space_prob
    lengths = rng.geometric(p0, size=count) - 1  # letters before the space
    n_letters = int(lengths.sum(dtype=object))  # Python ints: no overflow for a tiny p0
    if n_letters > word_cap:
        raise ResourceGuardError(
            f"{n_letters} letters to draw exceed the cap {word_cap}; "
            "raise ZIPFMONKEY_WORD_CAP to allow more"
        )
    letter_probs = np.asarray(alphabet.letter_probs) / (1.0 - p0)
    block_words = max(1, int(_BLOCK_CODES * p0))
    counts: Counter[Word] = Counter()
    for start in range(0, count, block_words):
        block = lengths[start : start + block_words]
        letters = rng.choice(alphabet.n, size=block.sum(), p=letter_probs)
        codes = np.insert(letters + 1, np.cumsum(block[:-1]), 0).astype("<u4")
        counts.update(codes.tobytes().decode("utf-32-le", "surrogatepass").split("\0"))
    return counts


def generate_words(
    alphabet: Alphabet,
    word_count: int,
    seed: int,
    *,
    skip_empty: bool = False,
    word_cap: int = DEFAULT_WORD_CAP,
) -> FrequencyTable:
    """Draw exactly word_count words from the model distribution.

    Requires p0 > 0 (a zero space probability never terminates a word).
    Empty words count as occurrences of the empty word unless skip_empty is
    set, in which case they are dropped and the table renormalizes over the
    remaining words; if every word drawn is empty, that is a ValueError.
    """
    if alphabet.space_prob <= 0.0:
        raise ValueError("simulation requires a positive space probability")
    if word_count < 1:
        raise ValueError(f"word_count must be positive, got {word_count}")
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    if word_count > word_cap:
        raise ResourceGuardError(
            f"word_count {word_count} exceeds the cap {word_cap}; "
            "raise ZIPFMONKEY_WORD_CAP to allow more"
        )
    if alphabet.n > sys.maxunicode:  # letter i is encoded as the code point i + 1
        raise ValueError(f"simulation allows at most {sys.maxunicode} letters, got {alphabet.n}")

    import numpy as np

    # the stream SeedSequence(seed).spawn(1)[0], so a seed draws what it always drew
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
    counts = _generate_stream(alphabet, word_count, rng, word_cap)
    if skip_empty:
        counts.pop("", None)
        if not counts:
            raise ValueError(f"skip_empty dropped all {word_count} words drawn with seed {seed}")
    return FrequencyTable(counts)


def empirical_rank_freq(table: FrequencyTable | Iterable[int]) -> RankFrequency:
    """Rank words by count: the k words seen c times share one run of k
    ranks at frequency c / total, after the more frequent words.

    Takes a FrequencyTable or the bare counts, one per distinct word.  An
    empty input or a count that is not positive raises ValueError.
    """
    counts = table.entries.values() if isinstance(table, FrequencyTable) else table
    spectrum = sorted(Counter(counts).items(), reverse=True)  # (count, words seen so often)
    if not spectrum:
        raise ValueError("empty frequency table")
    if spectrum[-1][0] <= 0:
        raise ValueError(f"counts must be positive, got {spectrum[-1][0]}")
    total = sum(c * k for c, k in spectrum)
    his = accumulate(k for _c, k in spectrum)
    return RankFrequency(tuple((hi - k + 1, hi, c / total) for (c, k), hi in zip(spectrum, his)))


def word_lines(table: FrequencyTable, labels: Sequence[str]) -> Iterator[str]:
    r"""The table's "word\tcount" lines: most frequent first, ties in
    letter-index order; the empty word is rendered as EMPTY_WORD.  The words
    are ranked now and rendered as the lines are read.

    The ranked words fall in runs of equal count c (the spectrum).  Up to
    _RUN_SLICE words of a run at a time are joined with "\0", translated
    (code point i + 1 to labels[i], 0 to "\n"), given their count by
    .replace("\n", "\t{c}\n") and split on "\n".  Words hold no code point
    0, and letters 9 and 10 (the code points of "\t" and "\n") are
    translated before any "\n" is read as a separator, so the lines are
    exact whenever no label holds "\n".  0 maps to one ASCII character, not
    to "\t{c}\n", so that ASCII words under one-character ASCII labels keep
    the ASCII fast path of str.translate.  The empty word, first in its run,
    is rendered on its own.
    """
    entries = table.entries
    ranked = sorted(entries)
    ranked.sort(key=entries.__getitem__, reverse=True)  # stable: ties keep word order
    spectrum = sorted(Counter(entries.values()).items(), reverse=True)  # (count, words)
    to_labels = dict(enumerate(labels, 1))
    to_labels[0] = "\n"

    def lines() -> Iterator[str]:
        lo = 0
        for c, k in spectrum:
            hi, tail = lo + k, f"\t{c}"
            if ranked[lo] == "":
                yield EMPTY_WORD + tail
                lo += 1
            for start in range(lo, hi, _RUN_SLICE):
                text = "\0".join(ranked[start : min(start + _RUN_SLICE, hi)]).translate(to_labels)
                yield from (text.replace("\n", tail + "\n") + tail).split("\n")
            lo = hi

    return lines()
