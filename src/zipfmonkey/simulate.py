"""Seeded Monte Carlo word generation from the typing model.

Words are drawn one at a time rather than by splitting one long character
stream: a word's length is geometric (m letters then a space, probability
(1-p0)**m * p0) and its letters are i.i.d. with the conditional letter
distribution p_i / (1-p0).  That is distributionally identical to typing
characters and splitting on spaces, and it makes "exactly word_count
words" trivially true.

Generation is vectorized with numpy and driven by PCG64; numpy is imported
inside the functions that draw words, so importing this module (and with
it the package and the CLI) does not load it.  A fixed (alphabet,
word_count, seed) triple reproduces the same table within one build.

Letter i is i + 1 from the draw to the output: one array holds every
drawn letter, and a distinct word becomes a str in which letter i is the
code point i + 1, so words sort like their letter-index tuples and the
empty word is "".  Words are counted by one sort of integer keys that
carry each word's index, not by hashing one string per draw, and the
table lists "" first and then the words in code-point order.  Memory
grows with the letters (one, two or four bytes each by the alphabet
size, in the array and then in the string the distinct words are sliced
from, both freed before the table's dict is built), the words (about 22
bytes each while they are sorted) and the distinct words.  Drawing is
stated in _generate_stream and _draw_letters, counting in _word_runs
and _prefix_keys, ranking in empirical_rank_freq and RankFrequency,
output in word_lines.
"""

from __future__ import annotations

import math
import sys
from collections import Counter, defaultdict
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

from .alphabet import EMPTY_WORD, Alphabet
from .errors import ResourceGuardError

Word = str  # letter i is chr(i + 1)

DEFAULT_WORD_CAP = 10**8
_MAX_WORDS = 1 << 42  # so a word index leaves _word_runs' keys a letter or more

_BLOCK_LETTERS = 1 << 18  # letters drawn at a time
_MIN_BUCKETS, _MAX_BUCKETS = 1 << 10, 1 << 20  # guide table: 4 KiB to 4 MiB
_RUN_SLICE = 8192  # words of one run rendered by one pass of string calls
_KEY_WORDS = 1 << 15  # words keyed at a time
_SLICE_WORDS = 1 << 10  # distinct words sliced into strings at a time


class FrequencyTable(NamedTuple):
    """Occurrence counts per word (letter i is the code point i + 1);
    total_words is their sum."""

    entries: dict[Word, int]

    @property
    def total_words(self) -> int:
        return sum(self.entries.values())


class RankFrequency(NamedTuple("RankFrequency", [("runs", tuple)])):
    """Runs (rank_lo, rank_hi, freq) of ranks >= 1, each rank of a run at the
    relative frequency freq.  Runs ascend in rank without overlap (gaps
    allowed), freqs nonincreasing.  expand_runs yields the (rank, freq) points."""

    __slots__ = ()

    def __new__(cls, runs):
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
        return super().__new__(cls, tuple(checked))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


def expand_runs(runs, r_min=-math.inf, r_max=math.inf) -> Iterator[tuple[int, float]]:
    """The (rank, freq) points of runs (rank_lo, rank_hi, freq) with r_min <=
    rank <= r_max, rank by rank; ranks outside the window are never expanded."""
    return ((r, f) for lo, hi, f in runs for r in range(max(lo, r_min), min(hi, r_max) + 1))


def _guide_table(cdf: np.ndarray, n_buckets: int) -> np.ndarray:
    """_draw_letters' table ("<u4"): bucket b of M = n_buckets holds lo + 1,
    lo the number of steps cdf[i] <= b/M, or 0 if a step lies inside
    (b/M, (b+1)/M).  cdf * M is exact (M a power of two), so lo counts the
    steps with ceil(cdf[i] * M) <= b (one bincount), and a step off the
    edges lies inside bucket ceil(cdf[i] * M) - 1."""
    import numpy as np

    scaled = cdf * n_buckets
    steps = np.ceil(scaled).astype(np.intp)
    guide = (np.bincount(steps, minlength=n_buckets + 1)[:n_buckets].cumsum() + 1).astype("<u4")
    guide[steps[scaled != steps] - 1] = 0
    return guide


def _draw_letters(probs: np.ndarray, rng: np.random.Generator, size: int, dtype) -> np.ndarray:
    """The size letters Generator.choice(len(probs), size, p=probs) would
    draw from rng, as code points (letter i as i + 1) in an array of dtype,
    read off the same doubles: rng.random, _BLOCK_LETTERS at a time.

    choice takes cdf = probs.cumsum(), cdf /= cdf[-1], and draws letter
    cdf.searchsorted(u, "right"), the number of steps cdf[i] <= u.  The
    guide table (Chen and Asau's indexed search) splits [0, 1) into M
    buckets, M a power of two, so b = floor(u * M) is exact and b/M <= u <
    (b+1)/M.  That count is monotone in u, so while no step lies inside the
    bucket it is the count at b/M, and the table holds that letter (see
    _guide_table); u decides nothing more.  Elsewhere it holds 0, and those
    draws, about n/M of them, are searched as choice searches them.  M is
    the least power of two >= 64 n, within [_MIN_BUCKETS, _MAX_BUCKETS].
    """
    import numpy as np

    cdf = probs.cumsum()
    cdf /= cdf[-1]
    n_buckets = min(max(1 << (64 * probs.size - 1).bit_length(), _MIN_BUCKETS), _MAX_BUCKETS)
    guide = _guide_table(cdf, n_buckets)
    letters = np.empty(size, dtype)
    for a in range(0, size, _BLOCK_LETTERS):
        u = rng.random(min(_BLOCK_LETTERS, size - a))
        block = guide[(u * n_buckets).astype(np.intp)]
        odd = np.flatnonzero(block == 0)
        block[odd] = cdf.searchsorted(u[odd], "right") + 1
        letters[a : a + u.size] = block
    return letters


def _prefix_keys(
    letters: np.ndarray, begin: np.ndarray, end: np.ndarray, base: int, k: int
) -> np.ndarray:
    """One int64 per word letters[b:e]: its first k letters as base-`base`
    digits, 0 past its end (b >= e: no letter).  Letters are 1 .. base - 1,
    so the keys sort like the words' first k letters, a word before its
    extensions, and only the empty word has key 0.  Each _KEY_WORDS words
    are put longest first, so digit t is added to a prefix of them.
    """
    import numpy as np

    pows = base ** np.arange(k - 1, -1, -1, dtype=np.int64)
    keys = np.empty(begin.size, np.int64)
    for a in range(0, begin.size, _KEY_WORDS):
        b = begin[a : a + _KEY_WORDS]
        m = np.clip(end[a : a + _KEY_WORDS] - b, 0, k).astype(np.uint8)
        by = (k - m).argsort(kind="stable")  # a radix sort of one-byte values
        b, part = b[by], np.zeros(m.size, np.int64)
        live = m.size - np.bincount(m, minlength=k).cumsum()  # live[t]: words with a letter t
        for t, c in enumerate(live[:k].tolist()):
            part[:c] += np.multiply(letters[b[:c] + t], pows[t], dtype=np.int64)
        keys[a + by] = part
    return keys


def _word_runs(letters: np.ndarray, bounds: np.ndarray, base: int) -> np.ndarray:
    """The distinct words among words j = letters[bounds[j] : bounds[j + 1]]
    (letters 1 .. base - 1), in code-point order ("" first): one (3, distinct)
    array whose rows are each word's count, start and end in letters.

    Each word gets one int64 key: its first k0 letters in base `base`
    (_prefix_keys) in the high bits and its index j in the low ib bits, ib
    the bit length of the largest index (at least 1) and k0 the most digits
    with base**k0 <= 2**(63 - ib).  One sort groups the keys, and their low
    bits are the order; generate_words counts at most 2**42 words, so ib <=
    42 and k0 >= 1 for every base up to sys.maxunicode + 1.  A run of equal
    prefixes whose words have k0 letters or more is re-sorted by the next k
    letters, k the most digits with base**k <= 2**63, one chunk at a time,
    until each run is one word.  Equal keys keep their index order, so each
    run's first word is the first drawn.
    """
    import numpy as np

    ib = max(1, (bounds.size - 2).bit_length())
    k0 = next(k for k in range(63, 0, -1) if base**k <= 1 << (63 - ib))
    k = next(k for k in range(63, 0, -1) if base**k <= 1 << 63)
    keys = _prefix_keys(letters, bounds[:-1], bounds[1:], base, k0)
    order = np.arange(keys.size, dtype=np.int64)
    keys <<= ib
    keys |= order
    keys.sort()
    np.bitwise_and(keys, (1 << ib) - 1, out=order)
    keys >>= ib
    new = np.ones(keys.size + 1, bool)  # new[p]: sorted position p starts a run; new[-1] ends one
    np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
    keys %= base
    long = keys.astype(bool)  # long[p]: the word has depth letters or more, so may tie with another
    del keys
    depth = k0
    while (tied := np.flatnonzero(long & ~(new[:-1] & new[1:]))).size:  # in runs of 2 or more
        words = order[tied]
        keys = _prefix_keys(letters, bounds[words] + depth, bounds[words + 1], base, k)
        by = np.lexsort((keys, np.cumsum(new[tied])))  # within each run, by the next k letters
        order[tied], keys = words[by], keys[by]
        new[tied[1:]] |= keys[1:] != keys[:-1]
        long[tied], depth = keys % base != 0, depth + k
    heads = np.flatnonzero(new)  # each run's first position, then the word count
    runs = np.empty((3, heads.size - 1), bounds.dtype)
    np.subtract(heads[1:], heads[:-1], out=runs[0])
    words = order[heads[:-1]]
    runs[1], runs[2] = bounds[words], bounds[words + 1]
    return runs


def _generate_stream(
    alphabet: Alphabet, count: int, rng: np.random.Generator, word_cap: int
) -> dict[Word, int]:
    """Draw count words and count them: "" first, then the words in
    code-point order.

    The RNG stream is the one geometric and Generator.choice(p=...) draw:
    all word lengths, then every letter in order (_draw_letters).

    The words are counted by sorting, not hashing (_word_runs): all letters
    go to one array of the smallest unsigned dtype that holds n, and each
    distinct word is sliced once from them decoded to one string.
    """
    import numpy as np

    p0 = alphabet.space_prob
    lengths = rng.geometric(p0, size=count) - 1  # letters before the space
    wide = count * int(lengths.max()) >= 1 << 63  # an int64 sum could wrap (a tiny p0)
    n_letters = int(lengths.sum(dtype=object if wide else np.int64))
    if n_letters > word_cap:
        raise ResourceGuardError(
            f"{n_letters} letters to draw exceed the cap {word_cap}; "
            "raise the word_cap argument or ZIPFMONKEY_WORD_CAP to allow more"
        )
    pos = np.int32 if max(n_letters, count) < 1 << 30 else np.int64  # a letter offset or a count
    bounds = np.zeros(count + 1, pos)  # word j is letters[bounds[j] : bounds[j + 1]]
    np.cumsum(lengths, out=bounds[1:])
    del lengths
    probs = np.asarray(alphabet.letter_probs) / (1.0 - p0)
    letters = _draw_letters(probs, rng, n_letters, np.min_scalar_type(alphabet.n))
    runs = _word_runs(letters, bounds, alphabet.n + 1)
    del bounds
    if letters.itemsize == 1:
        text = str(letters.data, "latin-1")
    else:
        text = str(letters.astype("<u4").data, "utf-32-le", "surrogatepass")
    del letters
    words: list[Word] = []  # all sliced first: the text is freed before the dict grows
    for a in range(0, runs.shape[1], _SLICE_WORDS):
        b, e = runs[1:, a : a + _SLICE_WORDS].tolist()
        words += [text[i:j] for i, j in zip(b, e)]
    del text
    return dict(zip(words, runs[0].tolist()))


def generate_words(
    alphabet: Alphabet,
    word_count: int,
    seed: int,
    *,
    word_cap: int = DEFAULT_WORD_CAP,
) -> FrequencyTable:
    """Draw exactly word_count words from the model distribution.

    Requires p0 > 0 (a zero space probability never terminates a word).
    An empty word counts as an occurrence of the empty word "", which the
    table keeps like any other word.
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
            "raise the word_cap argument or ZIPFMONKEY_WORD_CAP to allow more"
        )
    if word_count > _MAX_WORDS:
        raise ResourceGuardError(
            f"word_count {word_count} exceeds {_MAX_WORDS}, the most one table counts"
        )
    if alphabet.n > sys.maxunicode:  # letter i is encoded as the code point i + 1
        raise ValueError(f"simulation allows at most {sys.maxunicode} letters, got {alphabet.n}")

    import numpy as np

    # the stream SeedSequence(seed).spawn(1)[0], so a seed draws what it always drew
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
    return FrequencyTable(_generate_stream(alphabet, word_count, rng, word_cap))


def empirical_rank_freq(counts: Iterable[int]) -> RankFrequency:
    """Rank words by count: the k words seen c times share one run of k
    ranks at frequency c / total, after the more frequent words.

    Takes the counts, one per distinct word.  An empty input or a count
    that is not positive raises ValueError.
    """
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
    letter-index order; the empty word is rendered as EMPTY_WORD.  Each item
    is one or more whole lines of one run (the words of one count), joined
    by "\n".  The words are put in buckets by count now; each bucket is
    sorted and rendered as the items are read.  generate_words lists its
    words in code-point order, so each bucket is filled in order and its
    sort finds one ascending run: linear time.

    Up to _RUN_SLICE words of a run at a time are joined with "\0",
    translated (code point i + 1 to labels[i], 0 to "\n") and given their
    count by .replace("\n", "\t{c}\n"): one item.  Words hold no code
    point 0, and letters 9 and 10 (the code points of "\t" and "\n") are
    translated before any "\n" is read as a separator, so the lines are
    exact whenever no label holds "\n".  A code point with no label is
    written as itself: with no labels, the words are written as they are,
    exact whenever none holds "\0", "\t" or "\n".  0 maps to one ASCII
    character, not to "\t{c}\n", so that ASCII words under one-character
    ASCII labels keep the ASCII fast path of str.translate.  The empty word,
    first in its run, is an item of its own.
    """
    buckets: defaultdict[int, list[Word]] = defaultdict(list)
    for word, c in table.entries.items():
        buckets[c].append(word)
    to_labels = dict(enumerate(labels, 1))
    to_labels[0] = "\n"

    def lines() -> Iterator[str]:
        for c in sorted(buckets, reverse=True):
            words, tail = buckets.pop(c), f"\t{c}"
            words.sort()
            lo = 1 if words[0] == "" else 0
            if lo:
                yield EMPTY_WORD + tail
            for start in range(lo, len(words), _RUN_SLICE):
                text = "\0".join(words[start : start + _RUN_SLICE]).translate(to_labels)
                yield text.replace("\n", tail + "\n") + tail

    return lines()
