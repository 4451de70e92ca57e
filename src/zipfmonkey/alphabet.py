"""Letter-probability models for the random-typing word generator.

An alphabet is a list of letter probabilities p1 >= ... >= pn > 0 together
with a space probability p0, normalized so that p1 + ... + pn + p0 = 1.
Words are the letter sequences between consecutive spaces, so this pair
fully parameterizes the model.  All constructors return the canonical form
(letters sorted by nonincreasing probability), and Alphabet refuses a sum
that is off 1 by more than NORMALIZATION_TOL.  make_explicit, and through
it make_gusein_zade, estimate_from_corpus and the file reader, divide every
probability by the fsum of the input; make_uniform takes (1 - p0) / n as it
is, so make_uniform(3, 0.1) sums to 0.9999999999999999.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter, namedtuple
from functools import cached_property
from typing import Iterable

from .errors import quote

NORMALIZATION_TOL = 1e-12

EMPTY_WORD = "<EPS>"  # how a word table renders the empty word


def _check_size(n: int, p0: float) -> None:
    """The rules on the letter count and p0, checkable before a letter is built."""
    if n < 2:
        raise ValueError(f"alphabet needs at least 2 letters, got {n}")
    if not 0.0 <= p0 < 1.0:
        raise ValueError(f"space probability must be in [0, 1), got {p0}")


def default_labels(n: int) -> tuple[str, ...]:
    """Generate n short letter labels in lexicographic-by-index order."""
    if n <= 26:
        return tuple("abcdefghijklmnopqrstuvwxyz"[:n])
    width = len(str(n - 1))
    return tuple(f"l{i:0{width}d}" for i in range(n))


class Alphabet(namedtuple("Alphabet", "letter_probs space_prob labels")):
    """Canonical letter model: probabilities nonincreasing, summing to 1 within NORMALIZATION_TOL.

    letter_probs -- letter probabilities, each in (0, 1), sorted nonincreasing
    space_prob   -- probability of the space symbol, in [0, 1)
    labels       -- display names, parallel to letter_probs
    """

    def __new__(cls, letter_probs, space_prob, labels=None):
        probs = tuple(float(p) for p in letter_probs)
        _check_size(len(probs), space_prob)
        for p in probs:
            if not 0.0 < p < 1.0:
                raise ValueError(f"letter probability out of (0, 1): {p}")
        for a, b in zip(probs, probs[1:]):
            if a < b:
                raise ValueError("letter probabilities must be nonincreasing")
        deficit = math.fsum(probs) + space_prob - 1.0
        if abs(deficit) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {1.0 + deficit}, off by {deficit}")
        labels = default_labels(len(probs)) if labels is None else tuple(labels)
        if len(labels) != len(probs):
            raise ValueError("labels must parallel letter_probs")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        return super().__new__(cls, probs, space_prob, labels)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    @cached_property
    def log_weights(self):
        """Raw letter weights L_i = -ln(p_i) as a gamma.WeightVector, built once."""
        from .gamma import WeightVector  # gamma imports this module
        return WeightVector(tuple(-math.log(p) for p in self.letter_probs))

    @property
    def n(self) -> int:
        return len(self.letter_probs)


def make_explicit(
    probs: Iterable[float],
    p0: float,
    labels: Iterable[str] | None = None,
) -> Alphabet:
    """Build an Alphabet from explicit probabilities.

    Accepts input in any order, requires the total (letters plus space) to be
    1 within 1e-12, and renormalizes exactly by dividing through by the total.
    """
    probs = [float(p) for p in probs]
    _check_size(len(probs), p0)
    total = math.fsum(probs) + p0
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(
            f"probabilities sum to {total}, off by {total - 1.0} (tolerance {NORMALIZATION_TOL})"
        )
    labels = default_labels(len(probs)) if labels is None else tuple(labels)
    if len(labels) != len(probs):
        raise ValueError("labels must parallel probs")
    order = sorted(range(len(probs)), key=lambda i: (-probs[i], labels[i]))
    return Alphabet(
        tuple(probs[i] / total for i in order),
        p0 / total,
        tuple(labels[i] for i in order),
    )


def make_uniform(n: int, p0: float) -> Alphabet:
    """Alphabet with n equally likely letters and space probability p0."""
    _check_size(n, p0)
    p = (1.0 - p0) / n
    return Alphabet((p,) * n, p0)


def make_gusein_zade(n: int, p0: float) -> Alphabet:
    """Alphabet following the Gusein-Zade letter-frequency law.

    The i-th letter probability is proportional to the expected i-th largest
    of n independent unit exponentials, H(n) - H(i-1) with H the harmonic
    numbers.  Those expectations sum exactly to n, so
    p_i = (1 - p0) * (H(n) - H(i-1)) / n.  This closed form is the standard
    order-statistics reconstruction of the law; see README for discussion.
    """
    _check_size(n, p0)
    # H(n) - H(i-1) as the correctly rounded sum of the floats 1/i, ..., 1/n:
    # on one power-of-two denominator the suffix sums are exact integers,
    # and integer true division rounds once, as fsum would.  Two generator
    # passes, so only one float per letter is held
    denom = max((1.0 / j).as_integer_ratio()[1] for j in range(1, n + 1))
    terms = ((1.0 / j).as_integer_ratio() for j in range(n, 0, -1))
    weights = [s / denom for s in itertools.accumulate(num * (denom // d) for num, d in terms)]
    weights.reverse()
    total = math.fsum(weights)  # equals n up to rounding
    probs = tuple((1.0 - p0) * w / total for w in weights)
    return make_explicit(probs, p0)


def fold_letters(word: str) -> str:
    """word in lower case letter by letter, as estimate_from_corpus counts
    letters: no final-sigma rule, and a letter whose lower case is two code
    points (U+0130) is kept, so each letter folds to one label."""
    return "".join(low if len(low := ch.lower()) == 1 else ch for ch in word)


def estimate_from_corpus(text: str, *, fold_case: bool = True) -> Alphabet:
    """Maximum-likelihood Alphabet from a text.

    Characters for which str.isalpha holds count as letters; a maximal
    whitespace run counts as one space event, which matches natural text;
    everything else is dropped.

    One Counter counts the text per character, and the whitespace runs are the
    gaps between str.split's tokens plus each end that is whitespace.  Each
    distinct character is classified once, so the letter test and case folding
    (fold_letters) run per distinct character.  Each label is one code point,
    so the set is prefix-free.
    """
    counts: Counter[str] = Counter()
    for ch, c in Counter(text).items():
        if ch.isalpha():
            counts[fold_letters(ch) if fold_case else ch] += c
    spaces = len(text.split()) - 1 + text[0].isspace() + text[-1].isspace() if text else 0
    total = spaces + sum(counts.values())
    if total == 0:
        raise ValueError("empty corpus: no letters or spaces after filtering")
    if len(counts) < 2:
        raise ValueError(f"need at least 2 distinct letters, observed {len(counts)}")
    labels = sorted(counts)
    return make_explicit(
        [counts[c] / total for c in labels],
        spaces / total,
        labels,
    )


# --- serialization -----------------------------------------------------------
#
# One text format: one `space <p0>` line, then one `<label> <prob>` line per
# letter, comments starting with '#'.


def _check_labels(labels: list[str]) -> list[str]:
    """Refuse file labels that break a word table or the text format: a word
    is written as its labels run together, so they must be prefix-free and
    must not spell EMPTY_WORD."""
    ordered = sorted(labels)  # a label's extensions sort right after it
    for prev, label in zip(ordered, ordered[1:]):
        if label.startswith(prev):
            raise ValueError(f"bad letter label {quote(label)}: it starts with the label "
                             f"{quote(prev)}, and labels must be prefix-free")
    # prefix-free, so at most one label matches where the last one ended
    spelling = re.findall("|".join(re.escape(x) for x in labels if x in EMPTY_WORD), EMPTY_WORD)
    if "".join(spelling) == EMPTY_WORD:
        raise ValueError(f"bad letter labels: {' + '.join(map(repr, spelling))} spells "
                         f"{EMPTY_WORD!r}, which a word table writes for the empty word")
    return labels


def to_text(alphabet: Alphabet) -> str:
    lines = ["# format: v1 alphabet", f"space {alphabet.space_prob!r}"]
    lines += [
        f"{label} {p!r}" for label, p in zip(alphabet.labels, alphabet.letter_probs)
    ]
    return "\n".join(lines) + "\n"


def loads(text: str) -> Alphabet:
    text = text.removeprefix("\ufeff")  # a byte-order mark is not part of the first label
    p0 = None
    labels: list[str] = []
    probs: list[float] = []
    # lines end at "\n", "\r\n" or "\r", as reading a file ends them; splitlines
    # would also end them at "\f", "\v", "\x85" and the like
    for lineno, raw in enumerate(re.split("\r\n?|\n", text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<label> <prob>', got {quote(raw)}")
        label, value = parts
        try:
            value = float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: bad probability {quote(parts[1])}") from None
        if label == "space":
            if p0 is not None:
                raise ValueError(f"line {lineno}: duplicate space line")
            p0 = value
        else:
            labels.append(label)
            probs.append(value)
    if p0 is None:
        raise ValueError("missing 'space <p0>' line")
    return make_explicit(probs, p0, _check_labels(labels))
