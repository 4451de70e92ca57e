"""Letter-probability models for the random-typing word generator.

An alphabet is a list of letter probabilities p1 >= ... >= pn > 0 together
with a space probability p0, normalized so that p1 + ... + pn + p0 = 1.
Words are the letter sequences between consecutive spaces, so this pair
fully parameterizes the model.  All constructors return the canonical form
(letters sorted by nonincreasing probability) and renormalize exactly, so
downstream identities can rely on the sum being 1 to machine precision.
"""

from __future__ import annotations

import json
import math
import re
import string
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable

NORMALIZATION_TOL = 1e-12

# \s matches exactly the characters for which str.isspace() holds
_WHITESPACE_RUN = re.compile(r"\s+")


def default_labels(n: int) -> tuple[str, ...]:
    """Generate n short letter labels in lexicographic-by-index order."""
    if n <= 26:
        return tuple(string.ascii_lowercase[:n])
    width = len(str(n - 1))
    return tuple(f"l{i:0{width}d}" for i in range(n))


@dataclass(frozen=True)
class Alphabet:
    """Canonical letter model: probabilities nonincreasing, exactly normalized.

    letter_probs -- letter probabilities, each in (0, 1), sorted nonincreasing
    space_prob   -- probability of the space symbol, in [0, 1)
    labels       -- display names, parallel to letter_probs
    """

    letter_probs: tuple[float, ...]
    space_prob: float
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        probs = tuple(float(p) for p in self.letter_probs)
        object.__setattr__(self, "letter_probs", probs)
        if len(probs) < 2:
            raise ValueError(f"alphabet needs at least 2 letters, got {len(probs)}")
        if not 0.0 <= self.space_prob < 1.0:
            raise ValueError(f"space probability must be in [0, 1), got {self.space_prob}")
        for p in probs:
            if not 0.0 < p < 1.0:
                raise ValueError(f"letter probability out of (0, 1): {p}")
        for a, b in zip(probs, probs[1:]):
            if a < b:
                raise ValueError("letter probabilities must be nonincreasing")
        deficit = math.fsum(probs) + self.space_prob - 1.0
        if abs(deficit) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities sum to {1.0 + deficit}, off by {deficit}")
        if self.labels is None:
            object.__setattr__(self, "labels", default_labels(len(probs)))
        else:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != len(probs):
                raise ValueError("labels must parallel letter_probs")
            if len(set(self.labels)) != len(self.labels):
                raise ValueError("labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.letter_probs)

    @property
    def p_max(self) -> float:
        return self.letter_probs[0]


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
    if len(probs) < 2:
        raise ValueError(f"alphabet needs at least 2 letters, got {len(probs)}")
    for p in probs:
        if p <= 0.0:
            raise ValueError(f"letter probability must be positive, got {p}")
    if not 0.0 <= p0 < 1.0:
        raise ValueError(f"space probability must be in [0, 1), got {p0}")
    total = math.fsum(probs) + p0
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(
            f"probabilities sum to {total}, off by {total - 1.0} (tolerance {NORMALIZATION_TOL})"
        )
    if labels is None:
        labels = default_labels(len(probs))
    else:
        labels = tuple(labels)
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
    if n < 2:
        raise ValueError(f"alphabet needs at least 2 letters, got {n}")
    if not 0.0 <= p0 < 1.0:
        raise ValueError(f"space probability must be in [0, 1), got {p0}")
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
    if n < 2:
        raise ValueError(f"alphabet needs at least 2 letters, got {n}")
    if not 0.0 <= p0 < 1.0:
        raise ValueError(f"space probability must be in [0, 1), got {p0}")
    # H(n) - H(i-1) summed directly as 1/i + ... + 1/n for accuracy
    weights = [math.fsum(1.0 / j for j in range(i, n + 1)) for i in range(1, n + 1)]
    total = math.fsum(weights)  # equals n up to rounding
    probs = tuple((1.0 - p0) * w / total for w in weights)
    return make_explicit(probs, p0)


def estimate_from_corpus(
    stream: str | Iterable[str],
    *,
    is_letter: Callable[[str], bool] | None = None,
    fold_case: bool = True,
    collapse_whitespace: bool = True,
) -> Alphabet:
    """Maximum-likelihood Alphabet from a character stream.

    Characters for which is_letter holds (default: str.isalpha) count as
    letters; whitespace counts as the space symbol; everything else is
    dropped.  By default a maximal whitespace run is a single space event,
    which matches natural text.  Pass collapse_whitespace=False to count
    every whitespace character, which matches model-generated streams where
    consecutive spaces delimit empty words.

    Each chunk is counted per character by Counter.update, and its
    whitespace runs by one regex scan (a run split across two chunks counts
    once); each distinct character is then classified once, so is_letter
    and case folding run per distinct character, not per occurrence.
    """
    if is_letter is None:
        is_letter = str.isalpha
    chunks = [stream] if isinstance(stream, str) else stream
    chars: Counter[str] = Counter()
    runs = 0
    in_run = False
    for chunk in chunks:
        chars.update(chunk)
        if collapse_whitespace and chunk:
            runs += len(_WHITESPACE_RUN.findall(chunk)) - (in_run and chunk[0].isspace())
            in_run = chunk[-1].isspace()
    counts: Counter[str] = Counter()
    for ch, c in chars.items():
        if not ch.isspace() and is_letter(ch):
            counts[ch.lower() if fold_case else ch] += c
    spaces = runs if collapse_whitespace else sum(c for ch, c in chars.items() if ch.isspace())
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
# Text format: one `space <p0>` line, then one `<label> <prob>` line per
# letter, comments starting with '#'.  A JSON equivalent is accepted and
# emitted by the CLI.


def to_text(alphabet: Alphabet) -> str:
    lines = ["# format: v1 alphabet", f"space {alphabet.space_prob!r}"]
    lines += [
        f"{label} {p!r}" for label, p in zip(alphabet.labels, alphabet.letter_probs)
    ]
    return "\n".join(lines) + "\n"


def from_text(text: str) -> Alphabet:
    p0 = None
    labels: list[str] = []
    probs: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected '<label> <prob>', got {raw!r}")
        label, value = parts
        try:
            value = float(value)
        except ValueError:
            raise ValueError(f"line {lineno}: bad probability {parts[1]!r}") from None
        if label == "space":
            if p0 is not None:
                raise ValueError(f"line {lineno}: duplicate space line")
            p0 = value
        else:
            labels.append(label)
            probs.append(value)
    if p0 is None:
        raise ValueError("missing 'space <p0>' line")
    return make_explicit(probs, p0, labels)


def to_json(alphabet: Alphabet) -> str:
    doc = {
        "format": "v1 alphabet",
        "space": alphabet.space_prob,
        "letters": dict(zip(alphabet.labels, alphabet.letter_probs)),
    }
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str) -> Alphabet:
    try:
        doc = json.loads(text)
        letters = doc["letters"]
        probs, p0 = [float(p) for p in letters.values()], float(doc["space"])
    except (TypeError, KeyError, AttributeError, RecursionError):
        raise ValueError('expected {"space": p0, "letters": {label: prob, ...}}') from None
    return make_explicit(probs, p0, list(letters.keys()))


def loads(text: str) -> Alphabet:
    """Parse either serialization, sniffing JSON by a leading brace."""
    if text.lstrip().startswith("{"):
        return from_json(text)
    return from_text(text)
