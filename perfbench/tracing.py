"""In-memory spans around zipfmonkey's layer boundaries, and their arithmetic.

The tracer replaces public functions with wrappers under the names their
callers look up at call time: module attributes such as
``zipfmonkey.pyramid.enumerate_levels`` (which also catches calls made from
inside the same module, since module globals are module attributes) and the
names ``cli`` and ``fit`` import directly, such as ``zipfmonkey.cli.solve_gamma``.
Nothing in the package itself changes.  Each span records its name, start,
end, parent and the exception type if the call raised.  Spans stay in
memory; the caller writes them out when the run ends.

``simulate.render_word`` and the ``RankFrequency`` constructor are left
unwrapped: they run once per output row, so their time is part of the CLI's
own row rendering and parsing (``cli.self_s``).  ``oracle`` is left out
because no user path calls it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module, attribute, layer).  Several attributes may share one layer.
TARGETS = (
    ("zipfmonkey.alphabet", "make_uniform", "alphabet"),
    ("zipfmonkey.alphabet", "make_gusein_zade", "alphabet"),
    ("zipfmonkey.alphabet", "make_explicit", "alphabet"),
    ("zipfmonkey.alphabet", "estimate_from_corpus", "alphabet"),
    ("zipfmonkey.alphabet", "loads", "alphabet"),
    ("zipfmonkey.cli", "solve_gamma", "gamma"),
    ("zipfmonkey.cli", "log_weights", "gamma"),
    ("zipfmonkey.cli", "rescale_weights", "gamma"),
    ("zipfmonkey.fit", "solve_gamma", "gamma"),
    ("zipfmonkey.pyramid", "enumerate_levels", "pyramid.levels"),
    ("zipfmonkey.pyramid", "weight_events", "pyramid.events"),
    ("zipfmonkey.pyramid", "verify_bounds", "pyramid.certify"),
    ("zipfmonkey.pyramid", "rank_of_probability", "pyramid.rank"),
    ("zipfmonkey.pyramid", "q_tilde_recursive", "pyramid.q_recursive"),
    ("zipfmonkey.simulate", "generate_words", "simulate.generate"),
    ("zipfmonkey.fit", "ols_loglog", "fit.ols"),
    ("zipfmonkey.fit", "compare", "fit.compare"),
)

LAYERS = (
    "cli",
    "alphabet",
    "gamma",
    "pyramid.levels",
    "pyramid.events",
    "pyramid.certify",
    "pyramid.rank",
    "pyramid.q_recursive",
    "simulate.generate",
    "fit.ols",
    "fit.compare",
)

NAME, START, END, PARENT, ERROR = range(5)


class Tracer:
    """Records nested spans; one tracer per traced replay."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, error]
        self.calls: list[tuple] = []  # (attribute, args, result) per call that returned
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, None]
        self.spans.append(record)
        self._stack.append(idx)
        record[START] = self.clock()
        try:
            yield record
        except BaseException as exc:
            record[ERROR] = type(exc).__name__
            raise
        finally:
            record[END] = self.clock()
            self._stack.pop()

    def wrap(self, attribute: str, layer: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            self.calls.append((attribute, args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        try:
            for module_name, attr, layer in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(attr, layer, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus its direct children's.

    Children run inside their parent's interval (the calls are synchronous),
    so the direct children's durations are exactly the part they cover.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) - child_time[i]
    return out


def span_counts(spans) -> dict[str, tuple[int, int]]:
    """Per-name (calls, calls that raised)."""
    out: dict[str, tuple[int, int]] = {}
    for s in spans:
        calls, failed = out.get(s[NAME], (0, 0))
        out[s[NAME]] = (calls + 1, failed + (s[ERROR] is not None))
    return out


def work_counts(calls) -> dict[str, float]:
    """Work done per layer, read off the arguments and results of each call."""
    c = dict.fromkeys(
        (
            "alphabet.chars",
            "gamma.bisections",
            "pyramid.levels.count",
            "pyramid.levels.ranks",
            "pyramid.levels.truncated",
            "pyramid.events.count",
            "simulate.words",
            "simulate.distinct",
            "simulate.letters",
            "fit.ols.points",
        ),
        0,
    )
    singletons = 0
    for attr, args, result in calls:
        if attr == "estimate_from_corpus" and isinstance(args[0], str):
            c["alphabet.chars"] += len(args[0])
        elif attr == "solve_gamma":
            c["gamma.bisections"] += result.iterations
        elif attr == "enumerate_levels":
            c["pyramid.levels.count"] += len(result)
            c["pyramid.levels.ranks"] += result.max_rank
            c["pyramid.levels.truncated"] += int(result.truncated)
        elif attr == "weight_events":
            c["pyramid.events.count"] += len(result)
        elif attr == "generate_words":
            c["simulate.words"] += result.total_words
            c["simulate.distinct"] += len(result.entries)
            singletons += sum(1 for n in result.entries.values() if n == 1)
            c["simulate.letters"] += sum(len(w) * n for w, n in result.entries.items())
        elif attr == "ols_loglog":
            c["fit.ols.points"] += result.n_points
    c["simulate.singleton_frac"] = (
        singletons / c["simulate.distinct"] if c["simulate.distinct"] else 0.0
    )
    return c
