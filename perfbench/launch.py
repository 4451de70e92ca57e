"""Run one zipfmonkey CLI command in this fresh process, sampling the machine's speed.

    python3 perfbench/launch.py SAMPLES.json COMMAND [ARGS...]

This does what the ``zipfmonkey`` console script does (import
``zipfmonkey.cli`` and exit with ``main(argv)``), with the checkout's ``src``
on PYTHONPATH.  Meanwhile a wall-clock timer interrupts the command every
SAMPLE_EVERY_S seconds to time a short fixed pure-Python loop (``probe``);
Python runs the handler between bytecodes, so a long call into C delays a
sample but does not lose the command's time.  The probe times, one before
the command, the interrupts, and one after, go to SAMPLES.json even if the
command fails.  The parent subtracts their sum from the command's latency
and scales the rest by the mean speed they show, because on a shared
machine the same loop was seen to run 1.5 times slower for seconds at a
time; a probe taken in another process, or only before and after the
command, did not follow those changes.
"""

from __future__ import annotations

import contextlib
import json
import signal
import sys
import time

SAMPLE_EVERY_S = 0.025
PROBE_LOOPS = 5_000


def probe(loops: int = PROBE_LOOPS) -> float:
    """Time of a fixed pure-Python loop: the machine's current speed."""
    t = time.perf_counter()
    s = 0
    for i in range(loops):
        s += i * i
    return time.perf_counter() - t


@contextlib.contextmanager
def sampling(samples: list[float]):
    """Append probe times to `samples`: one now, one every SAMPLE_EVERY_S
    while the block runs, and one at its end."""
    probe()  # the first run of the loop pays one-off costs; not a sample
    samples.append(probe())
    previous = signal.signal(signal.SIGALRM, lambda *_: samples.append(probe()))
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
        samples.append(probe())


def main(samples_path: str, argv: list[str]) -> int:
    samples: list[float] = []
    try:
        with sampling(samples):
            import zipfmonkey.cli as cli

            return cli.main(argv)
    finally:
        with open(samples_path, "w", encoding="utf-8") as fh:
            json.dump(samples, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
