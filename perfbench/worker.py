"""Child process of the benchmark: runs one plan in-process and writes a result.

    python3 perfbench/worker.py PLAN.json RESULT.json

The parent starts this in a fresh interpreter with the checkout's ``src`` on
PYTHONPATH, so the import below is the program's real cold import.  A plan
is one of:

* ``{"mode": "plan", "seed": N, "strata": K}``: build the rank-queries
  thresholds and expected answers (see query_plan).  It runs in a child so
  that the parent never imports the program and stays small: a child's peak
  RSS counts the parent's resident size at the time it was started.  It is
  a set-up step, so it samples the machine's speed (launch.sampling) and
  returns the probe times as ``probes_s``.
* ``{"mode": "queries", "alphabets": ..., "queries": ..., "seconds": S}``:
  the timed ``rank-queries`` loop.  After one untimed warm-up query per
  alphabet it repeats the query sweep, closed loop, until another sweep would
  overrun S seconds (at least one sweep), timing every call.
* ``{"mode": "trace", "ops": [...]}`` or the same with ``"alphabets"`` and
  ``"queries"``: the traced run.  It replays the workload untraced, then with
  every layer wrapped (see tracing.py), then untraced again, and returns the
  spans and the traced minus the second untraced wall time.  The untraced
  replays write their outputs beside the traced replay's, which the parent
  checks.

Each query is ``[alphabet key, threshold f, expected rank, empty-word flag]``;
the worker reports answers and leaves checking to the parent.
"""

from __future__ import annotations

import json
import math
import random
import sys
import time
import traceback

from launch import probe, sampling
from tracing import Tracer, work_counts


QUERY_ALPHABETS = {  # key: (kind, n, p0, x_max)
    "gz5": ("gusein-zade", 5, 0.18, 26.0),
    "gz26": ("gusein-zade", 26, 0.18, 14.0),
    "u26": ("uniform", 26, 0.037037, 30.0),
}
PROBE_EVERY = 50  # queries between reference-loop timings
PROBE_LOOPS = 100_000  # iterations of the reference loop (launch.probe)


def query_plan(seed: int, strata: int) -> dict:
    """Query thresholds and their expected ranks, from the program's own level tables.

    For each alphabet the weight range up to its last complete level is cut
    into `strata` equal strata; one seeded point per stratum picks the level
    at or below it.  Each chosen level gives two queries: its own probability
    (expected rank: the level's rank_hi) and the geometric midpoint to the
    next level (same answer).  The empty word's level is always included.
    Tables come from enumerate_levels(max_weight=...); when a table is
    truncated by the node budget only its complete prefix is queried.
    Levels closer than 1e-6 to the next are skipped for the midpoint so that
    the counting function's 1e-9 tie tolerance cannot reach the next level.
    """
    from zipfmonkey import pyramid

    rng = random.Random(f"rank-queries:{seed}")
    spec = {key: [kind, n, p0] for key, (kind, n, p0, _x) in QUERY_ALPHABETS.items()}
    queries, defect = [], {}
    for key, al in make_alphabets(spec).items():
        x_max = QUERY_ALPHABETS[key][3]
        defect[key] = math.exp(math.log(al.space_prob)) > al.space_prob
        levels = pyramid.enumerate_levels(al, max_weight=x_max).levels
        usable = [i for i in range(1, len(levels) - 1)
                  if levels[i + 1].weight - levels[i].weight > 1e-6]
        top = levels[usable[-1]].weight
        bottom = levels[usable[0]].weight
        chosen = [0]
        for s in range(strata):
            x = bottom + (top - bottom) * (s + rng.random()) / strata
            chosen.append(max(i for i in usable if levels[i].weight <= x))
        for i in chosen:
            lv, nxt = levels[i], levels[i + 1]
            queries.append([key, math.exp(lv.log_prob), lv.rank_hi, i == 0])
            queries.append([key, math.exp(0.5 * (lv.log_prob + nxt.log_prob)), lv.rank_hi, False])
    return {"alphabets": spec, "queries": queries, "defect": defect}


def make_alphabets(spec):
    from zipfmonkey import alphabet

    makers = {"gusein-zade": alphabet.make_gusein_zade, "uniform": alphabet.make_uniform}
    return {key: makers[kind](n, p0) for key, (kind, n, p0) in spec.items()}


def sweep(pyramid, alphabets, queries, probing=False):
    """One pass over the queries; the function is looked up on every call so
    that a traced run goes through the wrapper.  With probing, the reference
    loop is timed before every PROBE_EVERY queries and once after the last,
    in this process, so that the parent can scale each latency by the
    machine's speed around it."""
    answers, latencies, probes = [], [], []
    clock = time.perf_counter
    start = clock()
    for n, (key, f, _expected, _empty) in enumerate(queries):
        if probing and n % PROBE_EVERY == 0:
            probes.append(probe(PROBE_LOOPS))
        al = alphabets[key]
        t0 = clock()
        try:
            answer = pyramid.rank_of_probability(al, f)
        except Exception as exc:  # a failed query is counted, not fatal
            answer = f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        answers.append(answer)
    if probing:
        probes.append(probe(PROBE_LOOPS))
    return {"wall_s": clock() - start - math.fsum(probes), "answers": answers,
            "latencies_s": latencies, "probes_s": probes}


def timed_queries(plan):
    from zipfmonkey import pyramid

    alphabets = make_alphabets(plan["alphabets"])
    for al in alphabets.values():  # warm-up: one cheap query per alphabet
        pyramid.rank_of_probability(al, al.space_prob / 2)
    deadline = time.perf_counter() + plan["seconds"]
    sweeps = []
    while True:
        sweeps.append(sweep(pyramid, alphabets, plan["queries"], probing=True))
        if time.perf_counter() + sweeps[-1]["wall_s"] > deadline:
            return {"sweeps": sweeps}


def replay_ops(cli, ops, tracer=None):
    """Run each CLI command through cli.main in this process."""
    statuses = []
    main = cli.main if tracer is None else tracer.wrap("main", "cli", cli.main)
    start = time.perf_counter()
    for op in ops:
        try:
            statuses.append({"exit": main(op["argv"]), "error": None})
        except Exception:  # an escaped exception is a failed command, not fatal
            statuses.append({"exit": None, "error": traceback.format_exc(limit=3)})
    return time.perf_counter() - start, statuses


def untraced_paths(ops):
    """The ops with every output, and every input that is an earlier op's
    output, moved to a side path, so that the files the parent checks are
    the traced replay's own."""
    moved = {op["out"]: op["out"] + ".untraced" for op in ops}
    return [{**op, "argv": [moved.get(a, a) for a in op["argv"]]} for op in ops]


def traced(plan):
    t0 = time.perf_counter()
    import zipfmonkey.cli as cli  # the span cli.import_s: first, cold import

    import_s = time.perf_counter() - t0
    from zipfmonkey import pyramid

    # untraced, traced, untraced again: the first replay pays the process's
    # first-call costs, and the overhead compares the two warm replays.
    tracer = Tracer()
    if plan.get("ops"):
        aside = untraced_paths(plan["ops"])
        replay_ops(cli, aside)
        with tracer.installed(), tracer.span("run") as root:
            _, statuses = replay_ops(cli, plan["ops"], tracer)
        untraced_wall, _ = replay_ops(cli, aside)
        extra = {"statuses": statuses}
    else:
        alphabets = make_alphabets(plan["alphabets"])
        sweep(pyramid, alphabets, plan["queries"])
        with tracer.installed(), tracer.span("run") as root:
            result = sweep(pyramid, alphabets, plan["queries"])
        untraced_wall = sweep(pyramid, alphabets, plan["queries"])["wall_s"]
        extra = {"answers": result["answers"]}
    return {
        "import_s": import_s,
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": root[2] - root[1],
        "spans": tracer.spans,
        "work": work_counts(tracer.calls),
        **extra,
    }


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    if plan["mode"] == "plan":
        probes: list[float] = []
        with sampling(probes):  # the parent scales this set-up step's time
            result = query_plan(plan["seed"], plan["strata"])
        result["probes_s"] = probes
    elif plan["mode"] == "queries":
        result = timed_queries(plan)
    else:
        result = traced(plan)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
