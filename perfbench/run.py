#!/usr/bin/env python3
"""The zipfmonkey benchmark: four workloads, timed end to end or traced by layer.

Run from the root of a checkout (the package is taken from ``src/``, not from
any installed copy):

    python3 perfbench/run.py --workload sim-short --seed 1 --seconds 25 --trace 0

Workloads (closed loop, one client, one command or query at a time):

* ``sim-short``: ``simulate`` 10^6 words over 5 Gusein-Zade letters, then
  ``compare``.  Short, often repeated words: drawing, counting repeats, and
  the CLI's sort and TSV write dominate; the enumerator is idle.
* ``sim-long``: the same two commands over 26 equally likely letters with
  p0 = 0.037037, 2*10^5 words.  Long words, 89% singletons, most too long
  for a 64-bit base-26 key: a counting change that only helps repeats, or
  short words, shows here.
* ``exact-cli``: ``levels`` deep (gz26, 3*10^6 ranks), ``levels --corpus``
  wide (a seeded 400-letter CJK text), ``qfun``, ``certify`` and ``gamma``
  three times.  The lattice enumerator and row rendering dominate; ``gamma``
  is mostly interpreter and numpy start-up.
* ``rank-queries``: ``rank_of_probability`` in one process over gz5 (x <= 26),
  gz26 (x <= 14) and uniform-26 (x <= 30).  The only path to the Q
  evaluators; tied weights (uniform) and distinct weights (Gusein-Zade)
  favour different evaluators, so a routing change must show on both.

The three CLI workloads run every command in a fresh process, import
included, as a user does.  The seed fixes the simulate seeds, the corpus and
the query thresholds; the program receives only those generated inputs.

Every output is checked (see the ``check_*`` functions and
``worker.query_plan``).  ``attempted`` counts commands or queries; ``failed``
counts those that exited nonzero, raised, printed a traceback or failed a
check; ``correct`` is false when any output the program did produce was
wrong.  ``rank_of_probability`` currently raises on the empty word's own
probability whenever exp(log(p0)) rounds above p0, which holds for all three
alphabets; those queries stay in the workload and are counted as failed.

``--trace 0`` prints the end-to-end metrics, measured untraced: ``wall_s``,
the median time of one pass through the workload (one sweep of the queries
for rank-queries); ``op_gmean_ms``, the geometric mean over operation kinds
(each command, or each query alphabet) of that kind's median latency, so a
0.3 s ``gamma`` weighs as much as a 2 s ``levels``; ``peak_rss_mb``, the
largest peak RSS of any child, from each child's own rusage (``os.wait4``);
and ``setup_s``, the median of five set-ups.  On a shared 2-core x86-64 VM
a fixed Python loop was seen to run 1.5 times slower for seconds at a time,
and for a larger or smaller share of each minute as other tenants' load
changed.  So every latency is scaled to a reference speed, measured inside
the process that does the work: each CLI command runs through launch.py,
which times a short loop (launch.probe) every 25 ms while the command runs;
set-up steps sample the same way in the process that does them; and
rank-queries times a longer loop before every 50 queries and after the last
(the faster of the two probes around a window scales it).  Probe time is not
counted as the program's.  The unscaled values are printed beside
the scaled ones.

``--trace 1`` replays the workload in one fresh process, untraced, traced
(tracing.py) and untraced again, and prints the per-layer metrics: self time
and work counts per layer, the cold import, and the traced wall time as
layer self times plus ``trace.gap_s`` (time in no layer).  Lines before the
last one are a readable report with every per-command latency, its sample
count and the run's provenance; the last line is the JSON result.  A full
record, spans included, is written to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import operator
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, self_times, span_counts  # noqa: E402
import launch  # noqa: E402
import worker  # noqa: E402

WORKLOADS = ("sim-short", "sim-long", "exact-cli", "rank-queries")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
# Latencies are scaled to the speed at which one iteration of launch.probe's
# loop takes this long (see speed_factor).
REFERENCE_LOOP_S = 9e-8

SIZES = {
    "full": {
        "sim-short": {"n_words": 1_000_000},
        "sim-long": {"n_words": 200_000},
        "exact-cli": {
            "deep_rank": 3_000_000,
            "corpus_chars": 1_500_000,
            "corpus_letters": 400,
            "wide_rank": 2000,
            "qfun_x": 40,
            "certify_x": 45,
            "gamma_calls": 3,
        },
        "rank-queries": {"strata": 100},
    },
    "tiny": {
        "sim-short": {"n_words": 100_000},
        "sim-long": {"n_words": 5_000},
        "exact-cli": {
            "deep_rank": 10_000,
            "corpus_chars": 20_000,
            "corpus_letters": 40,
            "wide_rank": 200,
            "qfun_x": 15,
            "certify_x": 12,
            "gamma_calls": 1,
        },
        "rank-queries": {"strata": 4},
    },
}

# CLI flags of the fixed alphabets.
GZ5 = ["--gusein-zade", "5", "--p0", "0.18"]
GZ26 = ["--gusein-zade", "26", "--p0", "0.18"]
U26 = ["--uniform", "26", "--p0", "0.037037"]
SLOPE_TOL = 0.1  # |fitted - (-1/gamma)| for 10^6 words, as in the test suite


class Abort(Exception):
    """The benchmark cannot run here; exit nonzero without a result."""


# --- independent reference values ------------------------------------------


def letter_probs(flags: list[str]) -> list[float]:
    kind, n, p0 = flags[0], int(flags[1]), float(flags[3])
    if kind == "--uniform":
        return [(1.0 - p0) / n] * n
    h = [math.fsum(1.0 / j for j in range(i, n + 1)) for i in range(1, n + 1)]
    return [(1.0 - p0) * x / math.fsum(h) for x in h]


def gamma_of(probs: list[float]) -> float:
    """Root of sum(p_i**g) = 1 by plain bisection, for checking only."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.fsum(p**mid for p in probs) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- output checks -----------------------------------------------------------


def data_rows(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if ln and not ln.startswith("#")]


def key_values(text: str) -> dict[str, str]:
    return dict(ln.split("=", 1) for ln in data_rows(text) if "=" in ln)


def check_simulate(text: str, p: dict) -> list[str]:
    rows = [r.split("\t") for r in data_rows(text)]
    if not rows or any(len(r) != 2 for r in rows):
        return ["simulate: malformed rows"]
    keys = [(-int(c), "" if w == "<EPS>" else w) for w, c in rows]
    problems = []
    if sum(-k[0] for k in keys) != p["n_words"]:
        problems.append("simulate: counts do not sum to n_words")
    if any(a >= b for a, b in zip(keys, keys[1:])):
        problems.append("simulate: rows not in strict (-count, word) order")
    return problems


def check_compare(text: str, p: dict) -> list[str]:
    kv = key_values(text)
    try:
        fitted, predicted = float(kv["fitted_slope"]), float(kv["predicted_slope"])
        gap = float(kv["abs_gap"])
    except (KeyError, ValueError):
        return ["compare: missing fields"]
    problems = []
    if abs(predicted + 1.0 / p["gamma"]) > 1e-9:
        problems.append(f"compare: predicted_slope {predicted} is not -1/gamma")
    if abs(gap - abs(fitted - predicted)) > 1e-12:
        problems.append("compare: abs_gap inconsistent")
    if p.get("slope_tol") is not None and abs(fitted - predicted) > p["slope_tol"]:
        problems.append(f"compare: |fitted - predicted| = {abs(fitted - predicted)}")
    return problems


def check_levels(text: str, p: dict) -> list[str]:
    try:
        rows = [[float(v) if i in (2, 3) else int(v) for i, v in enumerate(r.split("\t"))]
                for r in data_rows(text)]
    except ValueError:
        return ["levels: malformed rows"]
    if not rows or any(len(r) != 5 for r in rows):
        return ["levels: malformed rows"]
    problems = []
    expect_lo = 1
    for lo, hi, lg, w, count in rows:
        if lo != expect_lo or hi - lo + 1 != count:
            problems.append(f"levels: span {lo}..{hi} count {count} breaks contiguity")
            break
        expect_lo = hi + 1
    if any(a[3] >= b[3] or a[2] <= b[2] for a, b in zip(rows, rows[1:])):
        problems.append("levels: weights not increasing")
    if "# truncated" not in text and rows[-1][1] < p["max_rank"]:
        problems.append("levels: stopped short of max_rank without truncation")
    return problems


def check_qfun(text: str, p: dict) -> list[str]:
    try:
        rows = [(float(x), int(q)) for x, q in (r.split("\t") for r in data_rows(text))]
    except ValueError:
        return ["qfun: malformed rows"]
    if not rows or rows[0] != (0.0, 1):
        return ["qfun: does not start at Q(0) = 1"]
    if any(a[0] >= b[0] or a[1] >= b[1] for a, b in zip(rows, rows[1:])):
        return ["qfun: Q not strictly increasing"]
    return []


def check_certify(text: str, p: dict) -> list[str]:
    kv = key_values(text)
    if kv.get("status") != "PASS":
        return ["certify: status is not PASS"]
    try:
        c1, c2 = float(kv["c1"]), float(kv["c2"])
    except (KeyError, ValueError):
        return ["certify: missing fields"]
    return [] if 0.0 < c1 < c2 else ["certify: constants out of order"]


def check_gamma(text: str, p: dict) -> list[str]:
    kv = key_values(text)
    try:
        g, residual = float(kv["gamma"]), float(kv["residual"])
    except (KeyError, ValueError):
        return ["gamma: missing fields"]
    problems = []
    if abs(residual) > 1e-12:
        problems.append(f"gamma: residual {residual}")
    if abs(g - p["gamma"]) > 1e-9:
        problems.append(f"gamma: {g} differs from the reference {p['gamma']}")
    return problems


CHECKS = {
    "simulate": check_simulate,
    "compare": check_compare,
    "levels": check_levels,
    "levels_wide": check_levels,
    "qfun": check_qfun,
    "certify": check_certify,
    "gamma": check_gamma,
}


# --- workloads ---------------------------------------------------------------


def make_corpus(rng: random.Random, chars: int, letters: int) -> str:
    """Text over `letters` CJK ideographs with Zipf letter frequencies, p0 = 0.18."""
    symbols = [chr(0x4E00 + i) for i in range(letters)]
    rng.shuffle(symbols)
    h = math.fsum(1.0 / (i + 1) for i in range(letters))
    weights = [0.82 / ((i + 1) * h) for i in range(letters)]
    return "".join(rng.choices(symbols + [" "], weights + [0.18], k=chars))


def cli_ops(workload: str, seed: int, size: dict, work: Path) -> list[dict]:
    """Generate the inputs and return the command sequence of one pass."""
    rng = random.Random(f"{workload}:{seed}")

    def op(name, argv, check=None, inputs=(), out=None):
        out = out or work / f"{name}-{len(ops)}.out"
        ops.append({"name": name, "argv": [*argv, "--out", str(out)], "out": str(out),
                    "inputs": [str(i) for i in inputs], "check": check or {}})

    ops: list[dict] = []
    if workload in ("sim-short", "sim-long"):
        flags = GZ5 if workload == "sim-short" else U26
        table = work / "words.tsv"
        n = size["n_words"]
        sim_seed = rng.randrange(2**32)
        op("simulate", ["simulate", *flags, "--n-words", str(n), "--seed", str(sim_seed)],
           {"n_words": n}, out=table)
        check = {"gamma": gamma_of(letter_probs(flags)),
                 "slope_tol": SLOPE_TOL if workload == "sim-short" else None}
        op("compare", ["compare", "--in", str(table), *flags, "--window", "10", "300"],
           check, [table])
    else:
        corpus = work / "corpus.txt"
        corpus.write_text(
            make_corpus(rng, size["corpus_chars"], size["corpus_letters"]), encoding="utf-8"
        )
        op("levels", ["levels", *GZ26, "--max-rank", str(size["deep_rank"])],
           {"max_rank": size["deep_rank"]})
        op("levels_wide", ["levels", "--corpus", str(corpus), "--max-rank", str(size["wide_rank"])],
           {"max_rank": size["wide_rank"]}, [corpus])
        op("qfun", ["qfun", *GZ5, "--x-max", str(size["qfun_x"])])
        op("certify", ["certify", *GZ5, "--x-max", str(size["certify_x"])])
        for _ in range(size["gamma_calls"]):
            op("gamma", ["gamma", *GZ26], {"gamma": gamma_of(letter_probs(GZ26))})
    return ops


# --- processes ---------------------------------------------------------------


def run_child(argv: list[str], env: dict, log: Path) -> dict:
    """Run one child to completion; its own peak RSS comes from os.wait4."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        latency = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = log.read_text(encoding="utf-8", errors="replace")
    return {"latency_s": latency, "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode, "stderr": stderr[-2000:]}


def cli_argv(args: list[str], samples: Path) -> list[str]:
    return [sys.executable, str(HERE / "launch.py"), str(samples), *args]


def speed_factor(probes_s, loops: int) -> float:
    """Mean speed the probes show, relative to the reference speed."""
    return statistics.fmean(loops * REFERENCE_LOOP_S / t for t in probes_s)


def scale(step: dict, probes_s: list[float]) -> dict:
    """A step's latency, less the launch.sampling probes taken during it,
    scaled by the speed they show; `unscaled_s` keeps the measured time."""
    step["unscaled_s"] = step["latency_s"] - math.fsum(probes_s)
    step["latency_s"] = step["unscaled_s"] * (
        speed_factor(probes_s, launch.PROBE_LOOPS) if probes_s else 1.0)
    return step


# --- statistics --------------------------------------------------------------


def nearest_rank(n: int, p: float) -> int:
    """1-based nearest-rank position of the p-th percentile among n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p: float) -> float:
    return sorted(values)[nearest_rank(len(values), p) - 1]


def tail_percentile(n: int):
    """The highest of PERCENTILES with at least ten samples beyond it, or None."""
    ok = [p for p in PERCENTILES if n - nearest_rank(n, p) >= 10]
    return ok[-1] if ok else None


def gmean(values) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


# --- the benchmark -----------------------------------------------------------


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool,
                 sizes: str):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace, self.sizes = seconds, trace, sizes
        self.size = SIZES[sizes][workload]
        self.work = root / ".perfbench" / f"work-{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)  # reuse bytecode, as an install does
        self.attempted = self.failed = 0
        self.wrong: list[str] = []
        self.crashes: list[str] = []
        self.report: dict = {}
        if workload == "rank-queries":
            self.report["failures"] = dict.fromkeys(
                ("empty_word_defect", "other", "predicted_empty_word_defect"), 0)

    # set-up --------------------------------------------------------------

    def setup_once(self):
        """Generate inputs and check tables, then one untimed warm-up command.
        Returns the plan and the steps' timings; each step is scaled by
        probes taken in the process that did it, like a command."""
        probes: list[float] = []
        t0 = time.perf_counter()
        with launch.sampling(probes):
            shutil.rmtree(self.work, ignore_errors=True)
            self.work.mkdir(parents=True)
            if self.workload != "rank-queries":
                plan = {"ops": cli_ops(self.workload, self.seed, self.size, self.work)}
        steps = [scale({"latency_s": time.perf_counter() - t0}, probes)]
        if self.workload == "rank-queries":
            plan, proc = self.worker({"mode": "plan", "seed": self.seed, **self.size})
            steps.append(scale(proc, plan.pop("probes_s")))
        steps.append(self.run_cli(["gamma", *GZ5], "warmup"))
        if steps[-1]["exit"] != 0:
            raise Abort(f"warm-up command failed:\n{steps[-1]['stderr']}")
        return plan, steps

    def setup(self):
        self.setup_times, self.setup_raw = [], []
        for _ in range(SETUP_REPEATS):
            plan, steps = self.setup_once()
            self.setup_times.append(math.fsum(step["latency_s"] for step in steps))
            self.setup_raw.append(math.fsum(step["unscaled_s"] for step in steps))
        return plan

    # checks --------------------------------------------------------------

    def check_op(self, op: dict, exit_code, error: str, digests: dict) -> None:
        self.attempted += 1
        if exit_code != 0 or "Traceback" in error:
            self.failed += 1
            self.crashes.append(f"{op['name']}: exit {exit_code}: {error[-400:]}")
            return
        text = Path(op["out"]).read_text(encoding="utf-8")
        problems = CHECKS[op["name"]](text, op["check"])
        digest = hashlib.sha256("\n".join(data_rows(text)).encode()).hexdigest()
        if digests.setdefault(op["name"], digest) != digest:
            problems.append(f"{op['name']}: output differs between identical commands")
        if problems:
            self.failed += 1
            self.wrong += problems

    def check_answers(self, queries: list, answers: list, failures: dict) -> None:
        """Check answers against the tables; tally failures by kind into `failures`."""
        for (key, f, expected, empty), answer in zip(queries, answers):
            self.attempted += 1
            predicted = empty and self.plan["defect"][key]
            failures["predicted_empty_word_defect"] += predicted
            if isinstance(answer, str):
                self.failed += 1
                if predicted and answer.startswith("ValueError"):
                    failures["empty_word_defect"] += 1
                else:
                    failures["other"] += 1
                    self.crashes.append(f"query {key}: {answer}")
            elif answer != expected:
                self.failed += 1
                self.wrong.append(f"query {key} f={f!r}: got {answer}, expected {expected}")

    def check_digests(self, digests: dict) -> None:
        self.report["digests"] = digests
        if self.seed != DEFAULT_SEED or self.sizes != "full":
            return
        expected = json.loads((HERE / "expected.json").read_text())["digests"][self.workload]
        for name, digest in digests.items():
            if expected.get(name) not in (None, digest):
                self.wrong.append(f"{name}: data rows differ from the recorded digest")
                self.failed += 1

    # timed mode ----------------------------------------------------------

    def run_cli(self, args: list[str], name: str) -> dict:
        """Run one command through launch.py.  Its latency, less the probes,
        is scaled by the speed they show; `unscaled_s` keeps the measured one."""
        samples = self.work / f"{name}.speed.json"
        samples.unlink(missing_ok=True)
        res = run_child(cli_argv(args, samples), self.env, self.work / f"{name}.log")
        return scale(res, json.loads(samples.read_text()) if samples.exists() else [])

    def timed_cli(self, ops: list[dict]) -> dict:
        lat: dict[str, list[float]] = {op["name"]: [] for op in ops}
        raw: dict[str, list[float]] = {op["name"]: [] for op in ops}
        walls, walls_raw, rss, digests = [], [], 0.0, {}
        deadline = time.perf_counter() + self.seconds
        while True:
            t0 = time.perf_counter()
            results = [self.run_cli(op["argv"], op["name"]) for op in ops]
            walls.append(math.fsum(res["latency_s"] for res in results))
            walls_raw.append(math.fsum(res["unscaled_s"] for res in results))
            for op, res in zip(ops, results):
                failed_before = self.failed
                self.check_op(op, res["exit"], res["stderr"], digests)
                if self.failed == failed_before:
                    lat[op["name"]].append(res["latency_s"])
                    raw[op["name"]].append(res["unscaled_s"])
                rss = max(rss, res["rss_mb"])
            now = time.perf_counter()
            if now + (now - t0) > deadline:  # another pass would overrun
                break
        self.check_digests(digests)
        medians = [self.timing(f"{name}_s", xs, "s", raw[name]) for name, xs in lat.items() if xs]
        return self.end_to_end(walls, [m * 1e3 for m in medians], rss, walls_raw)

    def timed_queries(self, plan: dict) -> dict:
        spec = {"mode": "queries", "alphabets": plan["alphabets"],
                "queries": plan["queries"], "seconds": self.seconds}
        res, proc = self.worker(spec)
        raw: dict[str, list[float]] = {}
        scaled: dict[str, list[float]] = {}
        sweep_raw, sweep_scaled, probes = [], [], []
        for sw in res["sweeps"]:
            self.check_answers(plan["queries"], sw["answers"], self.report["failures"])
            probes += sw["probes_s"]
            # probes ran in the same process just before and just after each
            # window of queries; the faster one is the less disturbed estimate
            pr = sw["probes_s"]
            every = worker.PROBE_EVERY
            windows = [speed_factor([min(pr[i // every], pr[i // every + 1])], worker.PROBE_LOOPS)
                       for i in range(len(plan["queries"]))]
            sweep_raw.append(math.fsum(sw["latencies_s"]))
            sweep_scaled.append(math.fsum(map(operator.mul, windows, sw["latencies_s"])))
            for (key, *_), answer, t, k in zip(plan["queries"], sw["answers"],
                                               sw["latencies_s"], windows):
                if not isinstance(answer, str):
                    raw.setdefault(key, []).append(t * 1e3)
                    scaled.setdefault(key, []).append(k * t * 1e3)
        every = [t for xs in scaled.values() for t in xs]
        every_raw = [t for xs in raw.values() for t in xs]
        tail = tail_percentile(len(every))
        for p in sorted(({50, tail} | ({95} if len(every) >= 200 else set())) - {None}):
            self.timing(f"query_p{p:g}_ms", [percentile(every, p)], "ms",
                        [percentile(every_raw, p)], n=len(every))
        medians = [self.timing(f"query_{key}_p50_ms", scaled[key], "ms", raw[key])
                   for key in scaled]
        self.timing("probe_s", probes, "s")
        return self.end_to_end(sweep_scaled, medians, proc["rss_mb"], sweep_raw)

    def timing(self, name: str, values, unit: str, raw=None, n=None) -> float:
        """Record the median of the samples (and of the unscaled ones, if scaled)."""
        value = statistics.median(values)
        self.report[name] = {"value": value, "unit": unit, "n": n or len(values)}
        if raw is not None:
            self.report[name]["unscaled"] = statistics.median(raw)
        return value

    def end_to_end(self, walls, op_medians_ms, rss_mb, walls_raw=None) -> dict:
        if not op_medians_ms:
            raise Abort("every operation failed; nothing to time")
        setup = self.timing("setup_s", self.setup_times, "s", self.setup_raw)
        wall = self.timing("wall_s", walls, "s", walls_raw)
        self.report["fail_frac"] = {"value": self.failed / self.attempted, "unit": "ratio",
                                    "n": self.attempted}
        return {
            "setup_s": setup,
            "wall_s": wall,
            "op_gmean_ms": gmean(op_medians_ms),
            "peak_rss_mb": rss_mb,
        }

    # traced mode ---------------------------------------------------------

    def worker(self, spec: dict):
        plan_path, result_path = self.work / "plan.json", self.work / "result.json"
        plan_path.write_text(json.dumps(spec))
        proc = run_child([sys.executable, str(HERE / "worker.py"), str(plan_path),
                          str(result_path)], self.env, self.work / "worker.log")
        if proc["exit"] != 0:
            raise Abort(f"benchmark worker failed:\n{proc['stderr']}")
        return json.loads(result_path.read_text()), proc

    def traced(self, plan: dict) -> dict:
        if "ops" in plan:
            res, _ = self.worker({"mode": "trace", "ops": plan["ops"]})
            digests: dict = {}
            for op, st in zip(plan["ops"], res["statuses"]):
                self.check_op(op, st["exit"], st["error"] or "", digests)
            self.check_digests(digests)
            in_bytes = sum(os.path.getsize(p) for op in plan["ops"] for p in op["inputs"])
            out_bytes = sum(os.path.getsize(op["out"]) for op in plan["ops"]
                            if os.path.exists(op["out"]))
        else:
            res, _ = self.worker({"mode": "trace", "alphabets": plan["alphabets"],
                                  "queries": plan["queries"]})
            self.check_answers(plan["queries"], res["answers"], self.report["failures"])
            in_bytes = out_bytes = 0
        spans = res["spans"]
        self_s = self_times(spans)
        counts = span_counts(spans)
        wall = res["traced_wall_s"]
        gap = self_s.pop("run", 0.0)
        if abs(sum(self_s.values()) + gap - wall) > 1e-6 * max(1.0, wall):
            raise Abort("span arithmetic does not account for the traced wall time")
        self.report["spans"] = spans
        m = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in LAYERS}
        m.update(res["work"])
        m.update({
            "cli.import_s": res["import_s"],
            "cli.in_bytes": in_bytes,
            "cli.out_bytes": out_bytes,
            "pyramid.rank.calls": counts.get("pyramid.rank", (0, 0))[0],
            "pyramid.rank.failed": counts.get("pyramid.rank", (0, 0))[1],
            "pyramid.q_recursive.calls": counts.get("pyramid.q_recursive", (0, 0))[0],
            "trace.wall_s": wall,
            "trace.gap_s": gap,
            "trace.overhead_s": wall - res["untraced_wall_s"],
        })
        return m

    # running --------------------------------------------------------------

    def run(self) -> dict:
        try:
            self.plan = plan = self.setup()
            if self.trace:
                values = self.traced(plan)
            elif self.workload == "rank-queries":
                values = self.timed_queries(plan)
            else:
                values = self.timed_cli(plan["ops"])
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return values


def provenance(root: Path, args, sizes: dict) -> dict:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10).stdout.split()
        commit = top[1] if len(top) == 2 and Path(top[0]) == root else "unknown"
    except OSError:
        commit = "unknown"
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": args.sizes, "size": sizes,
        "commit": commit, "python": platform.python_version(), "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def metric_specs(trace: bool) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sizes", choices=tuple(SIZES), default="full",
                    help="'tiny' is for the smoke test only")
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        if not (root / "src" / "zipfmonkey" / "cli.py").is_file():
            raise Abort(f"no zipfmonkey sources under {root / 'src'}; run from a checkout root")
        sys.path.insert(0, str(root / "src"))
        units = metric_specs(bool(args.trace))
        bench = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace), args.sizes)
        values = bench.run()
    except Abort as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record = {"provenance": provenance(root, args, bench.size), "report": bench.report,
              "wrong": bench.wrong, "crashes": bench.crashes}
    out_dir = root / ".perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))

    print("# " + json.dumps(record["provenance"]))
    for key, item in bench.report.items():
        if isinstance(item, dict) and "unit" in item:
            raw = f", unscaled {item['unscaled']:.6g}" if "unscaled" in item else ""
            print(f"{key} = {item['value']:.6g} {item['unit']} (n={item['n']}{raw})")
    for key in ("failures", "digests"):
        if key in bench.report:
            print(f"{key} = {json.dumps(bench.report[key])}")
    for line in bench.wrong + bench.crashes:
        print(f"! {line}")
    result = {
        "correct": not bench.wrong,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
