#!/usr/bin/env python3
"""Smoke test of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/smoke.py

Checks the percentile rule, the self-time arithmetic, the speed scaling and
the side paths of the untraced replays on synthetic data, then runs every workload at tiny sizes in both modes and checks that every
metric BENCHMARK.json names is emitted with its unit, that outputs check
out, and that the only failures are the known empty-word rank queries.
Finally it checks that the benchmark refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import launch  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, self_times, span_counts  # noqa: E402


def check_percentiles() -> None:
    assert run.tail_percentile(19) is None
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(199) == 90
    assert run.tail_percentile(200) == 95
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(10_000) == 99.9
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 95) == 95
    assert run.percentile([3.0], 99) == 3.0


def check_self_times() -> None:
    # run [0, 10] > a [1, 4] > b [2, 3];  run > c [5, 9] (raised)
    spans = [
        ["run", 0.0, 10.0, None, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 2.0, 3.0, 1, None],
        ["c", 5.0, 9.0, 0, "ValueError"],
    ]
    st = self_times(spans)
    assert st == {"run": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}, st
    assert sum(st.values()) == 10.0
    assert span_counts(spans)["c"] == (1, 1)

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", "b", lambda x: x + 1)
    outer = tracer.wrap("outer", "a", lambda x: inner(x) * 2)
    with tracer.span("run"):
        assert outer(1) == 4
    st = self_times(tracer.spans)
    assert st == {"run": 2.0, "a": 2.0, "b": 1.0}, st
    assert [c[0] for c in tracer.calls] == ["inner", "outer"]


def check_tracer_restores() -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from zipfmonkey import pyramid

    original = pyramid.enumerate_levels
    with Tracer().installed():
        assert pyramid.enumerate_levels is not original
    assert pyramid.enumerate_levels is original


def check_speed_and_paths() -> None:
    reference = launch.PROBE_LOOPS * run.REFERENCE_LOOP_S
    assert run.speed_factor([reference], launch.PROBE_LOOPS) == 1.0
    assert run.speed_factor([reference / 2, reference * 2], launch.PROBE_LOOPS) == 1.25
    ops = [{"out": "w", "argv": ["simulate", "--out", "w"]},
           {"out": "c", "argv": ["compare", "--in", "w", "--out", "c"]}]
    moved = worker.untraced_paths(ops)
    assert [op["argv"] for op in moved] == [
        ["simulate", "--out", "w.untraced"],
        ["compare", "--in", "w.untraced", "--out", "c.untraced"]], moved
    assert ops[0]["argv"] == ["simulate", "--out", "w"]


def bench(*args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_workloads(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--sizes", "tiny", cwd=root)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, proc.stdout
            assert result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (workload, trace, set(want) ^ set(got))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            failures = next((json.loads(ln.split("=", 1)[1]) for ln in lines
                             if ln.startswith("failures = ")), {"empty_word_defect": 0, "other": 0})
            assert failures["other"] == 0, proc.stdout
            assert result["failed"] == failures["empty_word_defect"], proc.stdout
            print(f"ok {workload} trace={trace} attempted={result['attempted']} "
                  f"failed={result['failed']}")


def check_refuses_without_sources(root: Path) -> None:
    bare = root / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(root / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "sim-short", "--seed", "1", "--seconds", "1", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout


def main() -> None:
    root = Path.cwd()
    check_percentiles()
    check_self_times()
    check_tracer_restores()
    check_speed_and_paths()
    print("ok percentile rule, self-time arithmetic, tracer install/restore, speed scaling, "
          "untraced output paths")
    check_workloads(root)
    check_refuses_without_sources(root)
    print("ok refuses to run without sources")


if __name__ == "__main__":
    main()
