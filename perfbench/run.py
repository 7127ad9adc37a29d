"""relaysim benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload bulk --seed 1 --seconds 25 --trace 0

Every repetition runs in its own fresh, single-threaded interpreter
(`perfbench/worker.py`) with a fixed PYTHONHASHSEED, one after another, so no
process-global cache (the BLS verify LRU caches, the bn254 fixed-base tables)
carries over from one repetition to the next. Repetitions continue until
`--seconds` of measuring is used up: at least three, or with `--trace 1` at
least two untraced/traced pairs. Each end-to-end metric is the mean over
repetitions. The shared host alternates for tens of seconds between a fast
and a slow state, so a run's repetitions form two clusters: their median
jumps from one cluster to the other with the share of slow repetitions,
where their mean moves in proportion to it (perfbench/README.md has the
runs that show the mean is steadier).

With `--trace 0` the result carries the end-to-end metrics of untraced
repetitions. With `--trace 1` untraced and traced repetitions alternate and
the result carries the per-layer metrics of the traced ones (medians), plus
`trace.overhead_s`, the traced minus the untraced mean `total_s`, and the
untraced `run.ops_per_s` and `run.unit_ms_p50`, which carry no bound. The
metric names and units come from `BENCHMARK.json`; a declared metric that no
worker reports fails the run.

The benchmark fails (exit status 1, `"correct": false`) when any operation
fails its output check, when the operation counts or artifact digests differ
between repetitions, or when a probe misses one of the required aliases. It
fails without printing a result when a worker cannot run at all, for example
when `src/relaysim` is missing.

The last line of standard output is the result object; the line before it
holds the per-repetition detail (sample counts, counts, digests).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import SHAPES  # noqa: E402


def declared_metrics() -> dict:
    """The metric lists of `BENCHMARK.json`: {"end_to_end": [...], "per_layer": [...]}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: [(m["name"], m["unit"]) for m in spec[kind]] for kind in ("end_to_end", "per_layer")}


MIN_REPS = 3
MIN_TRACED_PAIRS = 2
HARD_LIMIT_S = 170  # a run must end within 180 s; workers are killed at this mark
LAST_START_S = 120  # start no repetition after this much of the run has passed


class WorkerFailed(RuntimeError):
    pass


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{workload} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repetitions(workload: str, seed: int, seconds: float, trace: bool):
    """Untraced (and, with trace, traced) records until the budget is spent."""
    plain, traced = [], []
    began = time.monotonic()
    durations = []
    while True:
        elapsed = time.monotonic() - began
        enough = (
            len(traced) >= MIN_TRACED_PAIRS if trace else len(plain) >= MIN_REPS
        )
        step = statistics.median(durations) if durations else 0.0
        if enough and (elapsed + step > seconds or elapsed > LAST_START_S):
            return plain, traced
        t = time.monotonic()
        plain.append(run_worker(workload, seed, False, began + HARD_LIMIT_S - t))
        if trace:
            traced.append(run_worker(workload, seed, True, began + HARD_LIMIT_S - time.monotonic()))
        durations.append(time.monotonic() - t)


def consistency_problems(records) -> list:
    problems = []
    first = records[0]
    for i, rec in enumerate(records[1:], start=2):
        for key in ("counts", "digests"):
            if rec[key] != first[key]:
                diff = sorted(k for k in set(rec[key]) | set(first[key]) if rec[key].get(k) != first[key].get(k))
                problems.append(f"repetition {i} {key} differ from repetition 1: {diff}")
    for i, rec in enumerate(records, start=1):
        for problem in rec["coverage_problems"]:
            problems.append(f"repetition {i}: {problem}")
        if rec["failed"]:
            problems.append(f"repetition {i}: {rec['failed']} of {rec['attempted']} operations failed")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="relaysim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Byte-compile once so no repetition pays for it; a user's installed
    # package is compiled too.
    src = ROOT / "src" / "relaysim"
    if not src.is_dir() or not compileall.compile_dir(src, quiet=1):
        print(f"cannot compile {src}", file=sys.stderr)
        return 2
    try:
        plain, traced = repetitions(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 2

    records = plain + traced
    problems = consistency_problems(records)
    declared = declared_metrics()
    metrics = {}
    if args.trace:
        for name, unit in declared["per_layer"]:
            if name == "trace.overhead_s":
                value = statistics.fmean(r["total_s"] for r in traced) - statistics.fmean(
                    r["total_s"] for r in plain
                )
            elif name.startswith("run."):
                value = statistics.fmean(r[name[len("run."):]] for r in plain)
            elif name in traced[0]["counts"]:
                value = traced[0]["counts"][name]
            elif name in traced[0]["layers"]:
                value = statistics.median(r["layers"][name] for r in traced)
            else:
                problems.append(f"BENCHMARK.json declares {name}, which no worker reports")
                continue
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, unit in declared["end_to_end"]:
            if name not in plain[0]:
                problems.append(f"BENCHMARK.json declares {name}, which no worker reports")
                continue
            metrics[name] = {"value": statistics.fmean(r[name] for r in plain), "unit": unit}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repetitions": [
            {
                k: r[k]
                for k in ("traced", "setup_s", "timed_s", "total_s", "ops", "ops_per_s", "units",
                          "unit_ms_p50", "unit_ms_p99", "peak_rss_mb")
            }
            for r in records
        ],
        "unit_samples_per_repetition": plain[0]["units"],
        "checks": plain[0]["checks"],
        "counts": plain[0]["counts"],
        "digests": plain[0]["digests"],
        "problems": problems,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
