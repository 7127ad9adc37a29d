"""Alternating pairs of benchmark runs of two checkouts, and the gain rule
on each end-to-end metric:

    python3 tools/bench_pairs.py --a PARENT --b CHANGE --workload stream \\
        --pairs 10 --seconds 25 [--seed 1] [--out FILE]

Pair i runs `perfbench/run.py --workload W --seed (seed + i) --seconds S
--trace 0` of each checkout, each with its own runner and from its own
directory, one after the other: A first in even pairs, B first in odd
ones. For each end-to-end metric that A's `BENCHMARK.json` declares, the
tool prints both sides' medians and quartiles, the pairs B wins (ties count
for neither side), and two verdicts for B against A:

* `gain`: B wins at least 9 pairs in 10, and the medians differ in B's
  favour by more than A's interquartile range;
* `within_bound`: B's median is no worse than A's by more than the
  metric's bound.

It also prints each side's attempted and failed operations and whether
every run was correct, and whether the two sides agree: in each pair, B's
operation counts and artifact digests (`detail.counts`, `detail.digests`)
must equal A's, since both ran one seed; the keys that differ are printed.
`--out` writes every pair's results, the verdicts and `agree` as one JSON
object. Runners start with bytecode writing off, so
the tool writes nothing under either checkout's `perfbench/`; use fresh
copies of the committed files (`git archive`), since a checkout holding old
bytecode there measures differently.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence


def quartiles(values: Sequence[float]) -> List[float]:
    """[Q1, Q3] by the inclusive method; both the value itself for one value."""
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Dict:
    """The gain rule and the regression bound for B against A over the
    pairs (a[i], b[i]); `better` is "lower" or "higher", `bound` the share
    by which B's median may be worse than A's."""
    if len(a) != len(b) or not a:
        raise ValueError("need the same positive number of runs on each side")
    sign = 1 if better == "lower" else -1
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    losses = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    a_median, b_median = statistics.median(a), statistics.median(b)
    a_q, b_q = quartiles(a), quartiles(b)
    a_iqr = a_q[1] - a_q[0]
    gain = sign * (a_median - b_median)  # positive when B's median is better
    return {
        "pairs": len(a),
        "a_median": a_median,
        "a_quartiles": a_q,
        "b_median": b_median,
        "b_quartiles": b_q,
        "change_pct": 100 * (b_median - a_median) / a_median if a_median else None,
        "b_wins": wins,
        "b_losses": losses,
        "a_iqr": a_iqr,
        "gain": 10 * wins >= 9 * len(a) and gain > a_iqr,
        "within_bound": -gain <= bound * abs(a_median),
        "a_values": list(a),
        "b_values": list(b),
    }


def disagreements(a: Dict, b: Dict) -> List[str]:
    """The `detail.counts` and `detail.digests` keys on which run `b`
    differs from run `a`, as "counts.<key>" or "digests.<key>"; a key that
    one side lacks differs."""
    out = []
    for section in ("counts", "digests"):
        x, y = a["detail"][section], b["detail"][section]
        out += [f"{section}.{k}" for k in sorted(x.keys() | y.keys()) if k not in x or k not in y or x[k] != y[k]]
    return out


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> Dict:
    """The result object of one `perfbench/run.py` run of `checkout`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{checkout}: perfbench/run.py exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return {"detail": json.loads(lines[-2])["detail"], **json.loads(lines[-1])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True, help="the baseline checkout, e.g. the parent commit")
    parser.add_argument("--b", type=Path, required=True, help="the checkout measured against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="the seed of pair 0; pair i uses seed + i")
    parser.add_argument("--out", type=Path, help="write every pair and the verdicts here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    a_dir, b_dir = args.a.resolve(), args.b.resolve()
    spec = json.loads((a_dir / "BENCHMARK.json").read_text())["end_to_end"]

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("a", "b") if i % 2 == 0 else ("b", "a")
        results = {side: run_benchmark(a_dir if side == "a" else b_dir, args.workload, seed, args.seconds)
                   for side in order}
        differ = disagreements(results["a"], results["b"])
        pairs.append({"seed": seed, "first": order[0], "differ": differ, **results})
        print(f"pair {i + 1}/{args.pairs} seed {seed}, {order[0].upper()} first: "
              + ", ".join(f"{m['name']} {results['a']['metrics'][m['name']]['value']:.4g} -> "
                          f"{results['b']['metrics'][m['name']]['value']:.4g}" for m in spec)
              + (f"; B differs in {', '.join(differ)}" if differ else "; counts and digests agree"),
              file=sys.stderr)

    verdicts = {}
    for metric in spec:
        name = metric["name"]
        a = [p["a"]["metrics"][name]["value"] for p in pairs]
        b = [p["b"]["metrics"][name]["value"] for p in pairs]
        verdicts[name] = verdict(a, b, metric["better"], metric["bound"])
    sides = {
        side: {
            "correct": all(p[side]["correct"] for p in pairs),
            "attempted": sum(p[side]["attempted"] for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs),
        }
        for side in ("a", "b")
    }
    for name, v in verdicts.items():
        print(f"{args.workload} {name}: A median {v['a_median']:.4g} [{v['a_quartiles'][0]:.4g}, "
              f"{v['a_quartiles'][1]:.4g}], B median {v['b_median']:.4g} [{v['b_quartiles'][0]:.4g}, "
              f"{v['b_quartiles'][1]:.4g}] ({v['change_pct']:+.1f}%), B wins {v['b_wins']} of {v['pairs']}, "
              f"gain {'met' if v['gain'] else 'not met'}, {'within' if v['within_bound'] else 'outside'} bound")
    for side, s in sides.items():
        print(f"{side.upper()}: correct {s['correct']}, failed {s['failed']} of {s['attempted']}")
    agree = not any(p["differ"] for p in pairs)
    print("counts and digests agree in every pair" if agree else "counts and digests differ: "
          + "; ".join(f"seed {p['seed']}: {', '.join(p['differ'])}" for p in pairs if p["differ"]))
    if args.out is not None:
        report = {
            "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed> "
                       f"--seconds {args.seconds:g} --trace 0",
            "workload": args.workload,
            "a": str(a_dir),
            "b": str(b_dir),
            "sides": sides,
            "agree": agree,
            "verdicts": verdicts,
            "pairs": [{"seed": p["seed"], "first": p["first"], "differ": p["differ"],
                       **{side: {"metrics": {k: v["value"] for k, v in p[side]["metrics"].items()},
                                 "correct": p[side]["correct"], "failed": p[side]["failed"],
                                 "repetitions": len(p[side]["detail"]["repetitions"])}
                          for side in ("a", "b")}}
                      for p in pairs],
        }
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0 if sides["a"]["correct"] and sides["b"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
