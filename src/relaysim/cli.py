"""Command line interface: run / attack / replay / bench / plan.

Exit status is nonzero whenever a run violates an acceptance property
(stalls, payload divergence, or an attack verdict that contradicts the
expected case analysis).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace as dc_replace
from pathlib import Path

from . import harness
from .relay import deployment_plan
from .scenario import DatasetError, ScenarioError, default_scenario, load_scenario


def _load(args) -> "Scenario":
    if args.scenario:
        scenario = load_scenario(args.scenario)
    else:
        scenario = default_scenario()
    if args.seed is not None:
        scenario = dc_replace(scenario, seed=args.seed)
    return scenario


def _cmd_run(args) -> int:
    scenario = _load(args)
    result = harness.run(scenario, outdir=args.out)
    print(json.dumps(result.summary(), sort_keys=True, indent=2))
    return 0 if result.ok else 1


def _cmd_attack(args) -> int:
    verdicts = harness.attack_suite(_load(args), forgeries=args.forgeries, kind=args.kind)
    ok = True
    for v in verdicts:
        print(json.dumps(v.to_dict(), sort_keys=True))
        ok = ok and v.ok
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "attacks.jsonl", "w") as fh:
            for v in verdicts:
                fh.write(json.dumps(v.to_dict(), sort_keys=True) + "\n")
    return 0 if ok else 1


def _cmd_replay(args) -> int:
    from .economics import render_report

    scenario = _load(args)
    result, report = harness.replay(args.dataset, scenario, outdir=args.out)
    summary = result.summary()
    summary["degradation"] = report.to_dict()
    print(json.dumps(summary, sort_keys=True, indent=2))
    print(render_report(report), end="")
    return 0 if result.ok else 1


def _cmd_bench(args) -> int:
    scenario = _load(args)
    report = harness.bench(scenario)
    print(harness.render_bench(report), end="")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "bench.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    gas_ok = report["gas"]["verify_ratio"] <= 0.70
    ratio = report["gates"]["split_baseline_ratio_at_8"]
    gates_ok = 0.75 <= ratio <= 0.80
    if not (gas_ok and gates_ok):
        print("benchmark outside calibrated bands", file=sys.stderr)
        return 1
    return 0


def _cmd_plan(args) -> int:
    rows = []
    topologies = ("pairwise", "relayed") if args.topology == "both" else (args.topology,)
    for topology in topologies:
        plan = deployment_plan(args.chains, topology)
        rows.append(plan)
        print(
            f"{plan.topology:>9}: N={plan.n_chains} light clients={plan.lc_instances} "
            f"deployment gas={plan.deployment_gas:,}"
        )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        payload = [
            {
                "topology": p.topology,
                "chains": p.n_chains,
                "lc_instances": p.lc_instances,
                "deployment_gas": p.deployment_gas,
            }
            for p in rows
        ]
        (out / "plan.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaysim",
        description="Deterministic cross-chain relay simulator and benchmark harness.",
    )
    parser.add_argument("--scenario", help="scenario file (JSON or YAML)")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario end to end")
    p_run.add_argument("--out", help="artifact output directory")
    p_run.set_defaults(func=_cmd_run)

    p_attack = sub.add_parser("attack", help="run the adversarial case analyses")
    p_attack.add_argument("--kind", choices=("liveness", "consistency", "all"), default="all")
    p_attack.add_argument("--forgeries", type=int, default=200)
    p_attack.add_argument("--out", help="artifact output directory")
    p_attack.set_defaults(func=_cmd_attack)

    p_replay = sub.add_parser("replay", help="replay a transaction dataset")
    p_replay.add_argument("--dataset", required=True, help="CSV dataset file")
    p_replay.add_argument("--out", help="artifact output directory")
    p_replay.set_defaults(func=_cmd_replay)

    p_bench = sub.add_parser("bench", help="emit gas / gate / deployment tables")
    p_bench.add_argument("--out", help="artifact output directory")
    p_bench.set_defaults(func=_cmd_bench)

    p_plan = sub.add_parser("plan", help="deployment complexity for N chains")
    p_plan.add_argument("--chains", type=int, required=True)
    p_plan.add_argument("--topology", choices=("pairwise", "relayed", "both"), default="both")
    p_plan.add_argument("--out", help="artifact output directory")
    p_plan.set_defaults(func=_cmd_plan)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, DatasetError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
