"""One benchmark repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload bulk --seed 1 [--trace]

The inputs are generated from the seed before the clock starts. The worker
then imports relaysim from `src/` of the checkout, builds the environment,
runs the timed phase, sweeps the outputs for correctness, writes the run's
artifacts with `harness.write_artifacts` and prints one JSON object with
the measurements, operation counts and artifact digests as its last line.
With `--trace` it also writes its spans to
`.perfbench/spans/<workload>-seed<n>.jsonl.gz`.
`perfbench/run.py` starts one worker per repetition, one after another.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from probes import Probes

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"

# Host time is the worker's CPU time. The worker is single-threaded and
# compute-bound, so on a core of its own this equals wall time; on a shared
# host it leaves out the time other tenants hold the core, which is most of
# the run-to-run spread there.
clock = time.process_time
clock_ns = time.process_time_ns


@dataclass(frozen=True)
class Shape:
    chains: int  # source/destination chains, relayed through one relay chain
    validators: int  # per chain, the relay chain included
    epoch_size: int
    waves: int  # rounds that each get a fresh wave of transactions
    wave_size: int  # transactions submitted before each of those rounds
    forgeries: int = 0  # forged bundles (forgery-flood only)


# Sizes are chosen so one repetition takes a few seconds on a 2-core host;
# see perfbench/README.md for why each workload exists.
SHAPES = {
    "bulk": Shape(chains=3, validators=4, epoch_size=10, waves=1, wave_size=2000),
    "stream": Shape(chains=2, validators=4, epoch_size=4, waves=8, wave_size=3),
    "committee-64": Shape(chains=2, validators=64, epoch_size=10, waves=1, wave_size=40),
    "forgery-flood": Shape(
        chains=2, validators=4, epoch_size=4, waves=1, wave_size=8, forgeries=10000
    ),
}


def make_inputs(shape: Shape, seed: int):
    """(source, destination, kind, value) rows; stdlib only, before the clock.

    Sources take turns, so every source chain gets the same share of each
    wave whatever the seed: the seed varies destinations, amounts, call data
    and validator keys, not how many blocks must be signed and proven.
    """
    rng = random.Random(seed)
    ids = list(range(1, shape.chains + 1))
    rows = []
    for i in range(shape.waves * shape.wave_size):
        src = ids[i % len(ids)]
        dst = rng.choice([c for c in ids if c != src])
        if i % 2 == 0:
            rows.append((src, dst, "asset", rng.randint(1, 100_000)))
        else:
            rows.append((src, dst, "message", rng.randbytes(8)))
    return rows


def scenario_dict(name: str, shape: Shape, seed: int) -> dict:
    def chain(chain_id):
        return {
            "chain_id": chain_id,
            "validators": shape.validators,
            "epoch_size": shape.epoch_size,
            "key_namespace": f"perfbench/{seed}/{chain_id}",
        }

    return {
        "name": f"perfbench-{name}",
        "seed": seed,
        "relay_chain": chain(100),
        "chains": [chain(i) for i in range(1, shape.chains + 1)],
        "provers": [{"name": "prover-0"}, {"name": "prover-1"}],
        "horizon_rounds": 10,
    }


def import_relaysim():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import relaysim
    from relaysim import harness, scenario  # noqa: F401  (loads every module)

    if not Path(relaysim.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"relaysim imported from {relaysim.__file__}, not from {src}")


def submit(service, scenario, rows, keys, values):
    from relaysim.chain import AssetPayload, MessagePayload
    from relaysim.mos import compute_fee

    for src, dst, kind, value in rows:
        if kind == "asset":
            payload, amount = AssetPayload(token="USDC", amount=value), value
        else:
            payload, amount = MessagePayload(call_data=value), 0
        fee = compute_fee(amount, scenario.pricing)
        key = service.message_out(src, dst, payload, fee_token="MAPO", fee_paid=fee)
        keys.append(key)
        values[f"{key[0]}:{key[1]}"] = amount


class Run:
    """What one workload hands back to the common sweep."""

    def __init__(self):
        self.setup_end = 0.0
        self.timed_s = 0.0
        self.units_ms = []  # one host time per unit of the timed phase
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.checks = {}
        self.result = None  # harness.RunResult for write_artifacts


def run_transactions(name: str, shape: Shape, seed: int, rows, probes: Probes) -> Run:
    """bulk, stream, committee-64: waves of transactions, then a drain.

    A round is one `run_until_complete(keys, 1)` call: the completion scan
    of the trace log plus one `step()`. Waves are open-loop in logical
    rounds (sent whatever is still in flight); the driver is closed-loop in
    host time, since it waits for each round.
    """
    from relaysim import harness
    from relaysim.scenario import scenario_from_dict

    out = Run()
    scenario = scenario_from_dict(scenario_dict(name, shape, seed))
    env, service = harness.build_environment(scenario)
    out.setup_end = clock()

    keys, values = [], {}
    done = False
    start = clock()
    for w in range(shape.waves):
        submit(service, scenario, rows[w * shape.wave_size : (w + 1) * shape.wave_size], keys, values)
        done = _round(env, keys, out.units_ms)
    drained = 0
    while not done and drained < scenario.horizon_rounds:
        done = _round(env, keys, out.units_ms)
        drained += 1
    out.timed_s = clock() - start

    want = {f"{o}:{n}" for o, n in keys}
    completed = set(env.trace.completed_keys())
    stalled = sorted(tuple(int(p) for p in k.split(":")) for k in want - completed)
    violations = env.payload_conservation_violations()
    out.ops = len(want & completed)
    out.attempted = len(keys)
    out.failed = len(set(stalled) | set(violations))
    out.checks = {
        "submitted": len(keys),
        "confirmed": out.ops,
        "stalled": len(stalled),
        "payload_violations": len(violations),
        "rounds": env.round,
        "rejections": len(env.rejections),
    }
    out.result = harness.RunResult(
        scenario=scenario.name, seed=seed, submitted=len(keys), confirmed=len(completed),
        stalled=stalled, payload_violations=violations, values=values, env=env, mos=service,
    )
    return out


def _round(env, keys, units_ms) -> bool:
    t = clock_ns()
    done, _ = env.run_until_complete(keys, 1)
    units_ms.append((clock_ns() - t) / 1e6)
    return done


def run_flood(name: str, shape: Shape, seed: int, rows, probes: Probes) -> Run:
    """forgery-flood: honest warm-up and corpus in setup, then the flood.

    The warm-up follows `harness.attack_consistency`: wave 1 confirms in
    epoch 0 and becomes the stale pool, every source advances one epoch,
    wave 2 confirms in epoch 1 and becomes the live pool. The timed phase
    sends every pre-built forgery through `RelayChain.relay_receive`.
    """
    from relaysim import harness
    from relaysim.scenario import scenario_from_dict

    out = Run()
    scenario = scenario_from_dict(scenario_dict(name, shape, seed))
    env, service = harness.build_environment(scenario)
    corpus = harness.ForgeryCorpus(env, random.Random(seed ^ 0xC0FFEE))
    keys, values = [], {}
    half = len(rows) // 2
    submit(service, scenario, rows[:half], keys, values)
    env.step()
    corpus.harvest(corpus.stale)
    for cid in sorted(env.chains):
        chain = env.chains[cid]
        target = (chain.current_epoch + 1) * chain.config.epoch_size
        while chain.height < target:
            chain.produce_block()
    env.run(2)
    submit(service, scenario, rows[half:], keys, values)
    env.step()
    corpus.harvest(corpus.live)
    env.run(2)
    if not corpus.live or not corpus.stale:
        raise RuntimeError("forgery corpus failed to harvest honest material")
    strategies = harness.FORGERY_STRATEGIES
    bundles = [corpus.forge(strategies[i % len(strategies)]) for i in range(shape.forgeries)]
    out.setup_end = clock()

    accepted_keys = []  # keys of forgeries queued as fresh intermediate records
    reasons = {}
    start = clock()
    for i, bundle in enumerate(bundles):
        probes.op = f"forgery:{i}"
        t = clock_ns()
        ctx, result, fresh = env.rc.relay_receive(bundle)
        out.units_ms.append((clock_ns() - t) / 1e6)
        if fresh:
            accepted_keys.append(ctx.key)
        if not result.ok:
            reasons[result.reason.value] = reasons.get(result.reason.value, 0) + 1
    probes.op = None
    out.timed_s = clock() - start

    env.run(scenario.horizon_rounds)
    finals = env.final_confirmations()
    forged_finals = {k for k in finals if k not in env.submitted}
    violations = env.payload_conservation_violations()
    completed = set(env.trace.completed_keys())
    stalled = sorted(k for k in keys if f"{k[0]}:{k[1]}" not in completed)
    out.ops = len(bundles)
    out.attempted = len(bundles) + len(keys)
    # one failure per forgery accepted as fresh or finally confirmed, and per
    # honest transaction that stalled or lost its payload
    out.failed = (
        len(accepted_keys)
        + len(forged_finals - set(accepted_keys))
        + len(set(stalled) | (set(violations) & set(keys)))
    )
    out.checks = {
        "forgeries": len(bundles),
        "accepted_fresh": len(accepted_keys),
        "forged_final_confirmations": len(forged_finals),
        "rejection_reasons": dict(sorted(reasons.items())),
        "honest_submitted": len(keys),
        "honest_stalled": len(stalled),
        "payload_violations": len(violations),
        "live_pool": len(corpus.live),
        "stale_pool": len(corpus.stale),
    }
    out.result = harness.RunResult(
        scenario=scenario.name, seed=seed, submitted=len(keys), confirmed=len(completed),
        stalled=stalled, payload_violations=violations, values=values, env=env, mos=service,
    )
    return out


def artifact_digests(result) -> dict:
    from relaysim import harness

    SCRATCH.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="artifacts-", dir=SCRATCH))
    try:
        harness.write_artifacts(outdir, result)
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())
        }
    finally:
        shutil.rmtree(outdir)


def percentile(values, q: int) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="record spans at every layer")
    args = parser.parse_args(argv)

    shape = SHAPES[args.workload]
    rows = make_inputs(shape, args.seed)

    t0 = clock()
    import_relaysim()
    t_probe = clock()
    probes = Probes(traced=args.trace)
    probes.install()
    probe_s = clock() - t_probe  # not part of the program's set-up

    driver = run_flood if args.workload == "forgery-flood" else run_transactions
    run = driver(args.workload, shape, args.seed, rows, probes)
    digests = artifact_digests(run.result)
    t_end = clock()

    from relaysim.crypto import bls

    env = run.result.env
    counts = probes.counts()
    counts["crypto.bls.verify_cache_hits"] = (
        bls._pairing_equal_cached.cache_info().hits + bls._pairing_product_cached.cache_info().hits
    )
    counts["gas_total"] = sum(e["total"] for e in env.receipts_log if "operation" in e)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": run.setup_end - t0 - probe_s,
        "timed_s": run.timed_s,
        "total_s": t_end - t0 - probe_s,
        "ops": run.ops,
        "ops_per_s": run.ops / run.timed_s,
        "units": len(run.units_ms),
        "unit_ms_p50": statistics.median(run.units_ms),
        "unit_ms_p99": percentile(run.units_ms, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": run.attempted,
        "failed": run.failed,
        "checks": run.checks,
        "counts": counts,
        "digests": digests,
        "coverage_problems": probes.coverage(args.workload),
    }
    if args.trace:
        layers = probes.layers()
        layers["trace.TraceLog.events"] = len(env.trace.events)
        confirmed = max(1, run.result.confirmed)
        layers["relay.decode_ctx.per_confirmed_tx"] = layers["relay.decode_ctx.calls"] / confirmed
        layers["relay.transmit.per_tx"] = (
            layers["relay.RelayEnvironment.transmit.calls"] / max(1, run.result.submitted)
        )
        record["layers"] = layers
        write_spans(SCRATCH / "spans" / f"{args.workload}-seed{args.seed}.jsonl.gz", probes)
    print(json.dumps(record, sort_keys=True))
    return 0


def write_spans(path: Path, probes: Probes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    ops = probes.resolved_ops()
    with gzip.open(path, "wt") as fh:
        for (label, start, end, parent, _, note), op in zip(probes.spans, ops):
            fh.write(json.dumps([label, start, end, parent, op, note]) + "\n")


if __name__ == "__main__":
    sys.exit(main())
