"""Scenario runner, adversarial fault injection, dataset replay, and
benchmark reports.

The attack surface realizes the liveness and consistency case analyses:
prover faults and relay-chain stake withholding for liveness; a tampering
forgery corpus (payload mutation, proof reuse, header forgery, stale-epoch
replay, bitmap inflation of the claimed signer weight) and validator
collusion for consistency. Zero forgeries may be accepted: each one changes
what the honest bundle binds, so an accepted forgery is a breach. Expected
verdicts are computed from the weights actually corrupted, so discrete
stake granularity never skews a case.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace as dc_replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from .chain import AssetPayload, Chain, ChainConfig, CrossChainTx, quorum_reached
from .costs import baseline_gates, item_dicts, split_gates
from .economics import DegradationReport, StakeLedger, degradation_report
from .lightclient import hlc_setup, hlc_verify, lc_setup, lc_verify, public_inputs
from .mos import MosService, compute_fee
from .prover import (
    CountingBackend,
    ProofBundle,
    Prover,
    TransparentBackend,
    UnsatisfiedStatement,
    ZkProof,
    statement_for_header,
)
from .relay import ICTX_TAG, HopRecord, RelayEnvironment, decode_ctx, deployment_plan
from .scenario import DatasetError, DatasetRow, ProverSpec, Scenario, parse_dataset, synthetic_workload
from .trace import Key, NonceTable, event_lines

LIVENESS_CASES = ("liveness-prover-fault", "liveness-stake-withholding")
CONSISTENCY_CASES = ("consistency-tampering-prover", "consistency-stake-collusion")
ALL_CASES = LIVENESS_CASES + CONSISTENCY_CASES

FORGERY_STRATEGIES = (
    "payload-mutation",
    "proof-reuse",
    "header-forgery",
    "stale-epoch-replay",
    "bitmap-inflation",
)


def backend_for(scenario: Scenario):
    key = hashlib.sha256(f"relaysim-backend/{scenario.seed}".encode()).digest()
    if scenario.backend == "counting":
        return CountingBackend(key, scenario.gate_table)
    return TransparentBackend(key)


def build_environment(scenario: Scenario) -> Tuple[RelayEnvironment, MosService]:
    env = RelayEnvironment(scenario.relay_chain, backend_for(scenario), scenario.gas_table)
    for cfg in scenario.chains:
        env.add_chain(cfg)
    for spec in scenario.provers:
        env.add_prover(spec.name, spec.profile)
    for chain_id, fraction in scenario.faults.withhold:
        env.host(chain_id).chain.withhold_fraction(fraction)
    mos = MosService(env, scenario.pricing)
    return env, mos


def _submit_stream(env: RelayEnvironment, mos: MosService, scenario: Scenario, stream) -> NonceTable:
    """Submit each (source, dest, payload) of `stream` through the service
    as it is read; returns each key's asset amount (0 for a message)."""
    values = NonceTable()
    for src, dst, payload in stream:
        amount = payload.amount if isinstance(payload, AssetPayload) else 0
        fee = compute_fee(amount, scenario.pricing)
        values[mos.message_out(src, dst, payload, fee_token="MAPO", fee_paid=fee)] = amount
    return values


def _dataset_stream(rows: List[DatasetRow]) -> Iterator[Tuple[int, int, AssetPayload]]:
    """Each row as (source, dest, payload), in order; a row is dropped from
    `rows` as it is read."""
    rows.reverse()
    while rows:
        row = rows.pop()
        yield row.src_chain, row.dst_chain, AssetPayload(token=row.token, amount=row.amount)


# ---------------------------------------------------------------------------
# run


@dataclass
class RunResult:
    scenario: str
    seed: int
    submitted: int
    confirmed: int
    stalled: List[Tuple[int, int]]
    payload_violations: List[Tuple[int, int]]
    values: Mapping[Key, int]  # each key's asset amount
    env: RelayEnvironment
    mos: MosService

    @property
    def ok(self) -> bool:
        return not self.stalled and not self.payload_violations

    def summary(self) -> Dict:
        reasons: Dict[str, int] = {}
        for rejection in self.env.rejections:
            reasons[rejection.reason] = reasons.get(rejection.reason, 0) + 1
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "submitted": self.submitted,
            "confirmed": self.confirmed,
            "stalled": [list(k) for k in self.stalled],
            "payload_violations": [list(k) for k in self.payload_violations],
            "rejections": dict(sorted(reasons.items())),
            "relay_height": self.env.rc.chain.height,
            "rounds": self.env.round,
            "ok": self.ok,
        }


def run(scenario: Scenario, outdir: Optional[Path] = None) -> RunResult:
    if scenario.workload.kind == "dataset":
        rows = parse_dataset(scenario.workload.path)
        known = {c.chain_id for c in scenario.chains}
        problems = [
            f"line {row.line}: unknown chain {cid}"
            for row in rows
            for cid in (row.src_chain, row.dst_chain)
            if cid not in known
        ]
        if problems:
            raise DatasetError(problems)
        stream = _dataset_stream(rows)
    else:
        stream = synthetic_workload(scenario)
    env, mos = build_environment(scenario)
    values = _submit_stream(env, mos, scenario, stream)
    _, stalled = env.run_until_complete(env.submitted, scenario.horizon_rounds)
    result = RunResult(
        scenario=scenario.name,
        seed=scenario.seed,
        submitted=len(env.submitted),
        confirmed=len(env.final_confirmations()),
        stalled=stalled,
        payload_violations=env.payload_conservation_violations(),
        values=values,
        env=env,
        mos=mos,
    )
    if outdir is not None:
        write_artifacts(outdir, result)
    return result


def write_artifacts(outdir: Path, result: RunResult, extra: Optional[Dict] = None) -> None:
    """Write the run's artifacts, each `.jsonl` file one line at a time."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    encode = json.JSONEncoder(sort_keys=True).encode
    _write_lines(outdir / "trace.jsonl", event_lines(result.env.trace.events))
    _write_lines(outdir / "receipts.jsonl", _receipt_lines(result.env.receipts_log, encode))
    records = result.mos.records
    _write_lines(outdir / "records.jsonl", (encode(records[key].to_dict()) + "\n" for key in sorted(records)))
    summary = result.summary()
    if extra:
        summary.update(extra)
    (outdir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    with open(path, "w") as fh:
        fh.writelines(lines)


def _receipt_lines(log: List[Dict], encode) -> Iterator[str]:
    """Each receipts-log entry as its JSON line, with its items spelled out;
    an entry equal to an earlier one, (key, value) pair for pair, repeats
    that entry's line."""
    lines: Dict[tuple, str] = {}
    for entry in log:
        pairs = tuple(entry.items())
        line = lines.get(pairs)
        if line is None:
            line = lines[pairs] = encode({**entry, "items": item_dicts(entry["items"])}) + "\n"
        yield line


# ---------------------------------------------------------------------------
# Attack verdicts.


@dataclass(frozen=True)
class AttackVerdict:
    case: str
    description: str
    expected_breach: bool
    observed_breach: bool
    details: Dict

    @property
    def ok(self) -> bool:
        return self.expected_breach == self.observed_breach

    def to_dict(self) -> Dict:
        return {
            "case": self.case,
            "description": self.description,
            "expected_breach": self.expected_breach,
            "observed_breach": self.observed_breach,
            "ok": self.ok,
            "details": self.details,
        }


def attack_liveness(
    scenario: Scenario,
    honest_provers: int = 1,
    silent_provers: int = 0,
    withhold: Optional[Dict[int, float]] = None,
    count: int = 50,
) -> AttackVerdict:
    """Liveness under prover faults (case 1) and stake withholding (case 2).

    The expected verdict uses the weight actually withheld: production stalls
    exactly when the remaining weight cannot reach the vote threshold.
    """
    withhold = withhold or {}
    provers = tuple(
        [ProverSpec(name=f"honest-{i}", profile="honest") for i in range(honest_provers)]
        + [ProverSpec(name=f"silent-{i}", profile="silent") for i in range(silent_provers)]
    )
    wl = dc_replace(scenario.workload, kind="synthetic", count=count)
    faults = dc_replace(scenario.faults, withhold=tuple(sorted(withhold.items())))
    variant = dc_replace(scenario, provers=provers, workload=wl, faults=faults)
    env, mos = build_environment(variant)

    quorum_lost = False
    withheld_detail = {}
    for chain_id, fraction in faults.withhold:  # applied by build_environment
        chain = env.host(chain_id).chain
        total, withheld = chain.validator_set(chain.current_epoch).total_weight, chain.withheld_weight
        quorum_lost |= not quorum_reached(total - withheld, total, chain.config.vote_threshold)
        withheld_detail[str(chain_id)] = {
            "requested_fraction": fraction,
            "withheld_weight": withheld,
            "total_weight": total,
        }

    _submit_stream(env, mos, variant, synthetic_workload(variant))
    _, stalled = env.run_until_complete(env.submitted, variant.horizon_rounds)

    expected_breach = honest_provers == 0 or quorum_lost
    case = LIVENESS_CASES[1] if withhold else LIVENESS_CASES[0]
    return AttackVerdict(
        case=case,
        description=(
            f"{honest_provers} honest / {silent_provers} silent provers, "
            f"withhold={withhold}, {count} transactions"
        ),
        expected_breach=expected_breach,
        observed_breach=bool(stalled),
        details={
            "submitted": len(env.submitted),
            "confirmed": len(env.final_confirmations()),
            "stalled": len(stalled),
            "withheld": withheld_detail,
        },
    )


# ---------------------------------------------------------------------------
# Consistency case 1: the tampering-prover forgery corpus.


def _flip_byte(data: bytes, rng: random.Random) -> bytes:
    i = rng.randrange(len(data))
    return data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1 :]


class ForgeryCorpus:
    """Builds tampered relay bundles from harvested honest material.

    `stale` bundles reference headers from an epoch the light clients have
    already moved past; `live` bundles reference current-epoch headers, so
    their rejections isolate the tampered field.
    """

    def __init__(self, env: RelayEnvironment, rng: random.Random):
        self.env = env
        self.rng = rng
        self.observer = Prover("corpus-observer", env.backend, "honest")
        env.add_observer(self.observer)  # it harvests source blocks after rounds release others
        self.live: List[ProofBundle] = []
        self.stale: List[ProofBundle] = []
        self._live_digests: List[bytes] = []  # header digests of `live`, in step

    def harvest(self, into: List[ProofBundle]) -> int:
        found = 0
        for cid in sorted(self.env.chains):
            chain = self.env.chains[cid]
            for block, leaf in self.observer.monitor(chain):
                try:
                    decode_ctx(block.receipts[leaf].payload)
                except ValueError:
                    continue
                into.append(self.observer.ctx_bundle(chain, block, leaf))
                found += 1
        return found

    def _hash_algo(self, bundle: ProofBundle) -> str:
        return self.env.chains[bundle.origin_chain].config.hash_algo

    def _header_digest(self, bundle: ProofBundle) -> bytes:
        return bundle.header.digest(self._hash_algo(bundle))

    def _digests_of_live(self) -> List[bytes]:
        """The header digest of each live bundle; the pool is only appended to."""
        digests = self._live_digests
        digests.extend(self._header_digest(b) for b in self.live[len(digests) :])
        return digests

    def forge(self, strategy: str) -> ProofBundle:
        rng = self.rng
        if strategy == "stale-epoch-replay":
            return rng.choice(self.stale)
        base = rng.choice(self.live)
        if strategy == "payload-mutation":
            return dc_replace(base, receipt_payload=_flip_byte(base.receipt_payload, rng))
        if strategy == "proof-reuse":
            own = self._header_digest(base)
            donors = [b for b, d in zip(self.live, self._digests_of_live()) if d != own]
            donor = rng.choice(donors) if donors else rng.choice(self.stale)
            # a donor path equal to the base's own (two one-receipt blocks
            # both have the empty path) would be the honest proof
            if rng.random() < 0.5 and donor.merkle_proof != base.merkle_proof:
                return dc_replace(base, merkle_proof=donor.merkle_proof)
            return dc_replace(base, zk_proof=donor.zk_proof)
        if strategy == "header-forgery":
            fake_root = hashlib.sha256(rng.randbytes(16)).digest()
            header = dc_replace(base.header, receipt_root=fake_root)
            if rng.random() < 0.5:
                # honest proof kept: it binds the original header digest
                return dc_replace(base, header=header)
            # consistent public inputs for the forged header, forged attestation
            honest = base.zk_proof.publics
            publics = public_inputs(
                header,
                honest.commitment,
                honest.threshold,
                self._hash_algo(base),
                honest.claimed_weight,
            )
            forged = ZkProof(
                backend=base.zk_proof.backend, attestation=rng.randbytes(32), publics=publics
            )
            return dc_replace(base, header=header, zk_proof=forged)
        if strategy == "bitmap-inflation":
            # inflate the claimed quorum weight, keeping the honest attestation
            publics = base.zk_proof.publics
            inflated = dc_replace(
                publics, claimed_weight=publics.claimed_weight + 1 + rng.randrange(5)
            )
            return dc_replace(base, zk_proof=dc_replace(base.zk_proof, publics=inflated))
        raise ValueError(f"unknown forgery strategy {strategy!r}")


def harvested_corpus(
    scenario: Scenario, honest_count: int = 20
) -> Tuple[RelayEnvironment, ForgeryCorpus]:
    """An environment whose honest waves confirmed in two epochs, and a
    corpus holding the first wave's bundles as stale and the second's as
    live forgery material."""
    env, mos = build_environment(scenario)
    corpus = ForgeryCorpus(env, random.Random(scenario.seed ^ 0xC0FFEE))

    wave = dc_replace(scenario.workload, kind="synthetic", count=honest_count)
    stream = list(synthetic_workload(dc_replace(scenario, workload=wave)))
    half = max(2, honest_count // 2)

    # wave 1 confirms in epoch 0; its bundles become the stale pool
    _submit_stream(env, mos, scenario, stream[:half])
    env.step()
    corpus.harvest(corpus.stale)
    # advance every source one epoch so the relay clients move past epoch 0;
    # a block made here is not read for confirmations, so it must hold no record
    for cid in sorted(env.chains):
        chain = env.chains[cid]
        if chain.pending_count:
            raise RuntimeError(f"chain {cid} still has pending records before the epoch advance")
        target = (chain.current_epoch + 1) * chain.config.epoch_size
        while chain.height < target:
            chain.produce_block()
    env.run(2)

    # wave 2 confirms in epoch 1; its bundles are live forgery material
    _submit_stream(env, mos, scenario, stream[half:])
    env.step()
    corpus.harvest(corpus.live)
    env.run(2)

    if not corpus.live or not corpus.stale:
        raise RuntimeError("forgery corpus failed to harvest honest material")
    return env, corpus


def attack_consistency(
    scenario: Scenario,
    forgeries: int = 1000,
    honest_count: int = 20,
) -> AttackVerdict:
    """Case 1: a tampering prover floods the relay chain with forged bundles.
    Zero forgeries may be accepted: every forgery differs from the honest
    bundle it was made from, so one the relay client accepts, fresh or not,
    is a breach. Honest traffic stays payload-conserved."""
    env, corpus = harvested_corpus(scenario, honest_count)
    accepted_at_relay = 0
    per_strategy: Dict[str, int] = {s: 0 for s in FORGERY_STRATEGIES}
    reasons: Dict[str, int] = {}
    for i in range(forgeries):
        strategy = FORGERY_STRATEGIES[i % len(FORGERY_STRATEGIES)]
        bundle = corpus.forge(strategy)
        per_strategy[strategy] += 1
        _, result, _ = env.rc.relay_receive(bundle)
        if result.ok:
            accepted_at_relay += 1
        else:
            reasons[result.reason.value] = reasons.get(result.reason.value, 0) + 1
    env.run(scenario.horizon_rounds)

    finals = env.final_confirmations()
    forged_finals = [k for k in finals if k not in env.submitted]
    violations = env.payload_conservation_violations()
    observed_breach = bool(forged_finals or violations or accepted_at_relay)
    return AttackVerdict(
        case=CONSISTENCY_CASES[0],
        description=f"tampering prover, {forgeries} forgeries across {len(FORGERY_STRATEGIES)} strategies",
        expected_breach=False,
        observed_breach=observed_breach,
        details={
            "attempted": forgeries,
            "per_strategy": per_strategy,
            "rejection_reasons": dict(sorted(reasons.items())),
            "accepted_at_relay": accepted_at_relay,
            "forged_final_confirmations": len(forged_finals),
            "payload_violations": len(violations),
            "honest_confirmed": len(finals),
        },
    )


# ---------------------------------------------------------------------------
# Consistency case 2: colluding relay-chain validators.


@dataclass(frozen=True)
class CollusionOutcome:
    bundle: Optional[ProofBundle]
    prover_refused: bool
    colluding_weight: int
    total_weight: int


def forge_relay_confirmation(
    env: RelayEnvironment, colluding_fraction: float, fake_ctx: CrossChainTx
) -> CollusionOutcome:
    """Fabricate a relay-chain confirmation signed by colluding validators
    holding at most `colluding_fraction` of the stake. The statement becomes
    cryptographically true once the colluders control a quorum, so the honest
    backend attests it; below the quorum it refuses."""
    rc_chain = env.rc.chain
    host = env.hosts[fake_ctx.dest_chain]
    epoch = host.clients[env.rc_id].epoch
    vset = rc_chain.validator_set(epoch)

    budget = colluding_fraction * vset.total_weight
    colluders = set()
    acc = 0
    for entry in vset.entries:
        if acc + entry.weight > budget:
            continue
        colluders.add(entry.pubkey_bytes)
        acc += entry.weight
    if not colluders:
        return CollusionOutcome(None, True, 0, vset.total_weight)

    # the colluders' fork of the block after the epoch's boundary: not a
    # boundary block, so its signing set is this epoch's `vset`
    bitmap = tuple(e.pubkey_bytes in colluders for e in vset.entries)
    record = HopRecord(ICTX_TAG, fake_ctx.origin_chain, fake_ctx)
    block = rc_chain.assemble_block(epoch * rc_chain.config.epoch_size + 1, [record], bitmap)
    try:
        zk = env.backend.prove(statement_for_header(rc_chain, block.header))
    except UnsatisfiedStatement:
        return CollusionOutcome(None, True, acc, vset.total_weight)
    receipt = block.receipts[0]
    bundle = ProofBundle(
        kind="ctx",
        origin_chain=rc_chain.config.chain_id,
        header=block.header,
        zk_proof=zk,
        merkle_proof=block.tree.prove(0),
        receipt_payload=receipt.payload,
        receipt_hash=receipt.tx_hash,
    )
    return CollusionOutcome(bundle, False, acc, vset.total_weight)


def attack_collusion(scenario: Scenario, colluding_fraction: float) -> AttackVerdict:
    """Case 2: forging succeeds exactly when the colluders reach a quorum,
    demonstrating the two-thirds bound is tight in-model."""
    env, _ = build_environment(scenario)
    env.run(1)
    dest = scenario.chains[0].chain_id
    fake_ctx = CrossChainTx(
        dest_chain=dest,
        payload=AssetPayload(token="FORGED", amount=10**9),
        origin_chain=scenario.chains[1].chain_id,
        nonce=999_999_999,
    )
    outcome = forge_relay_confirmation(env, colluding_fraction, fake_ctx)
    if outcome.bundle is not None:  # delivered and swept in the next round, as an honest bundle is
        env.transmit(outcome.bundle, dest)
        env.step()
    accepted = env.trace.has_stage(fake_ctx.key, "verify_dc")
    expected_breach = quorum_reached(
        outcome.colluding_weight, outcome.total_weight, env.rc.chain.config.vote_threshold
    )
    return AttackVerdict(
        case=CONSISTENCY_CASES[1],
        description=f"colluding relay validators at fraction {colluding_fraction}",
        expected_breach=expected_breach,
        observed_breach=accepted,
        details={
            "colluding_weight": outcome.colluding_weight,
            "total_weight": outcome.total_weight,
            "prover_refused": outcome.prover_refused,
            "forged_key_confirmed": env.trace.has_stage(fake_ctx.key, "confirm_dc"),
        },
    )


def attack_suite(scenario: Scenario, forgeries: int = 200, kind: str = "all") -> List[AttackVerdict]:
    """The theorem cases of `kind` ("liveness", "consistency" or "all");
    coverage of the selected cases is asserted here."""
    rc_id = scenario.relay_chain.chain_id
    verdicts = []
    expected: Tuple[str, ...] = ()
    if kind in ("liveness", "all"):
        verdicts += [
            attack_liveness(scenario, honest_provers=1, silent_provers=1, count=20),
            attack_liveness(scenario, honest_provers=0, silent_provers=2, count=5),
            attack_liveness(scenario, honest_provers=1, withhold={rc_id: 0.4}, count=5),
        ]
        expected += LIVENESS_CASES
    if kind in ("consistency", "all"):
        verdicts += [
            attack_consistency(scenario, forgeries=forgeries, honest_count=10),
            attack_collusion(scenario, colluding_fraction=0.75),
            attack_collusion(scenario, colluding_fraction=0.5),
        ]
        expected += CONSISTENCY_CASES
    missing = set(expected) - {v.case for v in verdicts}
    if missing:
        raise AssertionError(f"attack corpus does not cover: {sorted(missing)}")
    return verdicts


# ---------------------------------------------------------------------------
# replay and bench


def replay(
    dataset_path, scenario: Scenario, outdir: Optional[Path] = None
) -> Tuple[RunResult, DegradationReport]:
    wl = dc_replace(scenario.workload, kind="dataset", path=str(dataset_path))
    result = run(dc_replace(scenario, workload=wl))
    ledgers = scenario.ledgers() or [
        StakeLedger.from_total(scenario.relay_chain.chain_id, 7_000_000)
    ]
    report = degradation_report(result.values, ledgers)
    if outdir is not None:
        write_artifacts(Path(outdir), result, extra={"degradation": report.to_dict()})
    return result, report


def bench(scenario: Scenario, validators: int = 100) -> Dict:
    """Gas, circuit-gate, and deployment-complexity tables."""
    table = scenario.gas_table
    gate_table = scenario.gate_table
    backend = backend_for(scenario)

    cfg = ChainConfig(
        chain_id=900,
        epoch_size=10,
        weights=(1,) * validators,
        key_namespace="bench",
    )
    chain = Chain(cfg)
    chain.submit_tx(chain.make_tx(901, AssetPayload(token="USDC", amount=100)))
    block, header = chain.produce_block()
    message = block.receipts[0]
    merkle_proof = chain.receipt_proof(header.height, 0)
    prover = Prover("bench-prover", backend)
    zk = prover.zk_proof_for(chain, header)

    genesis = chain.validator_set(0)
    normal = lc_setup(cfg.chain_id, genesis, cfg.epoch_size, cfg.vote_threshold, table)
    hybrid = hlc_setup(cfg.chain_id, genesis, cfg.epoch_size, cfg.vote_threshold, table)
    normal_verify = lc_verify(normal.state, message, header, merkle_proof, table)
    hybrid_verify = hlc_verify(hybrid.state, message, header, merkle_proof, zk, table, backend)
    assert normal_verify.ok and hybrid_verify.ok

    gas = {
        "validators": validators,
        "normal_setup": normal.receipt.total,
        "hybrid_setup": hybrid.receipt.total,
        "normal_verify": normal_verify.receipt.total,
        "hybrid_verify": hybrid_verify.receipt.total,
        "verify_ratio": hybrid_verify.receipt.total / normal_verify.receipt.total,
    }
    gates = {
        "signers": [4, 8, 16, 32],
        "split": [split_gates(gate_table, n) for n in (4, 8, 16, 32)],
        "baseline": [baseline_gates(gate_table, n) for n in (4, 8, 16, 32)],
        "split_baseline_ratio_at_8": split_gates(gate_table, 8) / baseline_gates(gate_table, 8),
    }
    deployment = []
    for n in range(2, 11):
        pairwise = deployment_plan(n, "pairwise", table, validators)
        relayed = deployment_plan(n, "relayed", table)
        deployment.append(
            {
                "chains": n,
                "pairwise_lcs": pairwise.lc_instances,
                "pairwise_gas": pairwise.deployment_gas,
                "relayed_lcs": relayed.lc_instances,
                "relayed_gas": relayed.deployment_gas,
            }
        )
    return {"gas": gas, "gates": gates, "deployment": deployment}


def render_bench(report: Dict) -> str:
    lines = []
    gas = report["gas"]
    lines.append(f"On-chain gas ({gas['validators']} validators, one verification)")
    lines.append(f"  {'client':<10} {'setup':>12} {'verify':>12}")
    lines.append(f"  {'normal':<10} {gas['normal_setup']:>12,} {gas['normal_verify']:>12,}")
    lines.append(f"  {'hybrid':<10} {gas['hybrid_setup']:>12,} {gas['hybrid_verify']:>12,}")
    lines.append(f"  hybrid/normal verify ratio: {gas['verify_ratio']:.3f}")
    lines.append("")
    gates = report["gates"]
    lines.append("Off-chain circuit size (gates)")
    lines.append(f"  {'signers':>8} {'split':>14} {'baseline':>14}")
    for n, s, b in zip(gates["signers"], gates["split"], gates["baseline"]):
        lines.append(f"  {n:>8} {s:>14,} {b:>14,}")
    lines.append(f"  split/baseline at 8 signers: {gates['split_baseline_ratio_at_8']:.3f}")
    lines.append("")
    lines.append("Deployment complexity")
    lines.append(
        f"  {'N':>3} {'pairwise LCs':>13} {'pairwise gas':>15} {'relayed LCs':>12} {'relayed gas':>13}"
    )
    for row in report["deployment"]:
        lines.append(
            f"  {row['chains']:>3} {row['pairwise_lcs']:>13} {row['pairwise_gas']:>15,}"
            f" {row['relayed_lcs']:>12} {row['relayed_gas']:>13,}"
        )
    return "\n".join(lines) + "\n"
