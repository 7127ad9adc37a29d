"""Scenario configuration: chains, provers, workloads, fault injection,
cost-table overrides, and dataset replay rows.

Scenario files are JSON or YAML (by extension). Validation collects every
problem instead of stopping at the first; a value that is no number and a
section of the wrong shape are problems at their path too.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .chain import AssetPayload, ChainConfig, MessagePayload, Payload, parse_threshold
from .costs import GasCostTable, GateCostTable
from .economics import StakeLedger
from .mos import PricingConfig


class ScenarioError(ValueError):
    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("invalid scenario:\n" + "\n".join(f"  - {p}" for p in problems))


@dataclass(frozen=True)
class ProverSpec:
    name: str
    profile: str = "honest"


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str = "synthetic"  # synthetic | dataset
    count: int = 100
    pattern: str = "mixed"  # mixed | asset | message
    amount_min: int = 1
    amount_max: int = 1000
    token: str = "USDC"
    path: Optional[str] = None


@dataclass(frozen=True)
class FaultSpec:
    withhold: Tuple[Tuple[int, float], ...] = ()  # (chain id, stake fraction)


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    relay_chain: ChainConfig
    chains: Tuple[ChainConfig, ...]
    provers: Tuple[ProverSpec, ...]
    workload: WorkloadSpec
    horizon_rounds: int = 10
    backend: str = "transparent"  # transparent | counting
    gas_table: GasCostTable = field(default_factory=GasCostTable)
    gate_table: GateCostTable = field(default_factory=GateCostTable)
    pricing: PricingConfig = field(default_factory=PricingConfig)
    stakes: Tuple[Tuple[int, int], ...] = ()  # (chain id, total stake)
    faults: FaultSpec = field(default_factory=FaultSpec)

    def ledgers(self) -> List[StakeLedger]:
        return [StakeLedger.from_total(cid, total) for cid, total in self.stakes]


def _shaped(value, kind: type, default, path: str, problems: List[str]):
    """`value` when it is a `kind`, else `default` and a problem at `path`."""
    if isinstance(value, kind):
        return value
    problems.append(f"{path}: expected {'a mapping' if kind is dict else 'a list'}, got {value!r}")
    return default


def _number(convert, value, path: str, problems: List[str]):
    """convert(value), or None and a problem at `path` when it is no number,
    or, for `int`, a number with a fraction that `int` would cut."""
    try:
        if convert is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return convert(value)
    except (TypeError, ValueError):
        problems.append(f"{path}: expected {'an integer' if convert is int else 'a number'}, got {value!r}")
        return None


def _field(section: Dict, key: str, default: int, path: str, problems: List[str]) -> int:
    """section[key] as an int; `default` when it is absent or malformed."""
    value = _number(int, section.get(key, default), path, problems)
    return default if value is None else value


def _by_chain(raw, path: str, convert, problems: List[str]) -> Tuple[Tuple[int, object], ...]:
    """The sorted (chain id, value) entries of a mapping keyed by chain id;
    an entry whose id or value is malformed is a problem and is left out."""
    entries = []
    for k, v in _shaped(raw, dict, {}, path, problems).items():
        cid, value = _number(int, k, path, problems), _number(convert, v, f"{path}.{k}", problems)
        if cid is not None and value is not None:
            entries.append((cid, value))
    return tuple(sorted(entries))


def _chain_config(raw, problems: List[str], context: str, default_ns: str) -> Optional[ChainConfig]:
    if _shaped(raw, dict, None, context, problems) is None:
        return None
    found = len(problems)
    try:
        chain_id = _number(int, raw["chain_id"], f"{context}.chain_id", problems)
        if "weights" in raw:
            listed = _shaped(raw["weights"], list, [], f"{context}.weights", problems)
            weights = tuple(_number(int, w, f"{context}.weights[{i}]", problems) for i, w in enumerate(listed))
        else:
            weights = (1,) * _field(raw, "validators", 4, f"{context}.validators", problems)
        epoch_size = _field(raw, "epoch_size", 10, f"{context}.epoch_size", problems)
        if len(problems) > found:
            return None
        return ChainConfig(
            chain_id=chain_id,
            epoch_size=epoch_size,
            weights=weights,
            vote_threshold=parse_threshold(raw.get("vote_threshold", Fraction(2, 3))),
            rotation=raw.get("rotation", "identity"),
            hash_algo=raw.get("hash_algo", "sha256"),
            key_namespace=raw.get("key_namespace", f"{default_ns}/{raw.get('chain_id')}"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"{context}: {exc}")
        return None


def scenario_from_dict(raw: Dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError([f"scenario: expected a mapping, got {raw!r}"])
    problems: List[str] = []
    name = raw.get("name", "scenario")
    seed = _field(raw, "seed", 0, "seed", problems)

    rc_raw = raw.get("relay_chain")
    rc = None
    if rc_raw is None:
        problems.append("relay_chain: missing")
    else:
        rc = _chain_config(rc_raw, problems, "relay_chain", "rc")

    chains: List[ChainConfig] = []
    raw_chains = _shaped(raw.get("chains", []), list, None, "chains", problems)
    if raw_chains is not None and len(raw_chains) < 2:
        problems.append("chains: need at least one source/destination pair")
    for i, c in enumerate(raw_chains or []):
        cfg = _chain_config(c, problems, f"chains[{i}]", "chain")
        if cfg is not None:
            chains.append(cfg)
    ids = [c.chain_id for c in chains] + ([rc.chain_id] if rc else [])
    if len(set(ids)) != len(ids):
        problems.append("chains: duplicate chain ids")

    provers = []
    raw_provers = _shaped(raw.get("provers", [{"name": "prover-0"}]), list, [], "provers", problems)
    for i, p in enumerate(raw_provers):
        p = _shaped(p, dict, {}, f"provers[{i}]", problems)
        profile = p.get("profile", "honest")
        if profile not in ("honest", "silent"):
            problems.append(f"provers[{i}]: unknown profile {profile!r}")
        provers.append(ProverSpec(name=p.get("name", f"prover-{i}"), profile=profile))

    w = _shaped(raw.get("workload", {}), dict, {}, "workload", problems)
    workload = WorkloadSpec(
        kind=w.get("kind", "synthetic"),
        count=_field(w, "count", 100, "workload.count", problems),
        pattern=w.get("pattern", "mixed"),
        amount_min=_field(w, "amount_min", 1, "workload.amount_min", problems),
        amount_max=_field(w, "amount_max", 1000, "workload.amount_max", problems),
        token=w.get("token", "USDC"),
        path=w.get("path"),
    )
    if workload.kind not in ("synthetic", "dataset"):
        problems.append(f"workload: unknown kind {workload.kind!r}")
    if workload.kind == "dataset" and not workload.path:
        problems.append("workload: dataset kind requires a path")
    if workload.pattern not in ("mixed", "asset", "message"):
        problems.append(f"workload: unknown pattern {workload.pattern!r}")
    if workload.amount_min > workload.amount_max:
        problems.append("workload: amount_min exceeds amount_max")
    if workload.count < 0:
        problems.append(f"workload: count {workload.count} is negative")

    try:
        gas_table = GasCostTable().with_overrides(raw.get("gas_table", {}))
    except (TypeError, ValueError, KeyError) as exc:
        problems.append(f"gas_table: {exc}")
        gas_table = GasCostTable()
    try:
        gate_table = GateCostTable().with_overrides(raw.get("gate_table", {}))
    except (TypeError, ValueError, KeyError) as exc:
        problems.append(f"gate_table: {exc}")
        gate_table = GateCostTable()

    pricing_raw = _shaped(raw.get("pricing", {}), dict, {}, "pricing", problems)
    try:
        pricing = PricingConfig(
            k=parse_threshold(pricing_raw["k"]) if "k" in pricing_raw else Fraction(1, 40),
            base_fee_rc=_field(pricing_raw, "base_fee_rc", 1, "pricing.base_fee_rc", problems),
            base_fee_dc=_field(pricing_raw, "base_fee_dc", 1, "pricing.base_fee_dc", problems),
            fee_cap=_field(pricing_raw, "fee_cap", 1000, "pricing.fee_cap", problems),
        )
    except (TypeError, ValueError) as exc:
        problems.append(f"pricing: {exc}")
        pricing = PricingConfig()

    stakes = _by_chain(raw.get("stakes", {}), "stakes", int, problems)
    for cid, _ in stakes:
        if cid not in ids:
            problems.append(f"stakes: unknown chain {cid}")
    faults_raw = _shaped(raw.get("faults", {}), dict, {}, "faults", problems)
    faults = FaultSpec(withhold=_by_chain(faults_raw.get("withhold", {}), "faults.withhold", float, problems))
    for cid, fraction in faults.withhold:
        if cid not in ids:
            problems.append(f"faults.withhold: unknown chain {cid}")
        if not 0 <= fraction <= 1:
            problems.append(f"faults.withhold: fraction {fraction} for chain {cid} is outside [0, 1]")

    horizon = _field(raw, "horizon_rounds", 10, "horizon_rounds", problems)
    if horizon < 1:
        problems.append("horizon_rounds: must be positive")

    backend = raw.get("backend", "transparent")
    if backend not in ("transparent", "counting"):
        problems.append(f"backend: unknown kind {backend!r}")

    if problems:
        raise ScenarioError(problems)
    return Scenario(
        name=name,
        seed=seed,
        relay_chain=rc,
        chains=tuple(chains),
        provers=tuple(provers),
        workload=workload,
        horizon_rounds=horizon,
        backend=backend,
        gas_table=gas_table,
        gate_table=gate_table,
        pricing=pricing,
        stakes=stakes,
        faults=faults,
    )


def load_scenario(path) -> Scenario:
    path = Path(path)
    text = path.read_text()
    if path.suffix in (".yaml", ".yml"):
        import yaml

        raw = yaml.safe_load(text)
    else:
        raw = json.loads(text)
    return scenario_from_dict(raw)


def default_scenario(seed: int = 0, count: int = 100) -> Scenario:
    return scenario_from_dict(
        {
            "name": "default",
            "seed": seed,
            "relay_chain": {"chain_id": 100, "validators": 4, "epoch_size": 10},
            "chains": [
                {"chain_id": 1, "validators": 4, "epoch_size": 10},
                {"chain_id": 2, "validators": 4, "epoch_size": 10},
                {"chain_id": 3, "validators": 4, "epoch_size": 10},
            ],
            "provers": [{"name": "prover-0"}, {"name": "prover-1"}],
            "workload": {"kind": "synthetic", "count": count},
            "stakes": {"1": 7_000_000, "2": 7_000_000, "3": 7_000_000, "100": 7_000_000},
        }
    )


def completing_horizon(scenario: Scenario, count: int) -> int:
    """The `horizon_rounds` a run of `count` transactions submitted up front
    needs to confirm them all: the relay chain makes one block a round, a
    block holds at most `max_block_txs` records, and a transaction reaches
    its final confirmation in the round its relay block is made; one more
    round is the pipeline depth. When the relay chain's blocks are the only
    bound, a shorter horizon stalls with horizon × `max_block_txs` keys
    confirmed; small source blocks only delay keys that still confirm by
    the relay chain's last round."""
    per_block = min(c.max_block_txs for c in (scenario.relay_chain, *scenario.chains))
    return -(-count // per_block) + 1


# ---------------------------------------------------------------------------
# Workload generation and dataset replay rows.


def synthetic_workload(scenario: Scenario) -> List[Tuple[int, int, Payload]]:
    """Deterministic (source, dest, payload) stream from the scenario seed."""
    rng = random.Random(scenario.seed)
    ids = [c.chain_id for c in scenario.chains]
    out: List[Tuple[int, int, Payload]] = []
    for i in range(scenario.workload.count):
        src, dst = rng.sample(ids, 2)
        want_asset = scenario.workload.pattern == "asset" or (
            scenario.workload.pattern == "mixed" and i % 2 == 0
        )
        if want_asset:
            amount = rng.randint(scenario.workload.amount_min, scenario.workload.amount_max)
            payload: Payload = AssetPayload(token=scenario.workload.token, amount=amount)
        else:
            payload = MessagePayload(call_data=rng.randbytes(8))
        out.append((src, dst, payload))
    return out


@dataclass(frozen=True)
class DatasetRow:
    src_chain: int
    dst_chain: int
    start_ts: int
    end_ts: int
    token: str
    amount: int
    line: int  # the dataset file's line the row was read from

    def __post_init__(self):
        if self.end_ts < self.start_ts:
            raise ValueError("end timestamp precedes start timestamp")
        if self.amount < 0:
            raise ValueError("amount must be non-negative")


DATASET_COLUMNS = ("src_chain", "dst_chain", "start_ts", "end_ts", "token", "amount")


class DatasetError(ValueError):
    def __init__(self, problems: Sequence[str]):
        self.problems = list(problems)
        super().__init__("malformed dataset:\n" + "\n".join(f"  - {p}" for p in problems))


def parse_dataset(path) -> List[DatasetRow]:
    """Parse a replay dataset; every malformed row is reported with its line."""
    problems: List[str] = []
    rows: List[DatasetRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(["line 1: empty file"]) from None
        if tuple(h.strip() for h in header) != DATASET_COLUMNS:
            raise DatasetError(
                [f"line 1: expected header {','.join(DATASET_COLUMNS)}, got {','.join(header)}"]
            )
        end = reader.line_num  # the last file line read so far
        for row in reader:
            # a record starts on the line after the last one's end: quoted
            # fields may span lines, so records and lines need not agree
            lineno, end = end + 1, reader.line_num
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(DATASET_COLUMNS):
                problems.append(f"line {lineno}: expected {len(DATASET_COLUMNS)} fields, got {len(row)}")
                continue
            try:
                rows.append(
                    DatasetRow(
                        src_chain=int(row[0]),
                        dst_chain=int(row[1]),
                        start_ts=int(row[2]),
                        end_ts=int(row[3]),
                        token=row[4].strip(),
                        amount=int(row[5]),
                        line=lineno,
                    )
                )
            except ValueError as exc:
                problems.append(f"line {lineno}: {exc}")
    if problems:
        raise DatasetError(problems)
    return rows
