"""Scenario configuration: chains, provers, workloads, fault injection,
cost-table overrides, and dataset replay rows.

Scenario files are JSON or YAML (by extension). Every key is a field of the
spec dataclass its section builds, and a field left out takes its default; a
field set only in code, such as `ChainConfig.max_block_txs`, is no key. An
unknown key, a mistyped value and a section of the wrong shape are problems
at their path; validation collects every problem instead of stopping at the first.
"""

from __future__ import annotations

import csv
import functools
import json
import random
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, get_type_hints

from .chain import AssetPayload, ChainConfig, MessagePayload, Payload, parse_threshold, refuse
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

    def __post_init__(self):
        if self.profile not in ("honest", "silent"):
            raise ValueError(f"unknown profile {self.profile!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    kind: str = "synthetic"  # synthetic | dataset
    count: int = 100
    pattern: str = "mixed"  # mixed | asset | message
    amount_min: int = 1
    amount_max: int = 1000
    token: str = "USDC"
    path: Optional[str] = None

    def __post_init__(self):
        refuse(
            (self.kind not in ("synthetic", "dataset"), f"unknown kind {self.kind!r}"),
            (self.kind == "dataset" and not self.path, "dataset kind requires a path"),
            (self.pattern not in ("mixed", "asset", "message"), f"unknown pattern {self.pattern!r}"),
            (self.amount_min < 0, f"amount_min {self.amount_min} is negative"),
            (self.amount_min > self.amount_max, "amount_min exceeds amount_max"),
            (self.amount_max >= 1 << 64, f"amount_max {self.amount_max} does not fit in 64 bits"),
            (self.count < 0, f"count {self.count} is negative"),
        )


@dataclass(frozen=True)
class FaultSpec:
    withhold: Tuple[Tuple[int, float], ...] = ()  # (chain id, stake fraction)


@dataclass(frozen=True, kw_only=True)
class Scenario:
    name: str = "scenario"
    seed: int = 0
    relay_chain: ChainConfig
    chains: Tuple[ChainConfig, ...]
    provers: Tuple[ProverSpec, ...] = (ProverSpec("prover-0"),)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    horizon_rounds: int = 10
    backend: str = "transparent"  # transparent | counting
    gas_table: GasCostTable = field(default_factory=GasCostTable)
    gate_table: GateCostTable = field(default_factory=GateCostTable)
    pricing: PricingConfig = field(default_factory=PricingConfig)
    stakes: Tuple[Tuple[int, int], ...] = ()  # (chain id, total stake)
    faults: FaultSpec = field(default_factory=FaultSpec)

    def __post_init__(self):
        refuse(
            (self.horizon_rounds < 1, "horizon_rounds: must be positive"),
            (self.backend not in ("transparent", "counting"), f"backend: unknown kind {self.backend!r}"),
        )

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
    a bool, or, for `int`, a number with a fraction that `int` would cut."""
    try:
        if isinstance(value, bool) or (convert is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        return convert(value)
    except (TypeError, ValueError):
        problems.append(f"{path}: expected {'an integer' if convert is int else 'a number'}, got {value!r}")
        return None


def _by_chain(raw, path: str, convert, problems: List[str]) -> Tuple[Tuple[int, object], ...]:
    """The sorted (chain id, value) entries of a mapping keyed by chain id;
    an entry whose id or value is malformed is a problem and is left out."""
    entries = []
    for k, v in _shaped(raw, dict, {}, path, problems).items():
        cid, value = _number(int, k, path, problems), _number(convert, v, f"{path}.{k}", problems)
        if cid is not None and value is not None:
            entries.append((cid, value))
    return tuple(sorted(entries))


def _read(kind, value, path: str, problems: List[str]):
    """`value` read as a field of declared type `kind`; None and a problem
    at `path` when it is not one."""
    if kind is int:
        return _number(int, value, path, problems)
    if kind is Fraction:
        try:
            return parse_threshold(value)
        except (TypeError, ValueError, ZeroDivisionError):
            problems.append(f"{path}: expected a fraction, got {value!r}")
            return None
    if kind == Tuple[int, ...]:
        listed = _shaped(value, list, [], path, problems)
        return tuple(_number(int, v, f"{path}[{i}]", problems) for i, v in enumerate(listed))
    if kind == Tuple[Tuple[int, float], ...]:
        return _by_chain(value, path, float, problems)
    if kind in (str, Optional[str]):
        if isinstance(value, str) or (value is None and kind is not str):
            return value
        problems.append(f"{path}: expected a string, got {value!r}")
        return None
    raise TypeError(f"{path}: no scenario reader for {kind}")


@functools.cache  # per spec class: get_type_hints evaluates each annotation string on every call
def scenario_keys(cls) -> Dict[str, object]:
    """The keys of a section that builds `cls`, each field not set only in code, by type."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if f.init and not f.metadata.get("code_only")}


def _at(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _spec(cls, raw, path: str, problems: List[str], **given):
    """A `cls` read from the mapping `raw` at `path`, or None and problems:
    each key of `raw` is one of `scenario_keys(cls)`, read by its type, and a
    field `raw` leaves out takes its value from `given`, else its default.
    An unknown key is a problem but no value, so it keeps no spec from being
    built; each argument of a `ValueError` from the spec's checks is a
    problem at `path`."""
    if _shaped(raw, dict, None, path, problems) is None:
        return None
    keys, values = scenario_keys(cls), dict(given)
    problems.extend(f"{_at(path, key)}: unknown key" for key in raw if key not in keys)
    found = len(problems)
    for key, value in raw.items():
        if key in keys:
            values[key] = _read(keys[key], value, _at(path, key), problems)
    for f in fields(cls):
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            problems.append(f"{_at(path, f.name)}: missing")
    if len(problems) > found:
        return None
    try:
        return cls(**values)
    except ValueError as exc:
        problems.extend(f"{path}: {p}" if path else p for p in exc.args)
        return None


def _chain_config(raw, problems: List[str], path: str, default_ns: str) -> Optional[ChainConfig]:
    """A chain section: `validators: n` stands for n validators of weight 1,
    in place of `weights`, and the key namespace defaults to
    `<default_ns>/<chain_id>`."""
    given, counted = {}, True
    if isinstance(raw, dict):
        raw = dict(raw)
        given["key_namespace"] = f"{default_ns}/{raw.get('chain_id')}"
        if "validators" in raw:
            validators = _number(int, raw.pop("validators"), f"{path}.validators", problems)
            counted = validators is not None
            if "weights" in raw:
                problems.append(f"{path}: give validators or weights, not both")
            elif counted:
                given["weights"] = (1,) * validators
    config = _spec(ChainConfig, raw, path, problems, **given)
    return config if counted else None


def scenario_from_dict(raw: Dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError([f"scenario: expected a mapping, got {raw!r}"])
    problems: List[str] = []
    rest = dict(raw)  # the top-level keys left once the sections are read

    if "relay_chain" in rest:
        rc = _chain_config(rest.pop("relay_chain"), problems, "relay_chain", "rc")
    else:
        rc = None
        problems.append("relay_chain: missing")
    raw_chains = _shaped(rest.pop("chains", []), list, None, "chains", problems)
    if raw_chains is not None and len(raw_chains) < 2:
        problems.append("chains: need at least one source/destination pair")
    chains = [_chain_config(c, problems, f"chains[{i}]", "chain") for i, c in enumerate(raw_chains or [])]
    sections = {"relay_chain": rc, "chains": tuple(c for c in chains if c is not None)}
    ids = [c.chain_id for c in (rc, *sections["chains"]) if c is not None]
    if len(set(ids)) != len(ids):
        problems.append("chains: duplicate chain ids")

    if "provers" in rest:
        listed = _shaped(rest.pop("provers"), list, [], "provers", problems)
        sections["provers"] = tuple(
            _spec(ProverSpec, p, f"provers[{i}]", problems, name=f"prover-{i}") for i, p in enumerate(listed)
        )
    for key, kind in scenario_keys(Scenario).items():
        if key in rest and is_dataclass(kind):  # each section left that builds one spec
            sections[key] = _spec(kind, rest.pop(key), key, problems)
    if "stakes" in rest:
        sections["stakes"] = _by_chain(rest.pop("stakes"), "stakes", int, problems)

    for cid, _ in sections.get("stakes", ()):
        if cid not in ids:
            problems.append(f"stakes: unknown chain {cid}")
    for cid, fraction in getattr(sections.get("faults"), "withhold", ()):
        if cid not in ids:
            problems.append(f"faults.withhold: unknown chain {cid}")
        if not 0 <= fraction <= 1:
            problems.append(f"faults.withhold: fraction {fraction} for chain {cid} is outside [0, 1]")

    scenario = _spec(Scenario, rest, "", problems, **sections)
    if problems:
        raise ScenarioError(problems)
    return scenario


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


def synthetic_workload(scenario: Scenario) -> Iterator[Tuple[int, int, Payload]]:
    """Deterministic (source, dest, payload) stream from the scenario seed,
    each made when it is read."""
    rng = random.Random(scenario.seed)
    ids = [c.chain_id for c in scenario.chains]
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
        yield src, dst, payload


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
        if not 0 <= self.amount < 1 << 64:
            raise ValueError(f"amount {self.amount} is outside [0, 2^64)")


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
