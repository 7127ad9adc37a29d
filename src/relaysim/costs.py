"""Cost models: on-chain gas metering and off-chain circuit-gate counting.

Both tables are config-overridable. The gas defaults are calibrated so that
three anchors hold at once on a 100-validator workload: storing one validator
entry costs 1e5 gas, a full on-chain aggregate-signature verification lands
at ~1.0e6 gas, and the proof-offloaded verification lands at ~0.65e6 gas.
The gate defaults follow a two-regime aggregation model (a compact
single-window circuit up to `agg_window` signers, then fixed multi-window
machinery plus a per-signer slope) fitted minimax to reference circuit sizes
at 4/8/16/32 signers; max relative error of the fit is 3.3%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class GasCostTable:
    """Per-primitive gas constants (EVM-plausible, see README calibration note)."""

    sstore_word: int = 20_000
    sload_word: int = 800
    hash_op: int = 60
    g2_add: int = 4_620
    base_map: int = 3_000
    weight_step: int = 25
    pairing_base: int = 45_000
    pairing_check: int = 34_000
    snark_verify: int = 626_000
    merkle_level: int = 700
    call_overhead: int = 21_000
    validator_words: int = 5
    commitment_words: int = 5

    def __post_init__(self):
        units = dict(self.__dict__)
        for name, value in units.items():
            if value < 0:
                raise ValueError(f"gas constant {name} must be non-negative")
        object.__setattr__(self, "_units", units)  # label -> unit cost, built once
        # (operation, items) -> the one GasReceipt `GasMeter.receipt` gives for it
        object.__setattr__(self, "_receipts", {})

    def unit(self, label: str) -> int:
        try:
            return self._units[label]
        except KeyError:
            raise KeyError(f"unknown gas primitive {label!r}") from None


Items = Tuple[Tuple[str, int, int], ...]  # (label, count, unit cost)


def item_dicts(items: Items) -> List[Dict]:
    """The serialized form of receipt or gate-report items."""
    return [
        {"label": lbl, "count": count, "unit": unit, "subtotal": count * unit}
        for lbl, count, unit in items
    ]


@dataclass(frozen=True, slots=True)
class GasReceipt:
    operation: str
    items: Items
    # the sum of count * unit over `items`, made once
    total: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        total = 0
        for _, count, unit in self.items:  # a loop: cheaper than sum() over so few items
            total += count * unit
        object.__setattr__(self, "total", total)

    def count(self, label: str) -> int:
        return sum(count for lbl, count, _ in self.items if lbl == label)

    def to_dict(self) -> Dict:
        return {"operation": self.operation, "items": item_dicts(self.items), "total": self.total}


class GasMeter:
    """Instrumentation counter; one meter per metered light-client call."""

    def __init__(self, table: GasCostTable, operation: str):
        self.table = table
        self.operation = operation
        self._units = table._units
        self._counts: Dict[str, int] = {}  # label -> count, in first-charge order

    def charge(self, label: str, count: int = 1) -> None:
        if count < 0:
            raise ValueError("charge count must be non-negative")
        if count:
            if label not in self._units:
                raise KeyError(f"unknown gas primitive {label!r}")
            self._counts[label] = self._counts.get(label, 0) + count

    def receipt(self) -> GasReceipt:
        """The receipt of the charges so far: one shared object per distinct
        (operation, items) of this meter's table."""
        units = self._units
        items = tuple((label, count, units[label]) for label, count in self._counts.items())
        receipts = self.table._receipts
        receipt = receipts.get((self.operation, items))
        if receipt is None:
            receipt = receipts[self.operation, items] = GasReceipt(operation=self.operation, items=items)
        return receipt


def lc_setup_gas(table: GasCostTable, n_validators: int) -> int:
    """Full-set storage: n entries of `validator_words` words each."""
    return n_validators * table.validator_words * table.sstore_word


def hlc_setup_gas(table: GasCostTable) -> int:
    """Commitment-slot storage, independent of the validator count."""
    return table.commitment_words * table.sstore_word


# ---------------------------------------------------------------------------
# Circuit-gate model.


@dataclass(frozen=True)
class GateCostTable:
    """Constraint-count constants for the aggregate-signature circuit."""

    pairing_check: int = 180_000
    field_mul: int = 45
    b2g_muls_per_map: int = 1_000
    agg_window: int = 4
    agg_step_small: int = 112_500
    agg_step_multi: int = 1_354_000
    multiwindow_fixed: int = 3_903_000
    hash_gate: int = 1_500_000
    hash_invocations: int = 3

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if value < 0:
                raise ValueError(f"gate constant {name} must be non-negative")


@dataclass(frozen=True)
class GateReport:
    mode: str  # "split" | "baseline"
    signers: int
    items: Items

    @property
    def total(self) -> int:
        return sum(count * unit for _, count, unit in self.items)

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "signers": self.signers,
            "items": item_dicts(self.items),
            "total": self.total,
        }


def gate_report(table: GateCostTable, signers: int, mode: str = "split") -> GateReport:
    """Price one aggregate-signature verification circuit."""
    if signers < 1:
        raise ValueError("need at least one signer")
    if mode not in ("split", "baseline"):
        raise ValueError(f"unknown circuit mode {mode!r}")
    items = [
        ("pairing_check", 2, table.pairing_check),
        ("b2g_field_mul", 2 * table.b2g_muls_per_map, table.field_mul),
    ]
    if signers <= table.agg_window:
        items.append(("agg_step_small", signers, table.agg_step_small))
    else:
        items.append(("agg_step_multi", signers, table.agg_step_multi))
        items.append(("multiwindow_fixed", 1, table.multiwindow_fixed))
    if mode == "baseline":
        items.append(("in_circuit_hash", table.hash_invocations, table.hash_gate))
    return GateReport(mode=mode, signers=signers, items=tuple(items))


def split_gates(table: GateCostTable, signers: int) -> int:
    return gate_report(table, signers, "split").total


def baseline_gates(table: GateCostTable, signers: int) -> int:
    return gate_report(table, signers, "baseline").total
