"""Stake accounting and the inter-chain security degradation analysis.

Stakes and transaction values share one abstract value unit. A chain's BFT
security boundary is tau = 2S/3 of its total stake; a multi-chain network is
only as strong as the weakest boundary on the path, so a transaction whose
value exceeds min(tau) degrades effective security to its own value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple, Union

from .trace import Key, ctx_key_str


@dataclass(frozen=True)
class StakeLedger:
    chain_id: int
    stakes: Tuple[Tuple[str, int], ...]  # (validator label, stake)

    def __post_init__(self):
        if any(s < 0 for _, s in self.stakes):
            raise ValueError("stakes must be non-negative")

    @staticmethod
    def from_total(chain_id: int, total: int, validators: int = 1) -> "StakeLedger":
        base, rem = divmod(total, validators)
        stakes = tuple(
            (f"v{i}", base + (1 if i < rem else 0)) for i in range(validators)
        )
        return StakeLedger(chain_id=chain_id, stakes=stakes)

    @property
    def total_stake(self) -> int:
        return sum(s for _, s in self.stakes)

    @property
    def tau(self) -> Fraction:
        """BFT security boundary: two thirds of total stake."""
        return Fraction(2 * self.total_stake, 3)


def network_security(ledgers: Sequence[StakeLedger]) -> Fraction:
    """The weakest BFT boundary among the connected chains."""
    if not ledgers:
        raise ValueError("need at least one chain ledger")
    return min(ledger.tau for ledger in ledgers)


@dataclass(frozen=True)
class SafetyVerdict:
    safe: bool
    margin: Fraction  # network security minus value; negative when degraded
    boundary: Fraction

    @property
    def degraded(self) -> bool:
        return not self.safe


def check_tx_safety(value: int, ledgers: Sequence[StakeLedger]) -> SafetyVerdict:
    """Degraded iff the value strictly exceeds the path's weakest boundary."""
    if value < 0:
        raise ValueError("transaction value must be non-negative")
    boundary = network_security(ledgers)
    margin = boundary - value
    return SafetyVerdict(safe=value <= boundary, margin=margin, boundary=boundary)


@dataclass(frozen=True)
class DegradationReport:
    boundary: Fraction
    total_txs: int
    degraded_keys: Tuple[str, ...]
    max_value: int
    max_ratio: float  # max value / weakest chain's total stake
    headroom: Fraction  # boundary itself: the largest safe value
    histogram: Tuple[Tuple[str, int], ...]

    def to_dict(self) -> Dict:
        return {
            "boundary": str(self.boundary),
            "boundary_value": float(self.boundary),
            "total_txs": self.total_txs,
            "degraded": list(self.degraded_keys),
            "max_value": self.max_value,
            "max_ratio": self.max_ratio,
            "headroom": float(self.headroom),
            "histogram": [{"bucket": b, "count": c} for b, c in self.histogram],
        }


def render_report(report: "DegradationReport") -> str:
    """Human-readable companion to the structured report."""
    lines = [
        "Inter-chain security degradation",
        f"  network boundary (min tau): {float(report.boundary):,.2f}",
        f"  transactions analyzed:      {report.total_txs}",
        f"  max transaction value:      {report.max_value:,}"
        f"  (ratio to weakest stake: {report.max_ratio:.2%})",
        f"  headroom for safe values:   {float(report.headroom):,.2f}",
        f"  degraded transactions:      {len(report.degraded_keys)}",
        "  value histogram:",
    ]
    for bucket, count in report.histogram:
        lines.append(f"    {bucket:>10} {count:>8}")
    return "\n".join(lines) + "\n"


_BUCKETS = (10**2, 10**3, 10**4, 10**5, 10**6, 10**7)


def degradation_report(
    values: Mapping[Union[Key, str], int], ledgers: Sequence[StakeLedger]
) -> DegradationReport:
    """Per-transaction safety verdicts over a completed run's value map,
    keyed by transaction key or by its `"o:n"` string; degraded keys are
    reported as those strings, in their sorted order."""
    boundary = network_security(ledgers)
    weakest = min(ledgers, key=lambda l: l.tau)
    degraded = tuple(
        sorted(k if isinstance(k, str) else ctx_key_str(k) for k, v in values.items() if v > boundary)
    )
    max_value = max(values.values(), default=0)
    max_ratio = max_value / weakest.total_stake if weakest.total_stake else 0.0
    counts = [0] * (len(_BUCKETS) + 1)
    for v in values.values():
        for i, edge in enumerate(_BUCKETS):
            if v < edge:
                counts[i] += 1
                break
        else:
            counts[-1] += 1
    labels = [f"<{edge}" for edge in _BUCKETS] + [f">={_BUCKETS[-1]}"]
    histogram = tuple(zip(labels, counts))
    return DegradationReport(
        boundary=boundary,
        total_txs=len(values),
        degraded_keys=degraded,
        max_value=max_value,
        max_ratio=max_ratio,
        headroom=boundary,
        histogram=histogram,
    )
