"""Application-facing omnichain service: message out/in, status inquiry, and
the pre-paid pricing model.

Fees are charged once, at acceptance on the source chain, in integer minor
units, and are not refunded on rejection. Message records advance
monotonically along the pipeline; an optional JSON-lines journal makes runs
auditable and replayable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, IO, Optional, Tuple

from .chain import AssetPayload, Payload
from .relay import ProofBundle, RelayEnvironment
from .trace import TraceEvent, ctx_key_str


class Status(Enum):
    PENDING_SC = "pending-SC"
    CONFIRMED_SC = "confirmed-SC"
    CONFIRMED_RC = "confirmed-RC"
    CONFIRMED_DC = "confirmed-DC"
    REJECTED = "rejected"


_STATUS_RANK = {
    Status.PENDING_SC: 0,
    Status.CONFIRMED_SC: 1,
    Status.CONFIRMED_RC: 2,
    Status.CONFIRMED_DC: 3,
    Status.REJECTED: 4,
}

_STAGE_TO_STATUS = {
    "commit_sc": Status.PENDING_SC,
    "confirm_sc": Status.CONFIRMED_SC,
    "confirm_rc": Status.CONFIRMED_RC,
    "confirm_dc": Status.CONFIRMED_DC,
}


class InsufficientFee(ValueError):
    pass


class UnknownMessage(KeyError):
    pass


@dataclass(frozen=True)
class PricingConfig:
    k: Fraction = Fraction(1, 40)  # 0.025, inside the usual 0.02-0.03 band
    base_fee_rc: int = 1
    base_fee_dc: int = 1
    fee_cap: int = 1000

    def __post_init__(self):
        if not (0 < self.k < 1):
            raise ValueError("fee coefficient must lie in (0, 1)")
        if self.base_fee_rc < 0 or self.base_fee_dc < 0:
            raise ValueError("base fees must be non-negative")
        if self.fee_cap < self.base_fee_rc + self.base_fee_dc:
            raise ValueError("fee cap must cover the base fees")

    @property
    def floor(self) -> int:
        return self.base_fee_rc + self.base_fee_dc


def compute_fee(amount: int, config: PricingConfig) -> int:
    """Piecewise pre-paid fee: floor, then k*amount, then the cap.

    The linear segment rounds half up to integer minor units.
    """
    if amount < 0:
        raise ValueError("amount must be non-negative")
    linear = (config.k.numerator * amount * 2 + config.k.denominator) // (
        2 * config.k.denominator
    )
    if linear <= config.floor:
        return config.floor
    if linear <= config.fee_cap:
        return linear
    return config.fee_cap


@dataclass
class MessageRecord:
    key: Tuple[int, int]
    source_chain: int
    dest_chain: int
    fee: int
    fee_token: str
    best: Status = Status.PENDING_SC
    stage_times: Dict[str, int] = field(default_factory=dict)
    reject_reason: Optional[str] = None
    reject_time: Optional[int] = None

    @property
    def status(self) -> Status:
        """Rejected while a rejection is the latest word; pipeline progress by
        an honest delivery supersedes it (at-least-once provers)."""
        if (
            self.reject_time is not None
            and self.best is not Status.CONFIRMED_DC
            and self.reject_time > max(self.stage_times.values(), default=-1)
        ):
            return Status.REJECTED
        return self.best

    def to_dict(self) -> Dict:
        return {
            "key": ctx_key_str(self.key),
            "source": self.source_chain,
            "dest": self.dest_chain,
            "status": self.status.value,
            "fee": self.fee,
            "fee_token": self.fee_token,
            "stage_times": dict(sorted(self.stage_times.items())),
            "reject_reason": self.reject_reason,
        }


class MosService:
    """Service layer bound to one relay environment.

    `message_out`/`message_in` are also exposed under the contract-style
    names `data_out`/`data_in`.
    """

    def __init__(
        self,
        env: RelayEnvironment,
        pricing: Optional[PricingConfig] = None,
        journal: Optional[IO[str]] = None,
    ):
        self.env = env
        self.pricing = pricing if pricing is not None else PricingConfig()
        self.records: Dict[Tuple[int, int], MessageRecord] = {}
        self._journal = journal
        env.observers.append(self._on_event)

    # -- event ingestion -------------------------------------------------------

    def _on_event(self, event: TraceEvent) -> None:
        record = self.records.get(event.key)
        if record is None:
            return
        if event.verdict != "ok":
            if record.best is not Status.CONFIRMED_DC:
                record.reject_reason = event.verdict.removeprefix("reject:")
                record.reject_time = event.time
                self._journal_write(record)
            return
        record.stage_times[event.stage] = event.time
        status = _STAGE_TO_STATUS.get(event.stage)
        if status is not None and _STATUS_RANK[status] > _STATUS_RANK[record.best]:
            record.best = status
            self._journal_write(record)

    def _journal_write(self, record: MessageRecord) -> None:
        if self._journal is not None:
            self._journal.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")

    # -- service operations ------------------------------------------------------

    def message_out(
        self, source_chain: int, to_chain: int, payload: Payload, fee_token: str, fee_paid: int
    ) -> Tuple[int, int]:
        """Accept a cross-chain message; requires the pre-paid fee."""
        amount = payload.amount if isinstance(payload, AssetPayload) else 0
        required = compute_fee(amount, self.pricing)
        if fee_paid < required:
            raise InsufficientFee(f"fee {fee_paid} below required {required}")
        key = self.env.submit(source_chain, to_chain, payload)
        record = MessageRecord(
            key=key,
            source_chain=source_chain,
            dest_chain=to_chain,
            fee=required,
            fee_token=fee_token,
            # submit() traced commit_sc before this record existed
            stage_times={"commit_sc": self.env.trace.stages_of(key)["commit_sc"].time},
        )
        self.records[key] = record
        self._journal_write(record)
        return key

    def message_in(self, chain_id: int, from_chain: int, bundle: ProofBundle) -> bytes:
        """Deliver a receipt-proof bundle to the light client hosted on a chain.

        Returns the hash of the converted cross-chain transaction; rejections
        surface in the message record status.
        """
        ctx, result, _ = self.env.host(chain_id).receive(bundle)
        if ctx is None:
            raise ValueError("bundle does not decode to a cross-chain transaction")
        record = self.records.get(ctx.key)
        if record is not None and not result.ok:
            record.reject_reason = result.reason.value if result.reason else "rejected"
            record.reject_time = self.env.clock.next()
            self._journal_write(record)
        return ctx.tx_hash

    # contract-style aliases
    data_out = message_out
    data_in = message_in

    def inquire(self, key: Tuple[int, int]) -> MessageRecord:
        record = self.records.get(tuple(key))
        if record is None:
            raise UnknownMessage(str(key))
        return record
