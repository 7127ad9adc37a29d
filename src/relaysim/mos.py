"""Application-facing omnichain service: message out/in, status inquiry, and
the pre-paid pricing model.

Fees are charged once, at acceptance on the source chain, in integer minor
units, and are not refunded on rejection. A message record keeps what
`message_out` fixed and reads the message's progress from the trace.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple

from .chain import AssetPayload, Payload, refuse
from .relay import ProofBundle, RelayEnvironment
from .trace import Key, NonceTable, TraceLog, ctx_key_str


class Status(Enum):
    PENDING_SC = "pending-SC"
    CONFIRMED_SC = "confirmed-SC"
    CONFIRMED_RC = "confirmed-RC"
    CONFIRMED_DC = "confirmed-DC"
    REJECTED = "rejected"


# in pipeline order: the last stage reached names the status
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
        refuse(
            (not 0 < self.k < 1, "fee coefficient must lie in (0, 1)"),
            (self.base_fee_rc < 0 or self.base_fee_dc < 0, "base fees must be non-negative"),
            (self.fee_cap < self.base_fee_rc + self.base_fee_dc, "fee cap must cover the base fees"),
        )

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


@dataclass(frozen=True, slots=True)
class MessageRecord:
    """What `message_out` fixed about a message; its progress is read from
    the trace."""

    key: Tuple[int, int]
    source_chain: int
    dest_chain: int
    fee: int
    fee_token: str
    trace: TraceLog = field(repr=False, compare=False)

    @property
    def stage_times(self) -> Dict[str, int]:
        return self.trace.stage_ticks(self.key)

    @property
    def reject_reason(self) -> Optional[str]:
        rejection = self.trace.rejection_of(self.key)
        return None if rejection is None else rejection.verdict.removeprefix("reject:")

    @property
    def status(self) -> Status:
        """The best stage reached, or rejected while a rejection is the
        latest word; pipeline progress by an honest delivery supersedes it
        (at-least-once provers)."""
        return self._status(self.trace.stage_ticks(self.key))

    def _status(self, ticks: Dict[str, int]) -> Status:
        rejection = self.trace.rejection_of(self.key)
        if rejection is not None and rejection.time > max(ticks.values()):
            return Status.REJECTED
        best = Status.PENDING_SC
        for stage, status in _STAGE_TO_STATUS.items():
            if stage in ticks:
                best = status
        return best

    def to_dict(self) -> Dict:
        ticks = self.trace.stage_ticks(self.key)
        return {
            "key": ctx_key_str(self.key),
            "source": self.source_chain,
            "dest": self.dest_chain,
            "status": self._status(ticks).value,
            "fee": self.fee,
            "fee_token": self.fee_token,
            "stage_times": dict(sorted(ticks.items())),
            "reject_reason": self.reject_reason,
        }


class MessageRecords(Mapping):
    """Each accepted message's `MessageRecord`, by key. What `message_out`
    fixed is kept in `NonceTable` columns (destination, fee and an index
    into the fee tokens), so a record is no object until it is read; the
    source is the key's origin."""

    def __init__(self, trace: TraceLog):
        self._trace = trace
        self._dest = NonceTable()
        self._fee = NonceTable()
        self._token = NonceTable("H", 0xFFFF)
        self._token_codes: Dict[str, int] = {}
        self._tokens: List[str] = []

    def add(self, key: Tuple[int, int], dest_chain: int, fee: int, fee_token: str) -> None:
        code = self._token_codes.get(fee_token)
        if code is None:
            code = self._token_codes[fee_token] = len(self._tokens)
            self._tokens.append(fee_token)
        self._dest[key] = dest_chain
        self._fee[key] = fee
        self._token[key] = code

    def __getitem__(self, key: Key) -> MessageRecord:
        dest = self._dest[key]
        return MessageRecord(
            key=key,
            source_chain=key[0],
            dest_chain=dest,
            fee=self._fee[key],
            fee_token=self._tokens[self._token[key]],
            trace=self._trace,
        )

    def __contains__(self, key) -> bool:
        return key in self._dest

    def __iter__(self) -> Iterator[Key]:
        return iter(self._dest)

    def __len__(self) -> int:
        return len(self._dest)


class MosService:
    """Service layer bound to one relay environment.

    `message_out`/`message_in` are also exposed under the contract-style
    names `data_out`/`data_in`.
    """

    def __init__(self, env: RelayEnvironment, pricing: Optional[PricingConfig] = None):
        self.env = env
        self.pricing = pricing if pricing is not None else PricingConfig()
        self.records = MessageRecords(env.trace)

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
        self.records.add(key, to_chain, required, fee_token)
        return key

    def message_in(self, chain_id: int, from_chain: int, bundle: ProofBundle) -> bytes:
        """Deliver a receipt-proof bundle from `from_chain` to the light client
        hosted on `chain_id`, through the scheduler's delivery step.

        Returns the hash of the converted cross-chain transaction; rejections
        surface in the message record status.
        """
        if bundle.kind != "ctx":
            raise ValueError(f"message_in takes a ctx bundle, not {bundle.kind!r}")
        if bundle.origin_chain != from_chain:
            raise ValueError(f"bundle comes from chain {bundle.origin_chain}, not {from_chain}")
        ctx, _, _ = self.env.deliver(bundle, chain_id)
        if ctx is None:
            raise ValueError("bundle does not decode to a cross-chain transaction")
        return ctx.tx_hash

    # contract-style aliases
    data_out = message_out
    data_in = message_in

    def inquire(self, key: Tuple[int, int]) -> MessageRecord:
        record = self.records.get(tuple(key))
        if record is None:
            raise UnknownMessage(str(key))
        return record
