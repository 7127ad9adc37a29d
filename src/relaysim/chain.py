"""Deterministic PoS-BFT chain simulation.

Consensus is abstracted to weighted quorum signing: a block is produced when
the available validators of the signing epoch reach the vote threshold, and
withheld otherwise. Blocks at epoch-boundary heights (height = k*E, k > 0)
are handoff blocks: they announce the rotated validator set for their epoch
and are signed by the previous epoch's set, which is exactly what a light
client holding the previous set can verify. All headers sign over a
fixed-size payload that embeds the announced set only as its commitment.

A header's aggregate signature is computed the first time its point is
read, from the signers' summed secret captured when the block is produced:
the quorum check, the bitmap and `BlockWithheld` belong to production, and
a header nobody proves is never signed.

Time is logical: every block consumes one tick from a monotone clock.
"""

from __future__ import annotations

import functools
import hashlib
import random
import struct
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from . import encoding
from .crypto import bls
from .crypto.bn254 import G1Point, R
from .crypto.commitment import ValidatorSet, commitment_digest
from .crypto.hashes import SUPPORTED, digest
from .crypto.merkle import MerkleProof, MerkleTree

ZERO32 = b"\x00" * 32
EMPTY_RECEIPT_ROOT = hashlib.sha256(b"relaysim/empty-receipt-trie").digest()


class BlockWithheld(Exception):
    """Raised when available signing weight is below the vote threshold."""

    def __init__(self, chain_id: int, available: int, total: int, threshold: Fraction):
        self.chain_id = chain_id
        self.available = available
        self.total = total
        self.threshold = threshold
        super().__init__(
            f"chain {chain_id}: available weight {available} < "
            f"{threshold} of total {total}; block withheld"
        )


class BlockReleased(LookupError):
    """Raised for a read of a block whose receipts, records and Merkle tree
    were released once every registered reader had passed it; its header
    is kept."""

    def __init__(self, chain_id: int, height: int):
        self.chain_id = chain_id
        self.height = height
        super().__init__(
            f"block {height} of chain {chain_id} was released: every registered reader had passed it"
        )


# ---------------------------------------------------------------------------
# Transactions and receipts.

# Fixed-width record heads (docs/wire_format.md): each ends with the length
# of the variable field that follows it.
_CTX_HEAD = struct.Struct(">4s4Q")  # "CTX1", dest, origin, nonce, len(payload)
_PAYLOAD_HEAD = struct.Struct(">cQ")  # "A" or "M", len(token) or len(call_data)
_ASSET_MID = struct.Struct(">2Q")  # amount, len(instruction)
_RCPT_HEAD = struct.Struct(">4sQ")  # "RCPT", len(tx_hash)
_BH_HEAD = struct.Struct(">3s6Q")  # "BH1", chain_id, height, epoch, epoch_size, timestamp, len(receipt_root)


@dataclass(frozen=True, slots=True)
class AssetPayload:
    token: str
    amount: int
    instruction: str = "transfer"

    def __post_init__(self):
        if self.amount < 0:
            raise ValueError("asset amount must be non-negative")

    def to_bytes(self) -> bytes:
        token, instruction = self.token.encode(), self.instruction.encode()
        mid = encoding.pack(_ASSET_MID, self.amount, len(instruction))
        return b"".join((_PAYLOAD_HEAD.pack(b"A", len(token)), token, mid, instruction))


@dataclass(frozen=True, slots=True)
class MessagePayload:
    call_data: bytes

    def to_bytes(self) -> bytes:
        return _PAYLOAD_HEAD.pack(b"M", len(self.call_data)) + self.call_data


Payload = Union[AssetPayload, MessagePayload]


@dataclass(frozen=True, slots=True)
class CrossChainTx:
    dest_chain: int
    payload: Payload
    origin_chain: int
    nonce: int
    # global identity: (origin chain id, origin nonce), built once
    key: Tuple[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "key", (self.origin_chain, self.nonce))

    def to_bytes(self) -> bytes:
        payload = self.payload.to_bytes()
        head = encoding.pack(_CTX_HEAD, b"CTX1", self.dest_chain, self.origin_chain, self.nonce, len(payload))
        return head + payload

    @property
    def tx_hash(self) -> bytes:
        return hashlib.sha256(self.to_bytes()).digest()


@functools.lru_cache(maxsize=64)
def _decoded_name(raw: bytes) -> str:
    """A decoded token or instruction name. A run has few, so the
    transactions it decodes share them; the memo is bounded, since a forged
    payload can name anything."""
    return raw.decode()


def decode_ctx(data: bytes) -> CrossChainTx:
    """Parse `CrossChainTx.to_bytes` output; anything else raises ValueError."""
    try:
        tag, dest, origin, nonce, size = _CTX_HEAD.unpack_from(data)
        kind, first = _PAYLOAD_HEAD.unpack_from(data, _CTX_HEAD.size)
    except struct.error:
        raise ValueError("truncated record") from None
    if tag != b"CTX1":
        raise ValueError("not a cross-chain transaction record")
    end = len(data)
    if _CTX_HEAD.size + size != end:
        raise ValueError("payload length does not match the record")
    start = _CTX_HEAD.size + _PAYLOAD_HEAD.size
    mid = start + first  # end of the first field: the token or the call data
    if kind == b"A":
        if mid + _ASSET_MID.size > end:
            raise ValueError("truncated record")
        amount, rest = _ASSET_MID.unpack_from(data, mid)
        if mid + _ASSET_MID.size + rest != end:
            raise ValueError("instruction length does not match the record")
        payload = AssetPayload(
            token=_decoded_name(bytes(data[start:mid])),
            amount=amount,
            instruction=_decoded_name(bytes(data[mid + _ASSET_MID.size :])),
        )
    elif kind == b"M":
        if mid != end:
            raise ValueError("call data length does not match the record")
        payload = MessagePayload(call_data=data[start:])
    else:
        raise ValueError("unknown payload kind")
    return CrossChainTx(dest_chain=dest, payload=payload, origin_chain=origin, nonce=nonce)


@dataclass(frozen=True, slots=True)
class ReceiptMessage:
    tx_hash: bytes
    payload: bytes
    height: int

    def to_bytes(self) -> bytes:
        tx_hash, payload = self.tx_hash, self.payload
        return b"".join(
            (
                _RCPT_HEAD.pack(b"RCPT", len(tx_hash)),
                tx_hash,
                encoding.U64.pack(len(payload)),
                payload,
                encoding.pack(encoding.U64, self.height),
            )
        )


@dataclass(frozen=True)
class AggregateSignature:
    point: G1Point
    bitmap: Tuple[bool, ...]

    @classmethod
    def sign_on_read(cls, bitmap: Tuple[bool, ...], secret: int, payload: bytes) -> "AggregateSignature":
        """The aggregate whose point is `bls.sign(secret, payload)`, signed
        the first time `point` is read: `secret` is the signers' summed
        secret. The secret is no field, so no repr, comparison or hash
        reads it; each of those reads `point`, and signs."""
        agg = object.__new__(cls)
        object.__setattr__(agg, "bitmap", bitmap)
        object.__setattr__(agg, "_unsigned", (secret, payload))
        return agg

    def __getattr__(self, name):
        # reached only for the `point` of an aggregate made by sign_on_read,
        # before its first read; the signature then replaces the secret
        unsigned = self.__dict__.pop("_unsigned", None) if name == "point" else None
        if unsigned is None:
            raise AttributeError(name)
        point = bls.sign(*unsigned)
        object.__setattr__(self, "point", point)
        return point


@dataclass(frozen=True)
class BlockHeader:
    chain_id: int
    height: int
    epoch: int
    epoch_size: int
    timestamp: int
    receipt_root: bytes
    announced_commitment: bytes  # ZERO32 on non-boundary headers
    # the set a source chain's boundary header ships beside its commitment;
    # None elsewhere, and on relay-chain headers, which carry only the commitment
    announced_set: Optional[ValidatorSet]
    agg: AggregateSignature

    @property
    def is_boundary(self) -> bool:
        return self.announced_commitment != ZERO32

    def signing_payload(self) -> bytes:
        root, announced = self.receipt_root, self.announced_commitment
        head = encoding.pack(
            _BH_HEAD, b"BH1", self.chain_id, self.height, self.epoch, self.epoch_size, self.timestamp, len(root)
        )
        return b"".join((head, root, encoding.U64.pack(len(announced)), announced))

    def digest(self, algo: str = "sha256") -> bytes:
        return digest(self.signing_payload(), algo)


@dataclass(frozen=True)
class Block:
    """A produced block and what it confirmed, kept until its chain
    releases it; its header outlives it."""

    header: BlockHeader
    receipts: Tuple[ReceiptMessage, ...]
    # per receipt, the object it was encoded from: the submitted CrossChainTx
    # or the queued event record, so readers of the chain's own blocks need
    # not parse the receipt bytes again
    records: Tuple[object, ...]
    # the Merkle tree over `receipts`, whose root the header carries; None with no receipts
    tree: Optional[MerkleTree] = field(compare=False, repr=False)
    # leaf index -> the relay bundle its provers share (`Prover.ctx_bundle`)
    bundles: Dict[int, object] = field(default_factory=dict, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Configuration.


def refuse(*checks: Tuple[bool, str]) -> None:
    """Raise one `ValueError` with the message of each failed check as an argument."""
    wrong = [message for failed, message in checks if failed]
    if wrong:
        raise ValueError(*wrong)


def parse_threshold(value) -> Fraction:
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, str):
        num, _, den = value.partition("/")
        frac = Fraction(int(num), int(den)) if den else Fraction(value)
    elif isinstance(value, (list, tuple)) and len(value) == 2:
        frac = Fraction(value[0], value[1])
    elif isinstance(value, int) and not isinstance(value, bool):  # a bool is no threshold
        frac = Fraction(value)
    elif isinstance(value, float):
        frac = Fraction(value).limit_denominator(1_000_000)
    else:
        raise ValueError(f"cannot parse vote threshold from {value!r}")
    return frac


@dataclass(frozen=True)
class ChainConfig:
    chain_id: int
    epoch_size: int = 10
    weights: Tuple[int, ...] = (1, 1, 1, 1)
    vote_threshold: Fraction = Fraction(2, 3)
    rotation: str = "identity"  # identity | reweight | refresh
    hash_algo: str = "sha256"
    key_namespace: str = ""
    # the fields below are set only in code; a scenario that names one is refused
    max_block_txs: int = field(default=4096, metadata={"code_only": True})
    # relay-chain style headers announce only the set commitment; source
    # chains ship the full set so provers and normal clients can open it
    announce_commitment_only: bool = field(default=False, metadata={"code_only": True})

    def __post_init__(self):
        refuse(
            (self.epoch_size < 1, "epoch size must be at least 1"),
            (not self.weights, "need at least one validator"),
            (any(w < 0 for w in self.weights), "validator weights must be non-negative"),
            (bool(self.weights) and sum(self.weights) <= 0, "total validator weight must be positive"),
            (not Fraction(1, 2) <= self.vote_threshold <= 1, "vote threshold must lie in [1/2, 1]"),
            (self.rotation not in ("identity", "reweight", "refresh"), f"unknown rotation policy {self.rotation!r}"),
            (self.hash_algo not in SUPPORTED, f"unknown hash algorithm {self.hash_algo!r}; pick one of {SUPPORTED}"),
        )


def _receipt(record, height: int) -> ReceiptMessage:
    """A queued record's receipt in the block at `height`: a transaction's
    hash is its `tx_hash`, an event's is sha256("EVT" + its bytes)."""
    payload = record.to_bytes()
    tag = b"" if isinstance(record, CrossChainTx) else b"EVT"
    return ReceiptMessage(tx_hash=hashlib.sha256(tag + payload).digest(), payload=payload, height=height)


class LogicalClock:
    """Monotone tick counter shared by every chain in a scenario."""

    def __init__(self):
        self._now = 0

    def next(self) -> int:
        self._now += 1
        return self._now

    @property
    def now(self) -> int:
        return self._now


def quorum_reached(weight: int, total: int, threshold: Fraction) -> bool:
    return weight * threshold.denominator >= threshold.numerator * total


# ---------------------------------------------------------------------------
# The chain state machine.


@dataclass
class _EpochKeys:
    vset: ValidatorSet
    secrets: Dict[bytes, int]  # pubkey bytes -> signing scalar


def _epoch_keys(epoch: int, seed: str, weights: Sequence[int]) -> _EpochKeys:
    """A validator set's keys, made in one batch: validator i's seed is
    f"{seed}/{i}" and its weight weights[i]."""
    pairs = []
    secrets: Dict[bytes, int] = {}
    for kp, weight in zip(bls.keygen_many([f"{seed}/{i}" for i in range(len(weights))]), weights):
        pk = kp.public_bytes
        pairs.append((pk, weight))
        secrets[pk] = kp.secret
    return _EpochKeys(vset=ValidatorSet.from_pairs(epoch, pairs), secrets=secrets)


class Chain:
    """A single-threaded chain producing quorum-signed headers and receipts."""

    def __init__(self, config: ChainConfig, clock: Optional[LogicalClock] = None):
        self.config = config
        self.clock = clock if clock is not None else LogicalClock()
        self._epochs: List[_EpochKeys] = [self._genesis_keys()]
        self._headers: List[BlockHeader] = []
        self._blocks: List[Optional[Block]] = []  # None: released
        self._released = 0  # every block below this height is released
        self._pending: Deque[object] = deque()  # records; each is encoded when its block is made
        self._nonce = 0
        self._withhold = 0.0  # share of each signing set's weight that does not sign
        self.produce_block()  # genesis

    # -- validator sets ----------------------------------------------------

    def _genesis_keys(self) -> _EpochKeys:
        return _epoch_keys(0, f"{self.config.key_namespace}/{self.config.chain_id}/0", self.config.weights)

    def _rotated_keys(self, prev: _EpochKeys, epoch: int) -> _EpochKeys:
        policy = self.config.rotation
        if policy == "identity":
            vset = ValidatorSet(epoch=epoch, entries=prev.vset.entries)
            return _EpochKeys(vset=vset, secrets=dict(prev.secrets))
        seed = f"{self.config.key_namespace}/{self.config.chain_id}/rotate/{epoch}"
        if policy == "reweight":
            rng = random.Random(seed)
            weights = [e.weight for e in prev.vset.entries]
            rng.shuffle(weights)
            entries = tuple(e.reweighted(w) for e, w in zip(prev.vset.entries, weights))
            return _EpochKeys(vset=ValidatorSet(epoch=epoch, entries=entries), secrets=dict(prev.secrets))
        # refresh: new keys, weights carried over in canonical order
        return _epoch_keys(epoch, seed, [e.weight for e in prev.vset.entries])

    def _ensure_epoch(self, epoch: int) -> _EpochKeys:
        while len(self._epochs) <= epoch:
            nxt = self._rotated_keys(self._epochs[-1], len(self._epochs))
            self._epochs.append(nxt)
        return self._epochs[epoch]

    def validator_set(self, epoch: int) -> ValidatorSet:
        return self._ensure_epoch(epoch).vset

    def epoch_secrets(self, epoch: int) -> Dict[bytes, int]:
        """Simulation-control surface: signing keys for fault injection."""
        return dict(self._ensure_epoch(epoch).secrets)

    # -- fault injection ----------------------------------------------------

    def withhold_fraction(self, fraction: float) -> int:
        """From now on, in every signing set, mark validators (canonical
        order) unavailable until their cumulative weight first reaches
        `fraction` of the set's total; returns the weight withheld from the
        current epoch's set."""
        self._withhold = fraction
        vset = self._epochs[min(self.current_epoch, len(self._epochs) - 1)].vset
        return vset.total_weight - vset.bitmap_weight(self._available(vset))

    def _available(self, vset: ValidatorSet) -> Tuple[bool, ...]:
        target = self._withhold * vset.total_weight
        bitmap, withheld = [], 0
        for entry in vset.entries:
            bitmap.append(withheld >= target)
            if withheld < target:
                withheld += entry.weight
        return tuple(bitmap)

    # -- tx intake ----------------------------------------------------------

    def make_tx(self, dest_chain: int, payload: Payload) -> CrossChainTx:
        tx = CrossChainTx(
            dest_chain=dest_chain, payload=payload, origin_chain=self.config.chain_id, nonce=self._nonce
        )
        self._nonce += 1
        return tx

    def submit_tx(self, ctx: CrossChainTx) -> None:
        """Queue `ctx` for the next block. A transaction that does not encode
        (a field out of range, a token that is not text) raises here, before
        it is queued; its bytes and receipt hash are made with the block."""
        if ctx.dest_chain == self.config.chain_id:
            raise ValueError("cross-chain destination equals the origin chain")
        if ctx.origin_chain != self.config.chain_id:
            raise ValueError("transaction origin does not match this chain")
        ctx.to_bytes()
        self._pending.append(ctx)

    def append_event(self, record) -> None:
        """Queue a local confirmation event (relay / destination bookkeeping):
        a record that encodes itself with `to_bytes()`, kept as it is in
        `Block.records`; its receipt hash is sha256("EVT" + its bytes)."""
        if isinstance(record, CrossChainTx):
            raise TypeError("a cross-chain transaction is queued by submit_tx")
        self._pending.append(record)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- block production ---------------------------------------------------

    @property
    def height(self) -> int:
        return len(self._headers) - 1

    @property
    def current_epoch(self) -> int:
        return max(0, self.height) // self.config.epoch_size

    @property
    def headers(self) -> List[BlockHeader]:
        return list(self._headers)

    def header_at(self, height: int) -> BlockHeader:
        """The header at `height`, kept when its block is released."""
        return self._headers[height]

    def block_at(self, height: int) -> Block:
        """The block at `height`; `BlockReleased` once it is released."""
        block = self._blocks[height]
        if block is None:
            raise BlockReleased(self.config.chain_id, height)
        return block

    def _sign_header_payload(self, payload: bytes, keys: _EpochKeys) -> AggregateSignature:
        vset = keys.vset
        bitmap = self._available(vset)
        available = vset.bitmap_weight(bitmap)
        if not quorum_reached(available, vset.total_weight, self.config.vote_threshold):
            raise BlockWithheld(
                self.config.chain_id, available, vset.total_weight, self.config.vote_threshold
            )
        secret = sum(keys.secrets[e.pubkey_bytes] for e, bit in zip(vset.entries, bitmap) if bit)
        return AggregateSignature.sign_on_read(bitmap, secret % R, payload)

    def produce_block(self) -> Tuple[Block, BlockHeader]:
        height = len(self._headers)
        epoch = height // self.config.epoch_size
        boundary = height == 0 or height % self.config.epoch_size == 0
        signing_keys = self._ensure_epoch(epoch if height == 0 else (epoch - 1 if boundary else epoch))

        records = []
        while self._pending and len(records) < self.config.max_block_txs:
            records.append(self._pending.popleft())

        receipts = tuple(_receipt(record, height) for record in records)
        tree = MerkleTree([r.to_bytes() for r in receipts], self.config.hash_algo) if receipts else None
        root = tree.root if tree is not None else EMPTY_RECEIPT_ROOT

        announced_commitment, announced_set = ZERO32, None
        if boundary:
            announced = self._ensure_epoch(epoch).vset
            announced_commitment = commitment_digest(announced, self.config.hash_algo)
            if not self.config.announce_commitment_only:
                announced_set = announced

        draft = BlockHeader(
            chain_id=self.config.chain_id,
            height=height,
            epoch=epoch,
            epoch_size=self.config.epoch_size,
            timestamp=self.clock.next(),
            receipt_root=root,
            announced_commitment=announced_commitment,
            announced_set=announced_set,
            agg=AggregateSignature(point=None, bitmap=()),
        )
        agg = self._sign_header_payload(draft.signing_payload(), signing_keys)
        header = BlockHeader(**{**draft.__dict__, "agg": agg})
        block = Block(header=header, receipts=receipts, records=tuple(records), tree=tree)
        self._headers.append(header)
        self._blocks.append(block)
        return block, header

    # -- confirmation queries ------------------------------------------------

    def receipt_proof(self, height: int, index: int) -> MerkleProof:
        """The audit path of receipt `index` of the block at `height`; an
        IndexError when that block has no such receipt or does not exist,
        `BlockReleased` once the block is released."""
        tree = self.block_at(height).tree if 0 <= height < len(self._blocks) else None
        if tree is not None:
            try:
                return tree.prove(index)
            except IndexError:
                pass
        raise IndexError(f"block {height} of chain {self.config.chain_id} has no receipt {index}")

    def release_blocks(self, below_height: int) -> None:
        """Drop every block below `below_height`, with what it confirmed,
        keeping their headers: call it once every reader of those blocks has
        passed them. A later read of a released block raises `BlockReleased`."""
        below_height = min(below_height, len(self._blocks))
        for height in range(self._released, below_height):
            self._blocks[height] = None
        self._released = max(self._released, below_height)

    def signing_set_for(self, header: BlockHeader) -> ValidatorSet:
        """The validator set whose quorum signed this header."""
        if header.height == 0:
            return self.validator_set(0)
        if header.is_boundary:
            return self.validator_set(header.epoch - 1)
        return self.validator_set(header.epoch)
