"""On-chain style light clients: the normal full-set client and the hybrid
proof-offloaded client.

Both are pure state machines over immutable states; every call returns a
result object carrying a gas receipt built from instrumentation counters.
`hlc_verify`'s receipt depends only on the branch it took and the proof
depth, so its results are built once per gas table and then looked up.
The public verify contract is boolean, but rejections carry an enumerated
reason for the adversarial test harness.

Epoch discipline is strict: a client at epoch e accepts mid-epoch headers of
epoch e (signed by its stored set) and boundary headers of epoch e+1 (also
signed by its stored set, announcing the next set). Anything else is an
epoch gap; missed epochs require sequential updates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Tuple

from . import encoding
from .chain import BlockHeader, ReceiptMessage, quorum_reached
from .costs import GasCostTable, GasMeter, GasReceipt
from .crypto import bls
from .crypto.commitment import ValidatorSet, commitment_digest
from .crypto.hash_to_curve import base_to_g, hash_to_base
from .crypto.hashes import digest
from .crypto.merkle import InclusionMemo, MerkleProof, merkle_verify


class RejectReason(Enum):
    BAD_SIGNATURE = "bad-signature"
    INSUFFICIENT_WEIGHT = "insufficient-weight"
    EPOCH_GAP = "epoch-gap"
    PROOF_INVALID = "proof-invalid"
    PUBLIC_INPUT_MISMATCH = "public-input-mismatch"
    MERKLE_FAIL = "merkle-fail"


@dataclass(frozen=True)
class NormalLcState:
    chain_id: int
    epoch: int
    validator_set: ValidatorSet
    epoch_size: int
    threshold: Fraction
    hash_algo: str = "sha256"


@dataclass(frozen=True)
class HybridLcState:
    chain_id: int
    epoch: int
    commitment: bytes
    epoch_size: int
    threshold: Fraction
    hash_algo: str = "sha256"


@dataclass(frozen=True)
class SetupResult:
    state: object
    receipt: GasReceipt


@dataclass(frozen=True)
class UpdateResult:
    accepted: bool
    state: object
    receipt: GasReceipt
    reason: Optional[RejectReason] = None


@dataclass(frozen=True, slots=True)
class VerifyResult:
    ok: bool
    receipt: GasReceipt
    reason: Optional[RejectReason] = None


@dataclass(frozen=True)
class PublicInputs:
    """What a hybrid client checks a proof against (wire format PI1)."""

    commitment: bytes
    t: Tuple[int, int]
    header_digest: bytes
    new_commitment: Optional[bytes]
    threshold: Fraction
    claimed_weight: int

    def canonical_bytes(self) -> bytes:
        return b"".join(
            [
                b"PI1",
                encoding.lp(self.commitment),
                encoding.u256(self.t[0]),
                encoding.u256(self.t[1]),
                encoding.lp(self.header_digest),
                encoding.lp(self.new_commitment if self.new_commitment is not None else b""),
                encoding.u64(self.threshold.numerator),
                encoding.u64(self.threshold.denominator),
                encoding.u64(self.claimed_weight),
            ]
        )


# ---------------------------------------------------------------------------
# Normal light client.


def lc_setup(
    chain_id: int,
    genesis_set: ValidatorSet,
    epoch_size: int,
    threshold: Fraction,
    table: GasCostTable,
    hash_algo: str = "sha256",
) -> SetupResult:
    meter = GasMeter(table, "lc_setup")
    meter.charge("sstore_word", len(genesis_set) * table.validator_words)
    state = NormalLcState(
        chain_id=chain_id,
        epoch=0,
        validator_set=genesis_set,
        epoch_size=epoch_size,
        threshold=threshold,
        hash_algo=hash_algo,
    )
    return SetupResult(state=state, receipt=meter.receipt())


def _header_matches_epoch(state_epoch: int, header: BlockHeader) -> bool:
    if header.is_boundary:
        return header.epoch == state_epoch + 1
    return header.epoch == state_epoch


def _check_signature(
    state: NormalLcState, header: BlockHeader, meter: GasMeter
) -> Optional[RejectReason]:
    vset = state.validator_set
    meter.charge("sload_word", len(vset) * meter.table.validator_words)
    bitmap = header.agg.bitmap
    if len(bitmap) != len(vset):
        return RejectReason.BAD_SIGNATURE
    meter.charge("weight_step", len(vset))
    weight = vset.bitmap_weight(bitmap)
    if not quorum_reached(weight, vset.total_weight, state.threshold):
        return RejectReason.INSUFFICIENT_WEIGHT
    meter.charge("hash_op", 3)  # hash-to-base expansion
    meter.charge("base_map", 2)
    signers = sum(1 for b in bitmap if b)
    meter.charge("g2_add", max(0, signers - 1))
    meter.charge("pairing_base", 1)
    meter.charge("pairing_check", 2)
    apk = bls.aggregate_pubkeys(vset.pubkeys(), bitmap)
    point = base_to_g(hash_to_base(header.signing_payload()))
    if not bls.verify_at_point(apk, point, header.agg.point):
        return RejectReason.BAD_SIGNATURE
    return None


def _check_inclusion(
    message: ReceiptMessage, header: BlockHeader, proof: MerkleProof, hash_algo: str, meter: GasMeter
) -> Optional[RejectReason]:
    """The receipt's audit path leads to the root its header signs."""
    meter.charge("merkle_level", len(proof.path))
    if not merkle_verify(header.receipt_root, message.to_bytes(), proof, hash_algo):
        return RejectReason.MERKLE_FAIL
    return None


def lc_update(state: NormalLcState, header: BlockHeader, table: GasCostTable) -> UpdateResult:
    meter = GasMeter(table, "lc_update")
    meter.charge("call_overhead")
    if not header.is_boundary or header.epoch != state.epoch + 1:
        return UpdateResult(False, state, meter.receipt(), RejectReason.EPOCH_GAP)
    announced = header.announced_set
    if announced is None:
        raise ValueError("normal light client requires full validator info on boundary headers")
    reason = _check_signature(state, header, meter)
    if reason is not None:
        return UpdateResult(False, state, meter.receipt(), reason)
    meter.charge("hash_op", len(announced) + 1)  # recompute announced-set commitment
    if commitment_digest(announced, state.hash_algo) != header.announced_commitment:
        return UpdateResult(False, state, meter.receipt(), RejectReason.BAD_SIGNATURE)
    meter.charge("sstore_word", len(announced) * table.validator_words)
    new_state = replace(state, epoch=state.epoch + 1, validator_set=announced)
    return UpdateResult(True, new_state, meter.receipt(), None)


def lc_verify(
    state: NormalLcState,
    message: ReceiptMessage,
    header: BlockHeader,
    proof: MerkleProof,
    table: GasCostTable,
) -> VerifyResult:
    meter = GasMeter(table, "lc_verify")
    meter.charge("call_overhead")
    if header.chain_id != state.chain_id or not _header_matches_epoch(state.epoch, header):
        return VerifyResult(False, meter.receipt(), RejectReason.EPOCH_GAP)
    reason = _check_signature(state, header, meter) or _check_inclusion(
        message, header, proof, state.hash_algo, meter
    )
    return VerifyResult(reason is None, meter.receipt(), reason)


# ---------------------------------------------------------------------------
# Hybrid light client.


def hlc_setup(
    chain_id: int,
    genesis_set: ValidatorSet,
    epoch_size: int,
    threshold: Fraction,
    table: GasCostTable,
    hash_algo: str = "sha256",
) -> SetupResult:
    meter = GasMeter(table, "hlc_setup")
    meter.charge("sstore_word", table.commitment_words)
    state = HybridLcState(
        chain_id=chain_id,
        epoch=0,
        commitment=commitment_digest(genesis_set, hash_algo),
        epoch_size=epoch_size,
        threshold=threshold,
        hash_algo=hash_algo,
    )
    return SetupResult(state=state, receipt=meter.receipt())


@functools.lru_cache(maxsize=32)
def _header_terms(payload: bytes, hash_algo: str) -> Tuple[Tuple[int, int], bytes]:
    """The header's terms of its public inputs: the base-field hash and the
    digest of its signing payload. Both depend on nothing else, and the
    transactions of one block share them, so the last few are kept."""
    t = hash_to_base(payload)
    return (t.t0, t.t1), digest(payload, hash_algo)


def public_inputs(
    header: BlockHeader,
    commitment: bytes,
    threshold: Fraction,
    hash_algo: str,
    claimed_weight: int,
) -> PublicInputs:
    """The public inputs of the proof for `header`: the one derivation that
    the client (on-chain), the prover and the attack harness all use. Only
    the claimed weight is taken on trust; the proof's witness check binds it."""
    t, header_digest = _header_terms(header.signing_payload(), hash_algo)
    return PublicInputs(
        commitment=commitment,
        t=t,
        header_digest=header_digest,
        new_commitment=header.announced_commitment if header.is_boundary else None,
        threshold=threshold,
        claimed_weight=claimed_weight,
    )


def _check_proof(state: HybridLcState, header: BlockHeader, zk_proof, backend) -> Optional[RejectReason]:
    # The backend's last passed (state, header, zk_proof): all three are
    # immutable, so the same objects get the same verdict, and the receipts
    # of one block share their header's proof, which is checked once.
    # Matched by identity, and held so that no other object can take their ids.
    last_state, last_header, last_proof = backend.last_passed
    if state is last_state and header is last_header and zk_proof is last_proof:
        return None
    claimed = zk_proof.publics.claimed_weight
    expected = public_inputs(header, state.commitment, state.threshold, state.hash_algo, claimed)
    if zk_proof.publics != expected or claimed <= 0:
        return RejectReason.PUBLIC_INPUT_MISMATCH
    if not backend.verify(zk_proof, expected):
        return RejectReason.PROOF_INVALID
    backend.last_passed = (state, header, zk_proof)
    return None


def _charge_proof(meter: GasMeter, reason: Optional[RejectReason]) -> None:
    """What `_check_proof` costs on-chain, given its verdict."""
    # the client derives every bindable public input itself, on-chain
    meter.charge("sload_word", 3)
    meter.charge("hash_op", 3)  # hash-to-base of the signing payload
    meter.charge("hash_op", 1)  # header digest
    if reason is not RejectReason.PUBLIC_INPUT_MISMATCH:
        meter.charge("snark_verify")


def verify_result(table: GasCostTable, reason: Optional[RejectReason], depth: int = 0) -> VerifyResult:
    """`hlc_verify`'s result when it stops with `reason` (None: accepted)
    on a proof of `depth` levels (read only past the proof checks): one
    shared object per outcome and table, its receipt made once by a
    `GasMeter`."""
    key = (reason, depth)
    result = table._verify_results.get(key)
    if result is None:
        meter = GasMeter(table, "hlc_verify")
        meter.charge("call_overhead")
        if reason is not RejectReason.EPOCH_GAP:
            _charge_proof(meter, reason)
            if reason is None or reason is RejectReason.MERKLE_FAIL:
                meter.charge("merkle_level", depth)
        result = table._verify_results[key] = VerifyResult(reason is None, meter.receipt(), reason)
    return result


def hlc_update(
    state: HybridLcState,
    header: BlockHeader,
    zk_proof,
    table: GasCostTable,
    backend,
) -> UpdateResult:
    meter = GasMeter(table, "hlc_update")
    meter.charge("call_overhead")
    if not header.is_boundary or header.epoch != state.epoch + 1:
        return UpdateResult(False, state, meter.receipt(), RejectReason.EPOCH_GAP)
    reason = _check_proof(state, header, zk_proof, backend)
    _charge_proof(meter, reason)
    if reason is not None:
        return UpdateResult(False, state, meter.receipt(), reason)
    meter.charge("sstore_word", 2)
    new_state = replace(state, epoch=state.epoch + 1, commitment=header.announced_commitment)
    return UpdateResult(True, new_state, meter.receipt(), None)


def hlc_verify(
    state: HybridLcState,
    message: ReceiptMessage,
    header: BlockHeader,
    merkle_proof: MerkleProof,
    zk_proof,
    table: GasCostTable,
    backend,
    inclusion: Optional[InclusionMemo] = None,
) -> VerifyResult:
    """Verify a receipt against a hybrid client. Given `inclusion`, a
    host's memo, the audit path is checked through it, with this module's
    `merkle_verify` binding deciding every path the memo cannot."""
    if header.chain_id != state.chain_id or not _header_matches_epoch(state.epoch, header):
        return verify_result(table, RejectReason.EPOCH_GAP)
    reason = _check_proof(state, header, zk_proof, backend)
    if reason is not None:
        return verify_result(table, reason)
    root, leaf = header.receipt_root, message.to_bytes()
    if inclusion is None:
        included = merkle_verify(root, leaf, merkle_proof, state.hash_algo)
    else:
        included = inclusion.verify(root, leaf, merkle_proof, state.hash_algo, merkle_verify)
    return verify_result(table, None if included else RejectReason.MERKLE_FAIL, len(merkle_proof.path))
