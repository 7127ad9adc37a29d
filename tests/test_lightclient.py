"""Light-client behavior: setup/update/verify for both client families, gas
anchors, rejection reasons, metering soundness, and client equivalence."""

import random
from dataclasses import replace as dc_replace
from fractions import Fraction

import pytest

from relaysim import lightclient
from relaysim.chain import AssetPayload, Chain, ChainConfig, MessagePayload
from relaysim.costs import GasCostTable, GasMeter
from relaysim.crypto.merkle import MerkleProof
from relaysim.crypto.bn254 import P, g1_neg
from relaysim.crypto.commitment import commitment_digest
from relaysim.lightclient import (
    RejectReason,
    hlc_setup,
    hlc_update,
    hlc_verify,
    lc_setup,
    lc_update,
    lc_verify,
    public_inputs,
    verify_result,
)
from relaysim.prover import Prover, UnsatisfiedStatement, statement_for_header

T23 = Fraction(2, 3)


def _chain(n=4, epoch_size=4, rotation="identity", chain_id=1, ns="lc"):
    return Chain(
        ChainConfig(
            chain_id=chain_id,
            epoch_size=epoch_size,
            weights=(1,) * n,
            rotation=rotation,
            key_namespace=ns,
        )
    )


def _confirmed(chain, dest=2, amount=5):
    chain.submit_tx(chain.make_tx(dest, AssetPayload(token="T", amount=amount)))
    block, header = chain.produce_block()
    return block.receipts[0], chain.receipt_proof(header.height, 0), header


# ---------------------------------------------------------------------------
# setup gas


def test_normal_setup_gas_is_per_validator(gas_table):
    chain = _chain(n=100, ns="big")
    result = lc_setup(1, chain.validator_set(0), 4, T23, gas_table)
    assert result.receipt.total == 100 * 100_000  # storage-dominated, 1e5 per entry


def test_normal_setup_gas_single_validator(gas_table):
    chain = _chain(n=1, ns="one")
    result = lc_setup(1, chain.validator_set(0), 4, T23, gas_table)
    assert result.receipt.total == 100_000


def test_hybrid_setup_gas_constant(gas_table):
    # 10 versus 1000 validators: identical setup gas (commitment storage is
    # size-independent); the big set uses synthetic key bytes, which the
    # commitment never needs to decompress
    import random

    from relaysim.crypto.commitment import ValidatorSet

    small = _chain(n=10, ns="s10")
    result = hlc_setup(1, small.validator_set(0), 4, T23, gas_table)
    assert result.receipt.total == 100_000
    rng = random.Random(1)
    huge = ValidatorSet.from_pairs(0, [(bytes([2]) + rng.randbytes(64), 1) for _ in range(1000)])
    result_big = hlc_setup(1, huge, 4, T23, gas_table)
    assert result_big.receipt.total == result.receipt.total


def test_setup_rejects_empty_set():
    # an empty validator set is unconstructible, so setup can never see one
    from relaysim.crypto.commitment import ValidatorSet

    with pytest.raises(ValueError):
        ValidatorSet(epoch=0, entries=())
    with pytest.raises(ValueError):
        ValidatorSet.from_pairs(0, [])


# ---------------------------------------------------------------------------
# verify paths


def test_normal_verify_honest(gas_table):
    chain = _chain()
    state = lc_setup(1, chain.validator_set(0), 4, T23, gas_table).state
    message, proof, header = _confirmed(chain)
    result = lc_verify(state, message, header, proof, gas_table)
    assert result.ok and result.reason is None


def test_normal_verify_tampered_message(gas_table):
    chain = _chain()
    state = lc_setup(1, chain.validator_set(0), 4, T23, gas_table).state
    message, proof, header = _confirmed(chain)
    tampered = dc_replace(message, payload=message.payload + b"x")
    result = lc_verify(state, tampered, header, proof, gas_table)
    assert not result.ok and result.reason == RejectReason.MERKLE_FAIL


def test_normal_verify_wrong_leaf_proof(gas_table):
    chain = _chain()
    state = lc_setup(1, chain.validator_set(0), 4, T23, gas_table).state
    ctx_a = chain.make_tx(2, AssetPayload(token="A", amount=1))
    ctx_b = chain.make_tx(2, AssetPayload(token="B", amount=2))
    chain.submit_tx(ctx_a)
    chain.submit_tx(ctx_b)
    block, header = chain.produce_block()
    message_a = block.receipts[0]
    proof_b = chain.receipt_proof(header.height, 1)
    result = lc_verify(state, message_a, header, proof_b, gas_table)
    assert not result.ok and result.reason == RejectReason.MERKLE_FAIL


def test_normal_verify_foreign_epoch(gas_table):
    chain = _chain(epoch_size=2)
    state = lc_setup(1, chain.validator_set(0), 2, T23, gas_table).state
    for _ in range(2):
        chain.produce_block()
    message, proof, header = _confirmed(chain)  # header in epoch 1
    result = lc_verify(state, message, header, proof, gas_table)
    assert not result.ok and result.reason == RejectReason.EPOCH_GAP


# ---------------------------------------------------------------------------
# update paths


def test_normal_update_advances_and_stores_set(gas_table):
    chain = _chain(epoch_size=3, rotation="reweight")
    state = lc_setup(1, chain.validator_set(0), 3, T23, gas_table).state
    while chain.height < 3:
        chain.produce_block()
    boundary = chain.headers[3]
    result = lc_update(state, boundary, gas_table)
    assert result.accepted
    assert result.state.epoch == 1
    assert commitment_digest(result.state.validator_set) == boundary.announced_commitment


def test_normal_update_rejects_epoch_gap(gas_table):
    chain = _chain(epoch_size=2)
    state = lc_setup(1, chain.validator_set(0), 2, T23, gas_table).state
    while chain.height < 4:
        chain.produce_block()
    skip = chain.headers[4]  # epoch 2 boundary presented to an epoch-0 client
    result = lc_update(state, skip, gas_table)
    assert not result.accepted and result.reason == RejectReason.EPOCH_GAP


def test_normal_update_rejects_insufficient_weight(gas_table):
    chain = _chain(n=4, epoch_size=2)
    state = lc_setup(1, chain.validator_set(0), 2, T23, gas_table).state
    chain.produce_block()
    chain.withhold_fraction(0.5)  # 2 of 4 sign: below 2/3
    with pytest.raises(Exception):
        chain.produce_block()
    chain.withhold_fraction(0.25)  # 3 of 4 sign: meets 2/3 exactly
    _, boundary = chain.produce_block()
    assert boundary.is_boundary
    good = lc_update(state, boundary, gas_table)
    assert good.accepted
    # sub-threshold bitmap on the same header must be rejected
    bad_bitmap = (True, False, False, False)
    forged = dc_replace(
        boundary, agg=dc_replace(boundary.agg, bitmap=bad_bitmap)
    )
    result = lc_update(state, forged, gas_table)
    assert not result.accepted and result.reason == RejectReason.INSUFFICIENT_WEIGHT


def test_hybrid_update_advances(gas_table, backend):
    chain = _chain(epoch_size=3, rotation="reweight")
    state = hlc_setup(1, chain.validator_set(0), 3, T23, gas_table).state
    while chain.height < 3:
        chain.produce_block()
    boundary = chain.headers[3]
    prover = Prover("p", backend)
    zk = prover.zk_proof_for(chain, boundary)
    result = hlc_update(state, boundary, zk, gas_table, backend)
    assert result.accepted
    assert result.state.epoch == 1
    assert result.state.commitment == boundary.announced_commitment
    # replay of the same boundary is a non-incremental epoch
    replay = hlc_update(result.state, boundary, zk, gas_table, backend)
    assert not replay.accepted and replay.reason == RejectReason.EPOCH_GAP


def test_hybrid_update_rejects_proof_for_other_header(gas_table, backend):
    chain = _chain(epoch_size=2, ns="hlc2")
    state = hlc_setup(1, chain.validator_set(0), 2, T23, gas_table).state
    while chain.height < 4:
        chain.produce_block()
    b1, b2 = chain.headers[2], chain.headers[4]
    prover = Prover("p", backend)
    zk_for_b2 = prover.zk_proof_for(chain, b2)
    result = hlc_update(state, b1, zk_for_b2, gas_table, backend)
    assert not result.accepted and result.reason == RejectReason.PUBLIC_INPUT_MISMATCH


def test_underweight_quorum_refused_by_both_backends(gas_table, backend, counting_backend):
    """A boundary signed below threshold never yields a proof: both backends
    refuse to attest the statement."""
    chain = _chain(n=4, epoch_size=2, ns="uw")
    chain.produce_block()
    chain.withhold_fraction(0.25)
    _, boundary = chain.produce_block()  # 3/4 weight: exactly at threshold, fine
    statement = statement_for_header(chain, boundary)
    # weaken the bitmap below threshold while keeping the claim consistent
    weak_bitmap = (True, True, False, False)
    weak = dc_replace(
        statement,
        publics=dc_replace(statement.publics, claimed_weight=2),
        witness=dc_replace(statement.witness, bitmap=weak_bitmap),
    )
    for b in (backend, counting_backend):
        with pytest.raises(UnsatisfiedStatement):
            b.prove(weak)


def test_hybrid_verify_perturbation_sweep(gas_table, backend):
    """Any single perturbed input (message, root, merkle proof, commitment)
    flips the verdict to false."""
    chain = _chain(ns="sweep")
    state = hlc_setup(1, chain.validator_set(0), 4, T23, gas_table).state
    message, proof, header = _confirmed(chain)
    prover = Prover("p", backend)
    zk = prover.zk_proof_for(chain, header)
    ok = hlc_verify(state, message, header, proof, zk, gas_table, backend)
    assert ok.ok

    tampered_m = dc_replace(message, payload=message.payload[:-1] + b"\x00")
    assert not hlc_verify(state, tampered_m, header, proof, zk, gas_table, backend).ok

    tampered_root = dc_replace(header, receipt_root=b"\x11" * 32)
    assert not hlc_verify(state, message, tampered_root, proof, zk, gas_table, backend).ok

    tampered_proof = dc_replace(proof, path=((b"\x22" * 32, "L"),) + proof.path)
    assert not hlc_verify(state, message, header, tampered_proof, zk, gas_table, backend).ok

    tampered_state = dc_replace(state, commitment=b"\x33" * 32)
    assert not hlc_verify(tampered_state, message, header, proof, zk, gas_table, backend).ok

    tampered_zk = dc_replace(zk, attestation=bytes(32))
    assert not hlc_verify(state, message, header, proof, tampered_zk, gas_table, backend).ok


# ---------------------------------------------------------------------------
# gas anchors and monotonicity


def _hundred_validator_workload(gas_table, backend):
    chain = Chain(
        ChainConfig(chain_id=9, epoch_size=10, weights=(1,) * 100, key_namespace="anchor")
    )
    message, proof, header = _confirmed(chain, dest=10)
    normal = lc_setup(9, chain.validator_set(0), 10, T23, gas_table)
    hybrid = hlc_setup(9, chain.validator_set(0), 10, T23, gas_table)
    zk = Prover("p", backend).zk_proof_for(chain, header)
    nv = lc_verify(normal.state, message, header, proof, gas_table)
    hv = hlc_verify(hybrid.state, message, header, proof, zk, gas_table, backend)
    assert nv.ok and hv.ok
    return normal, hybrid, nv, hv


def test_gas_anchors_at_100_validators(gas_table, backend):
    normal, hybrid, nv, hv = _hundred_validator_workload(gas_table, backend)
    assert normal.receipt.total == 10_000_000
    assert hybrid.receipt.total == 100_000
    assert abs(nv.receipt.total - 1_000_000) <= 100_000  # within 10% of 1.0e6
    assert abs(hv.receipt.total - 650_000) <= 65_000  # within 10% of 0.65e6
    assert hv.receipt.total / nv.receipt.total <= 0.70


def test_update_gas_growth(gas_table, backend):
    """Normal update cost grows linearly with the validator count; hybrid
    update cost does not move at all."""
    normal_totals = {}
    hybrid_totals = {}
    for n in (4, 16, 64, 256):
        chain = Chain(
            ChainConfig(chain_id=3, epoch_size=2, weights=(1,) * n, key_namespace=f"mono{n}")
        )
        nstate = lc_setup(3, chain.validator_set(0), 2, T23, gas_table).state
        hstate = hlc_setup(3, chain.validator_set(0), 2, T23, gas_table).state
        while chain.height < 2:
            chain.produce_block()
        boundary = chain.headers[2]
        nres = lc_update(nstate, boundary, gas_table)
        zk = Prover("p", backend).zk_proof_for(chain, boundary)
        hres = hlc_update(hstate, boundary, zk, gas_table, backend)
        assert nres.accepted and hres.accepted
        normal_totals[n] = nres.receipt.total
        hybrid_totals[n] = hres.receipt.total
    assert len(set(hybrid_totals.values())) == 1, "hybrid update must be n-independent"
    # linear growth: per-validator increments match across spans
    n_list = sorted(normal_totals)
    slopes = [
        (normal_totals[b] - normal_totals[a]) / (b - a)
        for a, b in zip(n_list, n_list[1:])
    ]
    assert max(slopes) - min(slopes) < 1e-6
    assert slopes[0] > 0


def test_metering_soundness(gas_table, backend):
    """Receipt totals equal the sum of primitive counts times table constants,
    and the counts match the workload shape."""
    chain = _chain(n=5, ns="meter")
    state = lc_setup(1, chain.validator_set(0), 4, T23, gas_table).state
    ctxs = [chain.make_tx(2, MessagePayload(bytes([i]))) for i in range(4)]
    for c in ctxs:
        chain.submit_tx(c)
    block, header = chain.produce_block()
    message = block.receipts[0]
    proof = chain.receipt_proof(header.height, 0)
    result = lc_verify(state, message, header, proof, gas_table)
    assert result.ok
    receipt = result.receipt
    recomputed = sum(count * gas_table.unit(label) for label, count, _ in receipt.items)
    assert receipt.total == recomputed
    assert receipt.count("sload_word") == 5 * gas_table.validator_words
    assert receipt.count("g2_add") == 4  # five signers -> four additions
    assert receipt.count("pairing_check") == 2
    assert receipt.count("merkle_level") == len(proof.path) == 2
    assert receipt.count("weight_step") == 5


def test_hybrid_receipt_items_pinned(gas_table, backend):
    """The exact gas items of hlc_verify and hlc_update, on acceptance and on
    each rejection, with the default table: the proof check charges three
    storage reads, four hash operations and one SNARK verification."""
    chain = _chain(ns="receipts")
    ctxs = [chain.make_tx(2, AssetPayload(token="T", amount=5 + i)) for i in range(3)]
    for ctx in ctxs:
        chain.submit_tx(ctx)
    block, header = chain.produce_block()
    message, proof = block.receipts[0], chain.receipt_proof(header.height, 0)
    state = hlc_setup(1, chain.validator_set(0), 4, T23, gas_table).state
    prover = Prover("p", backend)
    zk = prover.zk_proof_for(chain, header)
    bad_zk = dc_replace(zk, attestation=bytes(32))
    tampered = dc_replace(message, payload=message.payload[:-1] + b"\x00")
    other_state = dc_replace(state, commitment=b"\x33" * 32)

    call = (("call_overhead", 1, 21_000),)
    publics = call + (("sload_word", 3, 800), ("hash_op", 4, 60))
    snark = publics + (("snark_verify", 1, 626_000),)
    verify_cases = [
        (state, message, zk, None, snark + (("merkle_level", 2, 700),)),
        (dc_replace(state, epoch=2), message, zk, RejectReason.EPOCH_GAP, call),
        (other_state, message, zk, RejectReason.PUBLIC_INPUT_MISMATCH, publics),
        (state, message, bad_zk, RejectReason.PROOF_INVALID, snark),
        (state, tampered, zk, RejectReason.MERKLE_FAIL, snark + (("merkle_level", 2, 700),)),
    ]
    for st, message, zk_proof, reason, items in verify_cases:
        result = hlc_verify(st, message, header, proof, zk_proof, gas_table, backend)
        assert (result.ok, result.reason) == (reason is None, reason)
        assert result.receipt.operation == "hlc_verify"
        assert result.receipt.items == items, reason

    while chain.height < 4:
        chain.produce_block()
    boundary = chain.headers[4]
    zb = prover.zk_proof_for(chain, boundary)
    update_cases = [
        (boundary, zb, None, snark + (("sstore_word", 2, 20_000),)),
        (header, zk, RejectReason.EPOCH_GAP, call),
        (boundary, zk, RejectReason.PUBLIC_INPUT_MISMATCH, publics),
        (boundary, dc_replace(zb, attestation=bytes(32)), RejectReason.PROOF_INVALID, snark),
    ]
    for hdr, zk_proof, reason, items in update_cases:
        result = hlc_update(state, hdr, zk_proof, gas_table, backend)
        assert (result.accepted, result.reason) == (reason is None, reason)
        assert result.receipt.operation == "hlc_update"
        assert result.receipt.items == items, reason


_VERIFY_OUTCOMES = [
    None,
    RejectReason.EPOCH_GAP,
    RejectReason.PUBLIC_INPUT_MISMATCH,
    RejectReason.PROOF_INVALID,
    RejectReason.MERKLE_FAIL,
]


def _metered_verify_receipt(table, reason, depth):
    """`hlc_verify`'s receipt charged step by step on a `GasMeter`, as the
    client's branches reach each charge."""
    meter = GasMeter(table, "hlc_verify")
    meter.charge("call_overhead")
    if reason is not RejectReason.EPOCH_GAP:
        meter.charge("sload_word", 3)
        meter.charge("hash_op", 3)
        meter.charge("hash_op", 1)
        if reason is not RejectReason.PUBLIC_INPUT_MISMATCH:
            meter.charge("snark_verify")
            if reason is not RejectReason.PROOF_INVALID:
                meter.charge("merkle_level", depth)
    return meter.receipt()


@pytest.mark.parametrize("table", [GasCostTable(), GasCostTable(merkle_level=3, snark_verify=11, sload_word=0)])
@pytest.mark.parametrize("reason", _VERIFY_OUTCOMES, ids=lambda r: "ok" if r is None else r.value)
def test_verify_receipts_by_lookup_equal_metered_ones(table, reason):
    """For each outcome and each proof depth from 0 to 13, the result
    `hlc_verify` looks up holds the receipt a `GasMeter` builds for that
    branch, one shared object per outcome and table; only an accepted or
    Merkle-refused receipt reads the depth."""
    for depth in range(14):
        read = depth if reason in (None, RejectReason.MERKLE_FAIL) else 0
        result = verify_result(table, reason, read)
        metered = _metered_verify_receipt(table, reason, depth)
        assert (result.ok, result.reason) == (reason is None, reason)
        assert result.receipt == metered and result.receipt.items == metered.items
        assert result.receipt.total == metered.total
        assert verify_result(table, reason, read) is result
    assert verify_result(GasCostTable(call_overhead=1), reason).receipt != verify_result(table, reason).receipt


def test_a_refused_path_of_each_depth_pays_its_levels(gas_table, backend):
    """Through `hlc_verify`, an audit path of 0 to 13 levels that does not
    lead to the root from a tampered receipt is refused with the receipt
    metered for its depth."""
    chain = _chain(ns="depths")
    state = hlc_setup(1, chain.validator_set(0), 4, T23, gas_table).state
    message, _, header = _confirmed(chain)
    zk = Prover("p", backend).zk_proof_for(chain, header)
    tampered = dc_replace(message, payload=message.payload + b"\x00")
    for depth in range(14):
        path = tuple((bytes([level]) * 32, "LR"[level % 2]) for level in range(depth))
        result = hlc_verify(state, tampered, header, MerkleProof(path), zk, gas_table, backend)
        assert result.reason == RejectReason.MERKLE_FAIL
        assert result.receipt == _metered_verify_receipt(gas_table, RejectReason.MERKLE_FAIL, depth)


# ---------------------------------------------------------------------------
# epoch safety


def test_stale_quorum_rejected_after_key_rotation(gas_table):
    """Once keys rotate, headers signed by the previous epoch's quorum no
    longer verify against the advanced client."""
    chain = _chain(n=3, epoch_size=2, rotation="refresh", ns="stale")
    state = lc_setup(1, chain.validator_set(0), 2, T23, gas_table).state
    old_message, old_proof, old_header = _confirmed(chain)  # height 1, epoch 0
    while chain.height < 2:
        chain.produce_block()
    advanced = lc_update(state, chain.headers[2], gas_table)
    assert advanced.accepted
    # replaying the epoch-0 header against the advanced client fails
    result = lc_verify(advanced.state, old_message, old_header, old_proof, gas_table)
    assert not result.ok and result.reason == RejectReason.EPOCH_GAP
    # a fresh header forged with the stale keys carries the wrong signatures
    stale_secrets = chain.epoch_secrets(0)
    from relaysim.chain import AggregateSignature
    from relaysim.crypto import bls

    fresh = chain.headers[3] if chain.height >= 3 else chain.produce_block()[1]
    payload = fresh.signing_payload()
    stale_sigs = [bls.sign(sk, payload) for sk in stale_secrets.values()]
    forged = dc_replace(
        fresh,
        agg=AggregateSignature(point=bls.aggregate(stale_sigs), bitmap=(True,) * 3),
    )
    ctx = chain.make_tx(2, AssetPayload(token="S", amount=1))
    chain.submit_tx(ctx)
    block, _ = chain.produce_block()
    message = block.receipts[0]
    proof = chain.receipt_proof(block.header.height, 0)
    result = lc_verify(advanced.state, message, forged, proof, gas_table)
    assert not result.ok and result.reason == RejectReason.BAD_SIGNATURE


def test_epoch_safety_adversarial_header_corpus(gas_table, backend):
    """No adversarial boundary header advances a client's epoch unless a
    threshold quorum of the previously stored set attested the transition
    payload. The normal client reads the attached aggregate; the hybrid
    client trusts only the proof, so its corpus attacks the payload/proof
    binding instead."""
    from relaysim.chain import AggregateSignature
    from relaysim.crypto import bls

    chain = _chain(n=4, epoch_size=2, rotation="reweight", ns="safety")
    nstate = lc_setup(1, chain.validator_set(0), 2, T23, gas_table).state
    hstate = hlc_setup(1, chain.validator_set(0), 2, T23, gas_table).state
    while chain.height < 2:
        chain.produce_block()
    boundary = chain.headers[2]
    prover = Prover("p", backend)
    honest_zk = prover.zk_proof_for(chain, boundary)

    adversary = [bls.keygen(f"adv/{i}") for i in range(4)]
    payload = boundary.signing_payload()
    wrong_keys = dc_replace(
        boundary,
        agg=AggregateSignature(
            point=bls.aggregate([bls.sign(k.secret, payload) for k in adversary]),
            bitmap=(True,) * 4,
        ),
    )
    underweight = dc_replace(
        boundary, agg=dc_replace(boundary.agg, bitmap=(True, False, False, False))
    )
    future = dc_replace(boundary, epoch=3, height=6)
    replayed_genesis = chain.headers[0]

    # normal client: signature and weight come from the header itself
    for header, expected in [
        (wrong_keys, RejectReason.BAD_SIGNATURE),
        (underweight, RejectReason.INSUFFICIENT_WEIGHT),
        (future, RejectReason.EPOCH_GAP),
        (replayed_genesis, RejectReason.EPOCH_GAP),
    ]:
        nres = lc_update(nstate, header, gas_table)
        assert not nres.accepted and nres.reason == expected
        assert nres.state.epoch == 0

    # hybrid client: a fabricated transition payload has no attestable proof
    fake_commitment = b"\x44" * 32
    fabricated = dc_replace(boundary, announced_commitment=fake_commitment)
    with_honest_proof = hlc_update(hstate, fabricated, honest_zk, gas_table, backend)
    assert not with_honest_proof.accepted
    assert with_honest_proof.reason == RejectReason.PUBLIC_INPUT_MISMATCH
    forged_zk = dc_replace(honest_zk, attestation=bytes(32))
    with_forged_proof = hlc_update(hstate, boundary, forged_zk, gas_table, backend)
    assert not with_forged_proof.accepted
    assert with_forged_proof.reason == RejectReason.PROOF_INVALID
    for header in (future, replayed_genesis):
        hres = hlc_update(hstate, header, honest_zk, gas_table, backend)
        assert not hres.accepted and hres.reason == RejectReason.EPOCH_GAP
        assert hres.state.epoch == 0

    # and the honest transition still works for both
    assert lc_update(nstate, boundary, gas_table).accepted
    assert hlc_update(hstate, boundary, honest_zk, gas_table, backend).accepted


# ---------------------------------------------------------------------------
# client equivalence


def test_client_equivalence_randomized_suite(gas_table, backend):
    """Normal and hybrid clients agree on >= 500 honestly generated and
    tampered workloads, including across epoch rotations."""
    rng = random.Random(515)
    chain = Chain(
        ChainConfig(chain_id=4, epoch_size=3, weights=(1, 1, 2), rotation="reweight", key_namespace="eq")
    )
    nstate = lc_setup(4, chain.validator_set(0), 3, T23, gas_table).state
    hstate = hlc_setup(4, chain.validator_set(0), 3, T23, gas_table).state
    prover = Prover("eq", backend)

    cases = []
    for round_no in range(6):  # two epochs' worth of blocks with receipts
        for _ in range(2):
            ctx = chain.make_tx(9, AssetPayload(token="E", amount=rng.randrange(100)))
            chain.submit_tx(ctx)
            block, header = chain.produce_block()
            message = block.receipts[0]
            proof = chain.receipt_proof(header.height, 0)
            cases.append((message, header, proof))
        if chain.height % 3 == 0 or chain.headers[-1].is_boundary:
            pass
        # advance clients when a boundary appears
        for h in chain.headers:
            if h.is_boundary and h.epoch == nstate.epoch + 1:
                nres = lc_update(nstate, h, gas_table)
                hres = hlc_update(hstate, h, prover.zk_proof_for(chain, h), gas_table, backend)
                assert nres.accepted == hres.accepted
                if nres.accepted:
                    nstate, hstate = nres.state, hres.state

    checked = 0
    while checked < 500:
        message, header, proof = rng.choice(cases)
        variant = rng.randrange(4)
        if variant == 1:
            message = dc_replace(message, payload=message.payload + b"!")
        elif variant == 2:
            header = dc_replace(header, receipt_root=rng.randbytes(32))
        elif variant == 3:
            proof = dc_replace(proof, path=((rng.randbytes(32), "L"),) + proof.path)
        zk = prover.zk_proof_for(chain, header) if variant != 2 else dc_replace(
            prover.zk_proof_for(chain, chain.block_at(header.height).header),
            attestation=rng.randbytes(32),
        )
        nres = lc_verify(nstate, message, header, proof, gas_table)
        hres = hlc_verify(hstate, message, header, proof, zk, gas_table, backend)
        assert nres.ok == hres.ok, f"divergence on variant {variant}: {nres.reason} vs {hres.reason}"
        checked += 1
    assert checked >= 500


def test_off_curve_signature_rejected_by_both_client_families(gas_table, backend, counting_backend):
    """A signature moved off the curve keeps its compressed encoding (same x,
    same y parity), so it must be refused as a point, not as bytes: lc_update
    rejects it for the same gas as an on-curve wrong signature, and neither
    backend proves it, so hlc_update/hlc_verify never see a proof for it."""
    chain = _chain(epoch_size=2, ns="offcurve")
    state = lc_setup(1, chain.validator_set(0), 2, T23, gas_table).state
    chain.produce_block()
    _, boundary = chain.produce_block()
    x, y = boundary.agg.point
    off_curve = dc_replace(boundary, agg=dc_replace(boundary.agg, point=(x, (y + 2) % P)))
    wrong = dc_replace(boundary, agg=dc_replace(boundary.agg, point=g1_neg(boundary.agg.point)))
    assert lc_update(state, boundary, gas_table).accepted
    rejected = lc_update(state, off_curve, gas_table)
    assert not rejected.accepted and rejected.reason == RejectReason.BAD_SIGNATURE
    assert rejected.receipt == lc_update(state, wrong, gas_table).receipt
    for b in (backend, counting_backend):
        b.prove(statement_for_header(chain, boundary))
        with pytest.raises(UnsatisfiedStatement):
            b.prove(statement_for_header(chain, off_curve))


# ---------------------------------------------------------------------------
# the memo of header terms


def test_header_digest_memo_keyed_on_hash_algo():
    """The same header under two hash algorithms yields each algorithm's
    digest, whichever was derived first; the base-field term is shared."""
    chain = _chain(ns="memo-algo")
    _, _, header = _confirmed(chain)
    commitment = commitment_digest(chain.validator_set(0))
    lightclient._header_terms.cache_clear()
    first = public_inputs(header, commitment, T23, "sha256", 4)
    other = public_inputs(header, commitment, T23, "sha3_256", 4)
    again = public_inputs(header, commitment, T23, "sha256", 4)
    assert first.header_digest == again.header_digest == header.digest("sha256")
    assert other.header_digest == header.digest("sha3_256") != first.header_digest
    assert other.t == first.t


def test_warm_memo_still_rejects_header_with_other_receipt_root(gas_table, backend):
    """After the honest header has warmed the memo, a header that differs
    only in its receipt root fails the public-input comparison, and is
    charged exactly what a cold rejection is charged."""
    chain = _chain(ns="memo-root")
    state = hlc_setup(1, chain.validator_set(0), 4, T23, gas_table).state
    message, proof, header = _confirmed(chain)
    zk = Prover("p", backend).zk_proof_for(chain, header)
    forged = dc_replace(header, receipt_root=b"\x11" * 32)
    lightclient._header_terms.cache_clear()
    cold = hlc_verify(state, message, forged, proof, zk, gas_table, backend)
    assert hlc_verify(state, message, header, proof, zk, gas_table, backend).ok
    warm = hlc_verify(state, message, forged, proof, zk, gas_table, backend)
    assert warm.reason == cold.reason == RejectReason.PUBLIC_INPUT_MISMATCH
    assert warm.receipt == cold.receipt


# ---------------------------------------------------------------------------
# the memo of the last proof check that passed


def _counted_verify(monkeypatch, backend):
    """Record each proof `backend.verify` is called with."""
    calls = []
    verify = backend.verify

    def counted(proof, publics):
        calls.append(proof)
        return verify(proof, publics)

    monkeypatch.setattr(backend, "verify", counted)
    return calls


def test_passed_proof_memo_rejects_tampered_proof_for_same_header(gas_table, backend):
    """After the honest bundle passes, a tampered proof object for the same
    header is rejected as a cold client rejects it: same reason, same gas."""
    chain = _chain(ns="memo-proof")
    state = hlc_setup(1, chain.validator_set(0), 4, T23, gas_table).state
    message, proof, header = _confirmed(chain)
    zk = Prover("p", backend).zk_proof_for(chain, header)
    other_publics = dc_replace(zk.publics, commitment=b"\x33" * 32)
    forged = [
        (dc_replace(zk, attestation=bytes(32)), RejectReason.PROOF_INVALID),
        (dc_replace(zk, publics=other_publics), RejectReason.PUBLIC_INPUT_MISMATCH),
    ]
    cold = [hlc_verify(state, message, header, proof, z, gas_table, backend) for z, _ in forged]
    assert hlc_verify(state, message, header, proof, zk, gas_table, backend).ok
    for (z, reason), before in zip(forged, cold):
        warm = hlc_verify(state, message, header, proof, z, gas_table, backend)
        assert warm.reason == before.reason == reason
        assert warm.receipt == before.receipt


def test_passed_proof_memo_rechecks_under_another_client_state(monkeypatch, gas_table, backend):
    """After a boundary update, the first bundle of the new epoch is checked
    under the updated client; under a client that reached the same epoch but
    kept the old commitment, the same bundle is checked again and refused."""
    chain = _chain(epoch_size=2, rotation="refresh", ns="memo-state")
    state0 = hlc_setup(1, chain.validator_set(0), 2, T23, gas_table).state
    while chain.height < 2:
        chain.produce_block()
    prover = Prover("p", backend)
    boundary = chain.headers[2]
    update = hlc_update(state0, boundary, prover.zk_proof_for(chain, boundary), gas_table, backend)
    assert update.accepted
    message, proof, header = _confirmed(chain)  # mid-epoch 1, signed by the rotated set
    zk = prover.zk_proof_for(chain, header)
    calls = _counted_verify(monkeypatch, backend)
    assert hlc_verify(update.state, message, header, proof, zk, gas_table, backend).ok
    assert calls == [zk]
    stale = dc_replace(update.state, commitment=state0.commitment)
    result = hlc_verify(stale, message, header, proof, zk, gas_table, backend)
    assert result.reason == RejectReason.PUBLIC_INPUT_MISMATCH


def test_equal_copy_of_passed_proof_is_verified_again(monkeypatch, gas_table, backend):
    """The memo matches by identity: the proof object that passed is not
    verified again, at the same gas, but an equal copy of it is."""
    chain = _chain(ns="memo-copy")
    state = hlc_setup(1, chain.validator_set(0), 4, T23, gas_table).state
    message, proof, header = _confirmed(chain)
    zk = Prover("p", backend).zk_proof_for(chain, header)
    calls = _counted_verify(monkeypatch, backend)
    first, again = (hlc_verify(state, message, header, proof, zk, gas_table, backend) for _ in range(2))
    assert first.ok and again.ok and again.receipt == first.receipt
    assert calls == [zk]
    copy = dc_replace(zk)
    assert copy == zk and copy is not zk
    assert hlc_verify(state, message, header, proof, copy, gas_table, backend).ok
    assert len(calls) == 2 and calls[1] is copy
