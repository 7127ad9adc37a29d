"""Chain production: quorum thresholds, receipts, epochs, determinism."""

from dataclasses import replace
from fractions import Fraction

import pytest

from relaysim.chain import (
    AggregateSignature,
    AssetPayload,
    BlockReleased,
    BlockWithheld,
    Chain,
    ChainConfig,
    CrossChainTx,
    LogicalClock,
    MessagePayload,
    ReceiptMessage,
    decode_ctx,
)
from relaysim.crypto import bls, bn254
from relaysim.crypto.commitment import commitment_digest
from relaysim.crypto.hashes import SUPPORTED
from relaysim.crypto.merkle import merkle_verify


def test_new_chain_genesis_state():
    chain = Chain(ChainConfig(chain_id=1, epoch_size=10, weights=(1, 2, 3, 4)))
    assert chain.height == 0
    assert chain.current_epoch == 0
    assert chain.validator_set(0).total_weight == 10


def test_epoch_size_zero_rejected():
    with pytest.raises(ValueError):
        ChainConfig(chain_id=1, epoch_size=0, weights=(1,))


def test_no_validators_rejected():
    with pytest.raises(ValueError):
        ChainConfig(chain_id=1, epoch_size=5, weights=())


def test_chain_config_reports_every_failed_check():
    with pytest.raises(ValueError) as err:
        ChainConfig(chain_id=1, epoch_size=0, weights=(), vote_threshold=Fraction(1, 3), rotation="x", hash_algo="md5")
    assert err.value.args == (
        "epoch size must be at least 1",
        "need at least one validator",
        "vote threshold must lie in [1/2, 1]",
        "unknown rotation policy 'x'",
        f"unknown hash algorithm 'md5'; pick one of {SUPPORTED}",
    )


def test_threshold_range_enforced():
    with pytest.raises(ValueError):
        ChainConfig(chain_id=1, epoch_size=5, weights=(1,), vote_threshold=Fraction(1, 3))
    with pytest.raises(ValueError):
        ChainConfig(chain_id=1, epoch_size=5, weights=(1,), vote_threshold=Fraction(4, 3))


def test_identical_configs_identical_genesis():
    cfg = ChainConfig(chain_id=7, epoch_size=5, weights=(3, 1), key_namespace="x")
    assert Chain(cfg).headers[0] == Chain(cfg).headers[0]


def test_submit_queues_and_the_block_hashes(small_chain):
    """`submit_tx` queues and returns nothing; the receipt hash,
    `ctx.tx_hash`, is made with the block."""
    ctx = small_chain.make_tx(2, AssetPayload(token="USDC", amount=100))
    assert small_chain.submit_tx(ctx) is None
    assert small_chain.pending_count == 1
    assert small_chain.block_at(small_chain.height).receipts == ()  # not yet produced
    block, _ = small_chain.produce_block()
    assert [r.tx_hash for r in block.receipts] == [ctx.tx_hash]


def test_submit_to_self_rejected(small_chain):
    ctx = small_chain.make_tx(1, AssetPayload(token="USDC", amount=1))
    with pytest.raises(ValueError):
        small_chain.submit_tx(ctx)


def test_submission_order_preserved_across_blocks():
    cfg = ChainConfig(chain_id=1, epoch_size=100, weights=(1, 1), max_block_txs=16)
    chain = Chain(cfg)
    hashes = []
    for i in range(100):
        ctx = chain.make_tx(2, MessagePayload(call_data=bytes([i])))
        chain.submit_tx(ctx)
        hashes.append(ctx.tx_hash)
    confirmed = []
    while chain.pending_count:
        block, _ = chain.produce_block()
        confirmed.extend(r.tx_hash for r in block.receipts)
    assert confirmed == hashes


def test_full_quorum_bitmap_and_signature(small_chain):
    small_chain.submit_tx(small_chain.make_tx(2, AssetPayload(token="T", amount=1)))
    _, header = small_chain.produce_block()
    assert header.agg.bitmap == (True, True, True, True)
    vset = small_chain.signing_set_for(header)
    apk = bls.aggregate_pubkeys(vset.pubkeys(), header.agg.bitmap)
    assert bls.verify_aggregate(apk, header.signing_payload(), header.agg.point)


def test_weighted_threshold_arithmetic():
    cfg = ChainConfig(chain_id=1, epoch_size=10, weights=(30, 30, 40))
    chain = Chain(cfg)
    # withhold weight 60: available 40 < 2/3 of 100
    withheld = chain.withhold_fraction(0.6)
    assert withheld == 60
    with pytest.raises(BlockWithheld):
        chain.produce_block()
    # withhold weight 30: available 70 >= 2/3 of 100
    assert chain.withhold_fraction(0.3) == 30
    _, header = chain.produce_block()
    vset = chain.signing_set_for(header)
    assert vset.bitmap_weight(header.agg.bitmap) == 70


def test_quorum_is_checked_before_signing(monkeypatch):
    chain = Chain(ChainConfig(chain_id=1, epoch_size=10, weights=(30, 30, 40)))
    chain.withhold_fraction(0.6)
    monkeypatch.setattr(bls, "sign", lambda *args: pytest.fail("signed a withheld block"))
    with pytest.raises(BlockWithheld):
        chain.produce_block()


def test_a_withheld_block_leaves_its_records_pending_and_the_clock_still():
    """A block below the quorum takes nothing: its records wait for the
    next block that reaches it, and no tick is spent on it."""
    chain = Chain(ChainConfig(chain_id=1, epoch_size=10, weights=(30, 30, 40), key_namespace="wh-keep"))
    tx = chain.make_tx(2, AssetPayload(token="T", amount=1))
    chain.submit_tx(tx)
    chain.withhold_fraction(0.6)
    now = chain.clock.now
    for _ in range(2):
        with pytest.raises(BlockWithheld):
            chain.produce_block()
    assert (chain.pending_count, chain.clock.now, chain.height) == (1, now, 0)
    chain.withhold_fraction(0.0)
    block, header = chain.produce_block()
    assert block.records == (tx,) and header.timestamp == now + 1 and chain.pending_count == 0


def test_each_block_is_assembled_once_and_a_fork_is_not_appended(monkeypatch):
    """`produce_block` builds one header per block. `assemble_block` makes
    the block at a given height with any signers, quorum or not, and
    appends nothing: its header takes one tick and is signed by exactly the
    marked validators of the set that signs at that height."""
    import relaysim.chain as chain_module

    built = []
    header_type = chain_module.BlockHeader
    monkeypatch.setattr(chain_module, "BlockHeader", lambda *args: built.append(args) or header_type(*args))
    chain = Chain(ChainConfig(chain_id=1, epoch_size=4, weights=(1, 1, 1, 1), key_namespace="fork"))
    for _ in range(5):
        chain.produce_block()
    assert len(built) == chain.height + 1 == 6

    tx = chain.make_tx(2, AssetPayload(token="F", amount=9))
    now, bitmap = chain.clock.now, (True, False, False, True)  # half the weight: no quorum
    fork = chain.assemble_block(5, [tx], bitmap)
    assert (chain.height, chain.clock.now, chain.pending_count) == (5, now + 1, 0)
    header = fork.header
    assert (header.height, header.epoch, header.timestamp, header.is_boundary) == (5, 1, now + 1, False)
    assert header != chain.header_at(5) and fork.records == (tx,)
    assert header.receipt_root == fork.tree.root and merkle_verify(
        header.receipt_root, fork.receipts[0].to_bytes(), fork.tree.prove(0)
    )
    vset = chain.signing_set_for(header)
    assert vset == chain.validator_set(1) and header.agg.bitmap == bitmap
    secrets = chain.epoch_secrets(1)
    signers = [secrets[e.pubkey_bytes] for e, bit in zip(vset.entries, bitmap) if bit]
    assert header.agg.point == bls.sign_aggregate(signers, header.signing_payload())


def _signer_secrets(chain, header):
    vset = chain.signing_set_for(header)
    secrets = chain.epoch_secrets(vset.epoch)
    return [secrets[e.pubkey_bytes] for e, bit in zip(vset.entries, header.agg.bitmap) if bit]


def test_a_header_is_signed_when_its_signature_is_first_read(monkeypatch):
    """Producing a block signs nothing; the first read of `agg.point` signs
    once, with the signers captured at production, and gives the point that
    signing eagerly gives. Reading the bitmap or the payload signs nothing."""
    calls = []
    monkeypatch.setattr(bls, "sign", lambda *args, _fn=bls.sign: calls.append(args) or _fn(*args))
    chain = Chain(ChainConfig(chain_id=1, epoch_size=3, weights=(1, 1, 1, 1), key_namespace="lazy"))
    chain.withhold_fraction(0.25)
    for _ in range(4):
        chain.produce_block()
    header = chain.header_at(2)
    assert header.agg.bitmap == (False, True, True, True) and header.signing_payload()
    assert calls == []
    signers = _signer_secrets(chain, header)
    point = header.agg.point
    assert header.agg.point is point and len(calls) == 1
    assert point == bls.sign_aggregate(signers, header.signing_payload())
    assert len(calls) == 2  # the eager reference above; no header signed again
    assert "point" not in vars(chain.header_at(1).agg)


def test_withholding_after_production_leaves_a_produced_signature_unchanged():
    chain = Chain(ChainConfig(chain_id=1, epoch_size=10, weights=(1, 1, 1, 1), key_namespace="wh-late"))
    _, header = chain.produce_block()
    expected = bls.sign_aggregate(_signer_secrets(chain, header), header.signing_payload())
    assert chain.withhold_fraction(0.25) == 1
    assert header.agg.bitmap == (True,) * 4
    assert header.agg.point == expected
    assert chain.produce_block()[1].agg.bitmap == (False, True, True, True)


def test_a_signed_on_read_aggregate_acts_as_a_plain_one():
    """Construction, `replace`, equality and hashing read the signature;
    the summed secret is no field, so no repr or comparison shows it."""
    chain = Chain(ChainConfig(chain_id=1, epoch_size=10, weights=(1, 1, 1, 1), key_namespace="plain"))
    _, header = chain.produce_block()
    agg = header.agg
    secret = sum(_signer_secrets(chain, header)) % bn254.R
    text = repr(agg)
    assert str(secret) not in text and hex(secret)[2:] not in text
    assert "point" in vars(agg) and "_unsigned" not in vars(agg)
    plain = AggregateSignature(point=agg.point, bitmap=agg.bitmap)
    assert plain == agg and agg == plain and hash(plain) == hash(agg)
    assert replace(agg, bitmap=(True,) * 3 + (False,)) == AggregateSignature(agg.point, (True,) * 3 + (False,))
    other = Chain(ChainConfig(chain_id=1, epoch_size=10, weights=(1, 1, 1, 1), key_namespace="plain"))
    other.produce_block()
    assert other.header_at(1) == header and {other.header_at(1).agg: 1}[agg] == 1
    fresh = AggregateSignature.sign_on_read(agg.bitmap, secret + 1, header.signing_payload())
    assert fresh != agg and fresh.point != agg.point
    assert replace(header, agg=replace(header.agg, point=None)).agg.point is None
    with pytest.raises(AttributeError):
        agg.secret


def test_boundary_header_announces_rotated_set():
    cfg = ChainConfig(chain_id=1, epoch_size=4, weights=(1, 1, 1), rotation="reweight")
    chain = Chain(cfg)
    while chain.height < 4:
        chain.produce_block()
    boundary = chain.headers[4]
    assert boundary.is_boundary
    assert boundary.epoch == 1
    announced = boundary.announced_set
    assert announced is not None
    assert announced.epoch == 1
    assert boundary.announced_commitment == commitment_digest(announced)
    # signed by the previous epoch's set
    assert chain.signing_set_for(boundary).epoch == 0


def test_epoch_is_height_over_epoch_size():
    chain = Chain(ChainConfig(chain_id=1, epoch_size=3, weights=(1,)))
    for _ in range(9):
        chain.produce_block()
    for header in chain.headers:
        assert header.epoch == header.height // 3
        assert header.is_boundary == (header.height % 3 == 0)


def test_block_confirmation_and_receipt_proof_verify(small_chain):
    """Each receipt and its record are read from its block, and its audit
    path from its position there; the two verify against the header's root."""
    ctxs = [small_chain.make_tx(2, AssetPayload(token="USDC", amount=100 + i)) for i in range(3)]
    for ctx in ctxs:
        small_chain.submit_tx(ctx)
    block, header = small_chain.produce_block()
    for i, ctx in enumerate(ctxs):
        message = block.receipts[i]
        assert (block.header, block.records[i]) == (header, ctx)
        assert message.payload == ctx.to_bytes()
        proof = small_chain.receipt_proof(header.height, i)
        assert merkle_verify(header.receipt_root, message.to_bytes(), proof)


def test_receipt_proof_index_out_of_range(small_chain):
    small_chain.submit_tx(small_chain.make_tx(2, AssetPayload(token="USDC", amount=1)))
    _, header = small_chain.produce_block()
    with pytest.raises(IndexError):
        small_chain.receipt_proof(header.height, 1)


@pytest.mark.parametrize(
    "case", ["block without receipts", "height not yet produced", "index past the receipts"]
)
def test_receipt_proof_of_a_missing_receipt_raises_index_error(small_chain, case):
    """Whatever makes the receipt missing, the error is an IndexError that
    names the height and the index asked for."""
    if case == "block without receipts":
        _, header = small_chain.produce_block()
        height, index = header.height, 0
    elif case == "height not yet produced":
        height, index = small_chain.height + 1, 0
    else:
        small_chain.submit_tx(small_chain.make_tx(2, AssetPayload(token="USDC", amount=1)))
        _, header = small_chain.produce_block()
        height, index = header.height, 1
    with pytest.raises(IndexError, match=f"block {height} of chain 1 has no receipt {index}"):
        small_chain.receipt_proof(height, index)


def test_rotation_identity_keeps_set():
    chain = Chain(ChainConfig(chain_id=1, epoch_size=2, weights=(1, 2)))
    s0, s1 = chain.validator_set(0), chain.validator_set(1)
    assert s1.epoch == 1
    assert [e.pubkey_bytes for e in s1.entries] == [e.pubkey_bytes for e in s0.entries]
    assert [e.weight for e in s1.entries] == [e.weight for e in s0.entries]


def test_rotation_deterministic_across_runs():
    cfg = ChainConfig(chain_id=5, epoch_size=2, weights=(1, 2, 3), rotation="reweight")
    a, b = Chain(cfg), Chain(cfg)
    assert commitment_digest(a.validator_set(3)) == commitment_digest(b.validator_set(3))


def test_refresh_rotation_changes_keys():
    cfg = ChainConfig(chain_id=1, epoch_size=2, weights=(1, 1), rotation="refresh")
    chain = Chain(cfg)
    keys0 = {e.pubkey_bytes for e in chain.validator_set(0).entries}
    keys1 = {e.pubkey_bytes for e in chain.validator_set(1).entries}
    assert keys0.isdisjoint(keys1)


def test_deterministic_header_sequences():
    cfg = ChainConfig(chain_id=1, epoch_size=3, weights=(1, 1), rotation="reweight", key_namespace="det")
    a, b = Chain(cfg), Chain(cfg)
    for chain in (a, b):
        for i in range(7):
            ctx = chain.make_tx(9, AssetPayload(token="T", amount=i))
            chain.submit_tx(ctx)
            chain.produce_block()
    assert [h.signing_payload() for h in a.headers] == [h.signing_payload() for h in b.headers]
    assert [h.agg for h in a.headers] == [h.agg for h in b.headers]


def test_every_header_signature_verifies_over_epochs():
    """Every produced header's aggregate verifies under its signing set's
    bitmap key with weight at or above the threshold."""
    from relaysim.chain import quorum_reached

    cfg = ChainConfig(
        chain_id=6, epoch_size=3, weights=(2, 1, 1), rotation="reweight", key_namespace="all"
    )
    chain = Chain(cfg)
    for i in range(8):
        if i % 2:
            chain.submit_tx(chain.make_tx(7, AssetPayload(token="T", amount=i)))
        chain.produce_block()
    for header in chain.headers:
        vset = chain.signing_set_for(header)
        weight = vset.bitmap_weight(header.agg.bitmap)
        assert quorum_reached(weight, vset.total_weight, cfg.vote_threshold)
        apk = bls.aggregate_pubkeys(vset.pubkeys(), header.agg.bitmap)
        assert bls.verify_aggregate(apk, header.signing_payload(), header.agg.point)


def test_shared_clock_monotone_timestamps():
    clock = LogicalClock()
    a = Chain(ChainConfig(chain_id=1, epoch_size=5, weights=(1,)), clock)
    b = Chain(ChainConfig(chain_id=2, epoch_size=5, weights=(1,)), clock)
    a.produce_block()
    b.produce_block()
    stamps = [h.timestamp for h in a.headers] + [h.timestamp for h in b.headers]
    assert len(set(stamps)) == len(stamps)
    assert a.headers[1].timestamp > a.headers[0].timestamp


@pytest.mark.parametrize("withhold", [None, 0.1, 0.5])
def test_header_aggregate_equals_sum_of_signer_signatures(withhold):
    """Across epochs with mixed weights, each header's aggregate is the sum
    of its available signers' individual signatures over its payload; a
    chain whose available weight is below the quorum withholds the block."""
    cfg = ChainConfig(
        chain_id=8, epoch_size=3, weights=(5, 3, 2, 1, 1), rotation="reweight", key_namespace="sum"
    )
    chain = Chain(cfg)
    if withhold is not None:
        chain.withhold_fraction(withhold)
    if withhold == 0.5:
        with pytest.raises(BlockWithheld):
            chain.produce_block()
        assert chain.height == 0
        return
    for i in range(7):
        chain.submit_tx(chain.make_tx(9, AssetPayload(token="T", amount=i)))
        chain.produce_block()
    for header in chain.headers:
        vset = chain.signing_set_for(header)
        secrets = chain.epoch_secrets(vset.epoch)
        payload = header.signing_payload()
        signers = [e.pubkey_bytes for e, bit in zip(vset.entries, header.agg.bitmap) if bit]
        assert header.agg.point == bls.aggregate([bls.sign(secrets[pk], payload) for pk in signers])
        if withhold is not None and header.height > 0:
            assert len(signers) < len(vset)


@pytest.mark.parametrize("rotation", ["identity", "reweight", "refresh"])
def test_withhold_fault_outlives_epoch_boundaries(rotation):
    """A withhold fault applies to every signing set, whichever keys and
    weights rotation gives it: in each header the unavailable validators are
    the leading ones (canonical order) whose cumulative weight first reaches
    the withheld share of that header's signing set."""
    cfg = ChainConfig(
        chain_id=3, epoch_size=2, weights=(1, 1, 1, 1, 6, 6, 6, 6), rotation=rotation, key_namespace="wh"
    )
    chain = Chain(cfg)
    chain.withhold_fraction(0.1)
    for _ in range(8):
        chain.produce_block()
    assert chain.current_epoch == 4
    for header in chain.headers[1:]:
        vset = chain.signing_set_for(header)
        withheld = leading = 0
        while withheld < 0.1 * vset.total_weight:
            withheld += vset.entries[leading].weight
            leading += 1
        assert header.agg.bitmap == (False,) * leading + (True,) * (len(vset) - leading)


def test_ctx_key_is_built_once():
    """A transaction's key is one tuple, rebuilt by `replace` and left out of
    equality, hashing and the wire encoding."""
    ctx = CrossChainTx(dest_chain=2, payload=AssetPayload(token="T", amount=4), origin_chain=1, nonce=3)
    assert ctx.key == (1, 3) and ctx.key is ctx.key
    assert replace(ctx, nonce=9).key == (1, 9)
    assert replace(ctx) == ctx and hash(replace(ctx)) == hash(ctx)
    assert decode_ctx(ctx.to_bytes()) == ctx and decode_ctx(ctx.to_bytes()).key == (1, 3)
    assert "key" not in repr(ctx)
    with pytest.raises(TypeError):
        CrossChainTx(dest_chain=2, payload=ctx.payload, origin_chain=1, nonce=3, key=(1, 3))


def test_receipt_message_has_no_instance_dict():
    assert not hasattr(ReceiptMessage(tx_hash=b"h", payload=b"p", height=1), "__dict__")


def test_a_released_block_keeps_its_header_and_refuses_reads(small_chain):
    """`release_blocks` drops the blocks below the height it is given, with
    their receipts, records and tree, and keeps their headers; a read of a
    released block raises `BlockReleased` naming the chain and the height,
    a block above it still serves its proofs, and a release is never
    undone."""
    blocks = []
    for n in (3, 5):
        for i in range(n):
            small_chain.submit_tx(small_chain.make_tx(2, AssetPayload(token="USDC", amount=i)))
        blocks.append(small_chain.produce_block()[0])
    proofs = {(b.header.height, i): small_chain.receipt_proof(b.header.height, i) for b in blocks for i in range(len(b.receipts))}
    first, second = (b.header.height for b in blocks)
    small_chain.release_blocks(second)
    assert [h for h, b in enumerate(small_chain._blocks) if b is not None] == [second]
    for read in (lambda: small_chain.block_at(first), lambda: small_chain.receipt_proof(first, 0)):
        with pytest.raises(BlockReleased, match=f"^block {first} of chain 1 was released") as caught:
            read()
        assert (caught.value.chain_id, caught.value.height) == (1, first)
    assert small_chain.header_at(first) is blocks[0].header and small_chain.headers[first] is blocks[0].header
    assert small_chain.block_at(second) is blocks[1]
    for i in range(5):
        assert small_chain.receipt_proof(second, i) is proofs[(second, i)]
    small_chain.release_blocks(first)  # a lower height releases nothing more and restores nothing
    assert small_chain.block_at(second) is blocks[1]
    with pytest.raises(BlockReleased):
        small_chain.block_at(first)
    small_chain.release_blocks(small_chain.height + 5)
    assert set(small_chain._blocks) == {None} and small_chain.height == second
    with pytest.raises(BlockReleased, match=f"^block {second} of chain 1 was released"):
        small_chain.receipt_proof(second, 0)
    for height, index in ((-1, 0), (small_chain.height + 1, 0)):
        with pytest.raises(IndexError, match=f"block {height} of chain 1 has no receipt {index}"):
            small_chain.receipt_proof(height, index)
    small_chain.produce_block()  # blocks made after a release are kept
    assert small_chain.block_at(small_chain.height).receipts == ()
