"""Relay pipeline: registration, two-hop verification, idempotence, trace
ordering, payload conservation, and deployment complexity."""

import gc
from dataclasses import FrozenInstanceError, fields
from dataclasses import replace as dc_replace
from functools import partial
from random import Random

import pytest
from hypothesis import given, strategies as st

from relaysim import relay, trace as trace_module
from relaysim.chain import (
    EMPTY_RECEIPT_ROOT,
    AssetPayload,
    BlockHeader,
    BlockReleased,
    ChainConfig,
    CrossChainTx,
    MessagePayload,
    ReceiptMessage,
)
from relaysim.costs import GasReceipt, gate_report, item_dicts
from relaysim.crypto.commitment import commitment_digest
from relaysim.crypto.merkle import MerkleProof
from relaysim.harness import ForgeryCorpus, forge_relay_confirmation
from relaysim.prover import ProofBundle, Prover
from relaysim.relay import (
    FIN_TAG,
    DeliveryReceipt,
    ICTX_TAG,
    HopRecord,
    Rejection,
    RelayEnvironment,
    decode_ctx,
    deployment_plan,
)
from relaysim.lightclient import RejectReason, VerifyResult, hlc_setup
from relaysim.trace import PIPELINE_STAGES, TraceEvent


def _env(backend, n_chains=3, epoch_size=10, rc_validators=4):
    rc_cfg = ChainConfig(
        chain_id=100, epoch_size=epoch_size, weights=(1,) * rc_validators, key_namespace="rc"
    )
    env = RelayEnvironment(rc_cfg, backend)
    for i in range(1, n_chains + 1):
        env.add_chain(
            ChainConfig(chain_id=i, epoch_size=epoch_size, weights=(1, 1, 1), key_namespace=f"c{i}")
        )
    env.add_prover("p0")
    return env


def _relay_one(env, source_id, dest_id, payload):
    """Relay one transaction to completion and return its trace events."""
    key = env.submit(source_id, dest_id, payload)
    done, _ = env.run_until_complete([key], 10)
    assert done
    return [e for e in env.trace.events if e.key == key]


def test_register_sources_and_duplicate(backend):
    env = _env(backend)
    assert len(env.rc.clients) == 3
    with pytest.raises(ValueError):
        env.rc.register_source(env.chains[1])


def test_registration_gas_anchor(backend):
    env = _env(backend)
    setup = [e for e in env.receipts_log if e["context"] == "register_source"]
    assert len(setup) == len(env.chains)
    for entry in setup:
        assert entry["total"] == 100_000


def test_end_to_end_seven_stage_trace(backend):
    env = _env(backend)
    events = _relay_one(env, 1, 2, AssetPayload(token="USDC", amount=5))
    assert [e.stage for e in events] == list(PIPELINE_STAGES)
    times = [e.time for e in events]
    assert times == sorted(times) and len(set(times)) == len(times)


def test_payload_conservation_end_to_end(backend):
    """100 mixed transactions across three chains: complete seven-stage
    traces, byte-identical payloads at the destinations."""
    env = _env(backend)
    keys = []
    for i in range(100):
        src, dst = (i % 3) + 1, ((i + 1) % 3) + 1
        payload = (
            AssetPayload(token="T", amount=i)
            if i % 2
            else MessagePayload(call_data=bytes([i]))
        )
        keys.append(env.submit(src, dst, payload))
    done, stalled = env.run_until_complete(keys)
    assert done, stalled
    assert env.payload_conservation_violations() == []
    assert sorted(env.final_confirmations()) == sorted(keys)
    for key in keys:
        stages = env.trace.stages_of(key)
        assert set(stages) == set(PIPELINE_STAGES), f"incomplete trace for {key}"
        times = [stages[s].time for s in PIPELINE_STAGES]
        assert times == sorted(times) and len(set(times)) == len(times)


def test_submit_to_unregistered_destination_fails(backend):
    env = _env(backend)
    with pytest.raises(ValueError):
        env.submit(1, 99, AssetPayload(token="T", amount=1))


def test_reverse_direction_works(backend):
    env = _env(backend)
    first = _relay_one(env, 1, 2, MessagePayload(b"fwd"))
    second = _relay_one(env, 2, 1, MessagePayload(b"rev"))
    assert [e.stage for e in first] == list(PIPELINE_STAGES)
    assert [e.stage for e in second] == list(PIPELINE_STAGES)


def test_relay_receive_rejects_tampered_payload(backend):
    env = _env(backend)
    key = env.submit(1, 2, AssetPayload(token="T", amount=7))
    env._produce_source_blocks()
    prover = Prover("observer", backend)
    bundle = prover.ctx_bundle(env.chains[1], *prover.monitor(env.chains[1])[0])
    tampered = dc_replace(bundle, receipt_payload=bundle.receipt_payload[:-1] + b"\xff")
    ctx, result, fresh = env.rc.relay_receive(tampered)
    assert not result.ok
    assert result.reason == RejectReason.MERKLE_FAIL


def test_relay_receive_rejects_proofs_for_other_ctx(backend):
    env = _env(backend)
    env.submit(1, 2, AssetPayload(token="A", amount=1))
    env.submit(1, 2, AssetPayload(token="B", amount=2))
    env._produce_source_blocks()
    prover = Prover("observer", backend)
    leaves = prover.monitor(env.chains[1])
    b0 = prover.ctx_bundle(env.chains[1], *leaves[0])
    b1 = prover.ctx_bundle(env.chains[1], *leaves[1])
    crossed = dc_replace(b0, merkle_proof=b1.merkle_proof)
    _, result, _ = env.rc.relay_receive(crossed)
    assert not result.ok and result.reason == RejectReason.MERKLE_FAIL


def test_unknown_origin_rejected_without_aborting_round(backend):
    """A bundle from a chain the relay chain does not track is rejected as an
    epoch gap; the rest of the round's inbox is still applied."""
    env = _env(backend)
    key = env.submit(1, 2, AssetPayload(token="T", amount=9))
    env._produce_source_blocks()
    observer = Prover("observer", backend)
    honest = observer.ctx_bundle(env.chains[1], *observer.monitor(env.chains[1])[0])
    stray = dc_replace(honest, origin_chain=0)  # sorts before the honest bundle
    env.transmit(stray, env.rc_id)
    env.transmit(dc_replace(stray, kind="update"), env.rc_id)
    env.step()  # the environment's prover delivers the honest bundle
    assert env.rejections == [Rejection("confirm_rc", env.rc_id, key, RejectReason.EPOCH_GAP.value)]
    assert "confirm_rc" in env.trace.stages_of(key)
    done, stalled = env.run_until_complete([key])
    assert done, stalled
    assert "confirm_dc" in env.trace.stages_of(key)


def test_relay_receive_idempotent_duplicate(backend):
    env = _env(backend)
    env.submit(1, 2, AssetPayload(token="T", amount=3))
    env._produce_source_blocks()
    prover = Prover("observer", backend)
    bundle = prover.ctx_bundle(env.chains[1], *prover.monitor(env.chains[1])[0])
    ctx1, r1, fresh1 = env.rc.relay_receive(bundle)
    ctx2, r2, fresh2 = env.rc.relay_receive(bundle)
    assert r1.ok and fresh1
    assert r2.ok and not fresh2  # accepted once, second is a no-op
    assert env.rc.chain.pending_count == 1


def _flip_first_sibling(bundle):
    """`bundle` with the first sibling digest of its Merkle path altered: the
    same bundle order, a proof that no longer reaches the header's root."""
    proof = bundle.merkle_proof
    (sibling, side), *rest = proof.path
    flipped = (bytes([sibling[0] ^ 1]) + sibling[1:], side)
    return dc_replace(bundle, merkle_proof=dc_replace(proof, path=(flipped, *rest)))


def _two_tx_source_block(env):
    """Submit two transactions on chain 1, produce its block, and return an
    observer's honest bundle for the first of them."""
    key = env.submit(1, 2, AssetPayload(token="T", amount=1))
    env.submit(1, 2, AssetPayload(token="T", amount=2))
    env._produce_source_blocks()
    observer = Prover("observer", env.backend)
    return key, observer.ctx_bundle(env.chains[1], *observer.monitor(env.chains[1])[0])


def test_drain_verifies_a_tampered_copy_after_an_accepted_one(backend):
    """A forged bundle that sorts beside an accepted honest copy (same origin,
    height and receipt hash) is no equal twin: the relay still verifies it
    and logs its own rejection."""
    env = _env(backend)
    key, honest = _two_tx_source_block(env)
    tampered = _flip_first_sibling(honest)
    assert env._bundle_order(tampered) == env._bundle_order(honest)
    env.transmit(honest, env.rc_id)
    env.transmit(tampered, env.rc_id)
    env.step()  # the environment's prover adds its own honest copies
    assert env.rejections == [Rejection("confirm_rc", env.rc_id, key, RejectReason.MERKLE_FAIL.value)]
    assert "confirm_rc" in env.trace.stages_of(key)


def test_drain_delivers_each_copy_of_a_rejected_bundle(backend):
    """When the first of two equal copies is rejected, the second is
    delivered too and logs a rejection of its own; the honest copy that
    follows them is still accepted."""
    env = _env(backend)
    key, honest = _two_tx_source_block(env)
    for _ in range(2):  # equal, distinct objects
        env.transmit(_flip_first_sibling(honest), env.rc_id)
    env.step()
    rejection = Rejection("confirm_rc", env.rc_id, key, RejectReason.MERKLE_FAIL.value)
    assert env.rejections == [rejection, rejection]
    assert [e.verdict for e in env.trace.events if e.key == key and e.stage == "confirm_rc"] == [
        "reject:merkle-fail",
        "reject:merkle-fail",
        "ok",
    ]


def _delivered_ctx_bundle(seen, host_id):
    """The first ctx bundle a captured run delivered to `host_id`."""
    return next(b for target, bundles in seen if target == host_id for b in bundles if b.kind == "ctx")


def test_dest_receive_replay_single_effect(backend):
    env = _env(backend)
    seen = _captured_inboxes(env)
    key = env.submit(1, 2, AssetPayload(token="T", amount=4))
    env.run(2)
    host = env.hosts[2]
    assert env.final_confirmations() == [key]
    # replay the full bundle at the destination
    bundle = _delivered_ctx_bundle(seen, 2)
    assert bundle.receipt_payload.startswith(ICTX_TAG)
    ctx, result, fresh = host.dest_receive(bundle)
    assert result.ok and not fresh
    assert host.chain.pending_count == 0  # no second FIN1 record is queued


def test_dest_rejects_unconfirmed_on_relay(backend):
    """A record that never went through the relay chain has no verifiable
    header: the destination's relay-chain client refuses it."""
    env = _env(backend)
    env.submit(1, 2, AssetPayload(token="T", amount=4))
    env._produce_source_blocks()
    prover = Prover("observer", backend)
    bundle = prover.ctx_bundle(env.chains[1], *prover.monitor(env.chains[1])[0])  # source header, not relay
    ctx, result, fresh = env.hosts[2].dest_receive(bundle)
    assert not result.ok


def test_misrouted_ctx_rejected_at_wrong_destination(backend):
    env = _env(backend)
    key = env.submit(1, 2, AssetPayload(token="T", amount=4))
    seen = _captured_inboxes(env)
    env.run(1)
    bundle = _delivered_ctx_bundle(seen, 2)
    assert env.hosts[2].dest_receive(bundle)[1].ok  # the right destination accepts it
    ctx, result, fresh = env.hosts[3].dest_receive(bundle)  # wrong destination
    assert ctx.key == key and not result.ok


def test_duplicate_transmit_at_least_once(backend):
    """Two honest provers deliver everything twice; confirmations are single."""
    env = _env(backend)
    env.add_prover("p1")  # second honest prover
    keys = [env.submit(1, 2, AssetPayload(token="T", amount=i)) for i in range(5)]
    done, stalled = env.run_until_complete(keys)
    assert done
    confirm_events = [
        e for e in env.trace.events if e.stage == "confirm_dc" and e.verdict == "ok"
    ]
    assert len(confirm_events) == len(keys)


def test_no_spontaneous_confirmation(backend):
    """Trace cross-referencing: every relay confirmation follows a source
    confirmation and every final confirmation follows a relay confirmation."""
    env = _env(backend)
    keys = [env.submit((i % 3) + 1, ((i + 1) % 3) + 1, MessagePayload(bytes([i]))) for i in range(20)]
    env.run_until_complete(keys)
    for key in keys:
        stages = env.trace.stages_of(key)
        assert stages["confirm_sc"].time < stages["confirm_rc"].time
        assert stages["confirm_rc"].time < stages["confirm_dc"].time


def test_payload_conservation_flags_a_forged_final_payload(backend):
    """Relay validators holding a quorum sign a relay confirmation of a
    submitted key with its payload changed, and it reaches the destination
    before the honest copy: the sweep of its `FIN1` record flags that key,
    and only that key."""
    env = _env(backend)
    env.run(1)
    key = env.submit(1, 2, AssetPayload(token="T", amount=4))
    honest = env.submit(1, 3, AssetPayload(token="T", amount=5))
    forged = CrossChainTx(dest_chain=2, payload=AssetPayload(token="T", amount=10**9), origin_chain=1, nonce=key[1])
    outcome = forge_relay_confirmation(env, 0.75, forged)
    assert outcome.bundle is not None
    ctx, result, fresh = env.deliver(outcome.bundle, 2)
    assert ctx == forged and result.ok and fresh
    done, _ = env.run_until_complete([key, honest])
    assert done and sorted(env.final_confirmations()) == sorted([key, honest])
    assert env.payload_conservation_violations() == [key]


def test_a_second_final_delivery_of_a_key_is_a_violation(backend):
    """A key's payload is dropped once its `FIN1` record is swept. Colluding
    relay validators then confirm the same key, with the same payload, to a
    second destination: the sweep of that second `FIN1` record flags the
    key, since one submission has one final delivery."""
    env = _env(backend)
    payload = AssetPayload(token="T", amount=4)
    key = env.submit(1, 2, payload)
    assert env.run_until_complete([key])[0] and env.payload_conservation_violations() == []
    again = CrossChainTx(dest_chain=3, payload=payload, origin_chain=1, nonce=key[1])
    outcome = forge_relay_confirmation(env, 0.75, again)
    env.deliver(outcome.bundle, 3)
    env.step()
    assert env.trace.has_stage(key, "confirm_dc") and key in env.submitted
    assert env.payload_conservation_violations() == [key]


def test_intermediate_payload_identical(backend):
    """The record the relay chain confirms carries the committed payload;
    the relay host keeps no confirmations of its own."""
    env = _env(backend)
    confirmed, resolve = [], env.rc.resolve_confirmations

    def sweep():
        records = resolve()
        confirmed.extend(records)
        return records

    env.rc.resolve_confirmations = sweep
    key = env.submit(1, 3, AssetPayload(token="X", amount=42))
    env.run(1)
    (record,) = confirmed
    assert record.key == key
    assert record.ctx.payload.to_bytes() == AssetPayload(token="X", amount=42).to_bytes()
    assert record.origin_chain == 1
    assert not hasattr(env.rc, "confirmations")


def test_rc_epoch_rotation_end_to_end(backend):
    """Traffic keeps flowing while the relay chain itself rotates epochs; the
    destination-hosted clients follow via committed-set announcements."""
    env = _env(backend, epoch_size=3)
    keys = []
    for i in range(12):
        keys.append(env.submit((i % 3) + 1, ((i + 1) % 3) + 1, MessagePayload(bytes([i]))))
        env.step()
    done, stalled = env.run_until_complete(keys)
    assert done, stalled
    assert env.rc.chain.current_epoch >= 1
    for host in env.hosts.values():
        assert host.clients[env.rc_id].epoch == env.rc.chain.current_epoch
    # relay-chain boundary headers announce only the commitment
    boundary = next(h for h in env.rc.chain.headers if h.height > 0 and h.is_boundary)
    assert boundary.announced_set is None
    rc_chain = env.rc.chain
    announced = rc_chain.validator_set(boundary.epoch)
    assert boundary.announced_commitment == commitment_digest(announced, rc_chain.config.hash_algo)


def test_receipts_log_entries_share_the_receipts_item_tuples(counting_backend):
    """Each entry keeps its receipt's (label, count, unit) tuples, not
    per-item dicts, and equal item tuples are one object across the log."""
    env = _env(counting_backend)
    keys = [env.submit(1 + i % 3, 1 + (i + 1) % 3, AssetPayload(token="T", amount=i)) for i in range(9)]
    done, _ = env.run_until_complete(keys)
    assert done
    shared = {}
    for entry in env.receipts_log:
        items = entry["items"]
        assert type(items) is tuple and all(type(item) is tuple and len(item) == 3 for item in items)
        assert shared.setdefault(items, items) is items
        assert entry["total"] == sum(count * unit for _, count, unit in items)
    assert len(shared) < len(env.receipts_log)
    assert {e["context"] for e in env.receipts_log} >= {"register_source", "hlc_verify", "gate_report"}


def test_receipts_log_entries_expand_to_the_receipt_dicts(counting_backend):
    """Expanded through `item_dicts`, as the artifact writer does, an entry
    is its context and chain plus the receipt's or gate report's own dict."""
    receipt = GasReceipt("x", (("hash_op", 3, 60), ("call_overhead", 1, 21_000)))
    assert receipt.to_dict() == {
        "operation": "x",
        "items": [
            {"label": "hash_op", "count": 3, "unit": 60, "subtotal": 180},
            {"label": "call_overhead", "count": 1, "unit": 21_000, "subtotal": 21_000},
        ],
        "total": 21_180,
    }
    env = _env(counting_backend)
    key = env.submit(1, 2, AssetPayload(token="T", amount=1))
    assert env.run_until_complete([key])[0]
    expanded = [{**e, "items": item_dicts(e["items"])} for e in env.receipts_log]
    setup = [e for e in expanded if e["context"] == "register_source"]
    expected = []
    for cid, c in sorted(env.chains.items()):
        receipt = hlc_setup(cid, c.validator_set(0), c.config.epoch_size, c.config.vote_threshold, env.table).receipt
        expected.append({"context": "register_source", "chain": 100, **receipt.to_dict()})
    assert setup == expected
    gates = [e for e in expanded if e["context"] == "gate_report"]
    assert gates
    for entry in gates:
        report = gate_report(counting_backend.gate_table, entry["signers"], entry["mode"])
        assert entry == {"context": "gate_report", "chain": entry["chain"], **report.to_dict()}


def test_counting_backend_runs_and_exports_gate_reports(counting_backend):
    env = _env(counting_backend)
    keys = [env.submit(1, 2, AssetPayload(token="T", amount=i)) for i in range(3)]
    done, _ = env.run_until_complete(keys)
    assert done
    gate_entries = [e for e in env.receipts_log if e["context"] == "gate_report"]
    assert gate_entries
    assert all(e["total"] > 0 for e in gate_entries)


def test_transmit_unknown_target(backend):
    env = _env(backend)
    env.submit(1, 2, AssetPayload(token="T", amount=1))
    env._produce_source_blocks()
    prover = Prover("observer", backend)
    bundle = prover.ctx_bundle(env.chains[1], *prover.monitor(env.chains[1])[0])
    with pytest.raises(ValueError):
        env.transmit(bundle, 424242)


# ---------------------------------------------------------------------------
# deployment complexity


def test_deployment_plan_formulas():
    for n in range(2, 11):
        pairwise = deployment_plan(n, "pairwise")
        relayed = deployment_plan(n, "relayed")
        assert pairwise.lc_instances == n * (n - 1)
        assert pairwise.deployment_gas == 10**7 * n * (n - 1)
        assert relayed.lc_instances == 2 * n
        assert relayed.deployment_gas == 2 * 10**5 * n


def test_deployment_plan_examples():
    p3 = deployment_plan(3, "pairwise")
    r3 = deployment_plan(3, "relayed")
    assert (p3.lc_instances, p3.deployment_gas) == (6, 60_000_000)
    assert (r3.lc_instances, r3.deployment_gas) == (6, 600_000)
    p10 = deployment_plan(10, "pairwise")
    r10 = deployment_plan(10, "relayed")
    assert (p10.lc_instances, r10.lc_instances) == (90, 20)
    assert (p10.deployment_gas, r10.deployment_gas) == (900_000_000, 2_000_000)


def test_deployment_plan_requires_two_chains():
    with pytest.raises(ValueError):
        deployment_plan(1, "pairwise")


def test_deployment_complexity_scaling():
    per_chain = [deployment_plan(n, "relayed").lc_instances / n for n in range(2, 11)]
    assert all(x == 2 for x in per_chain)
    pairwise_per_chain = [deployment_plan(n, "pairwise").lc_instances / n for n in range(2, 11)]
    assert pairwise_per_chain == [n - 1 for n in range(2, 11)]


def test_decode_ctx_roundtrip():
    ctx = CrossChainTx(
        dest_chain=7, payload=AssetPayload(token="USDC", amount=12, instruction="mint"),
        origin_chain=3, nonce=11,
    )
    assert decode_ctx(ctx.to_bytes()) == ctx
    msg = CrossChainTx(dest_chain=7, payload=MessagePayload(b"\x01\x02"), origin_chain=3, nonce=12)
    assert decode_ctx(msg.to_bytes()) == msg
    with pytest.raises(ValueError):
        decode_ctx(b"garbage")


u64s = st.integers(0, 2**64 - 1)
payloads = st.one_of(
    st.builds(AssetPayload, token=st.text(max_size=12), amount=u64s, instruction=st.text(max_size=12)),
    st.builds(MessagePayload, call_data=st.binary(max_size=32)),
)
ctxs = st.builds(CrossChainTx, dest_chain=u64s, payload=payloads, origin_chain=u64s, nonce=u64s)


@st.composite
def wire_records(draw):
    """(value, encoding, decoder, offset of the outer length prefix) of a
    CTX1, ICTX1 or FIN1 record."""
    ctx = draw(ctxs)
    tag = draw(st.sampled_from([b"CTX1", ICTX_TAG, FIN_TAG]))
    if tag == b"CTX1":
        return ctx, ctx.to_bytes(), decode_ctx, 28
    record = HopRecord(tag, draw(u64s), ctx)
    return record, record.to_bytes(), partial(HopRecord.from_bytes, tag), len(tag) + 8


@given(wire_records())
def test_wire_record_roundtrip(case):
    value, data, decode, _ = case
    assert decode(data) == value


@given(wire_records(), st.data())
def test_wire_record_rejects_malformed(case, data):
    _, raw, decode, at = case
    length = int.from_bytes(raw[at : at + 8], "big")
    malformed = [
        bytes([raw[0] ^ 0x20]) + raw[1:],  # wrong tag
        raw[: data.draw(st.integers(0, len(raw) - 1))],  # truncated
        raw + b"\x00",  # one trailing byte
        raw[:at] + (length + 1).to_bytes(8, "big") + raw[at + 8 :],
        raw[:at] + (length - 1).to_bytes(8, "big") + raw[at + 8 :],
    ]
    for bad in malformed:
        with pytest.raises(ValueError):
            decode(bad)


class _Reader:
    """The field-by-field parser the struct-based decoders replaced, kept as
    their reference: a read past the end, or bytes left at `end()`, raise
    ValueError."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ValueError("truncated record")
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def lp(self) -> bytes:
        return self.take(self.u64())

    def end(self) -> None:
        if self.pos != len(self.data):
            raise ValueError("trailing bytes after record")


def _reference_decode_ctx(data: bytes) -> CrossChainTx:
    record = _Reader(data)
    if record.take(4) != b"CTX1":
        raise ValueError("not a cross-chain transaction record")
    dest, origin, nonce = record.u64(), record.u64(), record.u64()
    body = _Reader(record.lp())
    record.end()
    kind = body.take(1)
    if kind == b"A":
        token, amount, instruction = body.lp().decode(), body.u64(), body.lp().decode()
        payload = AssetPayload(token=token, amount=amount, instruction=instruction)
    elif kind == b"M":
        payload = MessagePayload(call_data=body.lp())
    else:
        raise ValueError("unknown payload kind")
    body.end()
    return CrossChainTx(dest_chain=dest, payload=payload, origin_chain=origin, nonce=nonce)


def _reference_hop_record(tag: bytes, data: bytes) -> HopRecord:
    record = _Reader(data)
    if record.take(len(tag)) != tag:
        raise ValueError(f"not a {tag.decode()} record")
    origin = record.u64()
    ctx_bytes = record.lp()
    record.end()
    return HopRecord(tag, origin, _reference_decode_ctx(ctx_bytes))


_DECODERS = {
    b"CTX1": (decode_ctx, _reference_decode_ctx),
    ICTX_TAG: (partial(HopRecord.from_bytes, ICTX_TAG), partial(_reference_hop_record, ICTX_TAG)),
    FIN_TAG: (partial(HopRecord.from_bytes, FIN_TAG), partial(_reference_hop_record, FIN_TAG)),
}


def _length_offsets(value) -> list:
    """Offsets of the u64 length fields in `value`'s encoding."""
    ctx, at = (value, 0) if isinstance(value, CrossChainTx) else (value.ctx, len(value.tag) + 16)
    offsets = [at + 28, at + 37]  # len(payload); len(token) or len(call_data)
    if at:
        offsets.append(at - 8)  # len(ctx)
    if isinstance(ctx.payload, AssetPayload):
        offsets.append(at + 53 + len(ctx.payload.token.encode()))  # len(instruction)
    return offsets


def _variants(value, raw: bytes):
    """`raw`, every prefix of it, one byte appended, its first byte changed,
    and each of its length fields one lower, one higher and at the u64 top."""
    yield raw
    yield from (raw[:n] for n in range(len(raw)))
    yield raw + b"\x00"
    yield bytes([raw[0] ^ 0x01]) + raw[1:]
    for at in _length_offsets(value):
        length = int.from_bytes(raw[at : at + 8], "big")
        for other in {max(length - 1, 0), length + 1, 2**64 - 1} - {length}:
            yield raw[:at] + other.to_bytes(8, "big") + raw[at + 8 :]


def _outcome(decode, data):
    try:
        return decode(data)
    except ValueError:
        return ValueError


@given(wire_records(), st.binary(max_size=80), st.integers(0, 255), st.data())
def test_decoders_agree_with_the_field_by_field_parser(case, noise, byte, data):
    """`decode_ctx` and `HopRecord.from_bytes` accept exactly the inputs the
    `_Reader` parser accepts, return equal records, and raise only
    ValueError on the rest: valid records, their prefixes, appended bytes,
    changed tags, bytes and length fields, and random bytes, bare or behind
    a tag, each decoded under every tag."""
    value, raw, _, _ = case
    at = data.draw(st.integers(0, len(raw) - 1))
    inputs = [*_variants(value, raw), raw[:at] + bytes([byte]) + raw[at + 1 :], noise]
    for tag, (decode, reference) in _DECODERS.items():
        for blob in inputs + [tag + noise]:
            assert _outcome(decode, blob) == _outcome(reference, blob)


def _asset_ctx(dest_chain=2, origin_chain=1, nonce=3, amount=5):
    return CrossChainTx(dest_chain, AssetPayload(token="T", amount=amount), origin_chain, nonce)


def _header(chain_id=1, height=2, epoch=0, epoch_size=10, timestamp=3):
    return BlockHeader(chain_id, height, epoch, epoch_size, timestamp, b"r" * 32, bytes(32), None, None)


@pytest.mark.parametrize(
    "encode",
    [
        lambda v: _asset_ctx(dest_chain=v).to_bytes(),
        lambda v: _asset_ctx(origin_chain=v).to_bytes(),
        lambda v: _asset_ctx(nonce=v).to_bytes(),
        lambda v: _asset_ctx(amount=v).to_bytes(),
        lambda v: HopRecord(ICTX_TAG, v, _asset_ctx()).to_bytes(),
        lambda v: HopRecord(FIN_TAG, v, _asset_ctx()).to_bytes(),
        lambda v: ReceiptMessage(tx_hash=b"h" * 32, payload=b"p", height=v).to_bytes(),
        lambda v: _header(chain_id=v).signing_payload(),
        lambda v: _header(height=v).signing_payload(),
        lambda v: _header(epoch=v).signing_payload(),
        lambda v: _header(epoch_size=v).signing_payload(),
        lambda v: _header(timestamp=v).signing_payload(),
    ],
)
@pytest.mark.parametrize("value", [-1, 2**64])
def test_out_of_range_u64_field_raises_value_error(encode, value):
    """A u64 field out of range raises ValueError, as `encoding.u64` does;
    the largest u64 encodes."""
    with pytest.raises(ValueError):
        encode(value)
    if value == 2**64:
        assert len(encode(2**64 - 1)) > 8


def test_demo_run_decode_and_hash_counts(monkeypatch):
    """The demo relays 100 transactions, each delivered by two provers over
    two hops, and a host verifies only the first of two equal copies: 200
    `hlc_verify` calls, while the provers' 4 statements take 2 two-sided
    checks, one `pairing` each. The header terms of the public inputs
    are derived once per distinct verified header (4), and a cross-chain
    transaction record is parsed only where a host verifies delivered bytes
    (200), counted at every module that binds the name."""
    import sys
    from pathlib import Path

    from relaysim import chain, harness, lightclient, relay
    from relaysim.crypto import bn254
    from relaysim.scenario import load_scenario

    counts = {}

    def count(name, fn, modules):
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)

    package = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "relaysim"]
    count("decode_ctx", chain.decode_ctx, package)
    count("hlc_verify", relay.hlc_verify, [relay])
    count("hash_to_base", lightclient.hash_to_base, [lightclient])
    count("pairing", bn254.pairing, [bn254])
    demo = Path(__file__).resolve().parent.parent / "scenarios" / "demo.yaml"
    result = harness.run(load_scenario(demo))
    assert result.ok and result.confirmed == 100
    assert counts == {"decode_ctx": 200, "hlc_verify": 200, "hash_to_base": 4, "pairing": 2}


def test_sweep_confirms_only_the_hosts_own_records(backend):
    """A destination's sweep of its own blocks confirms the `FIN1` records it
    queued, not a transaction submitted on the same chain (`CTX1`) nor the
    relay chain's kind of record (`ICTX1`)."""
    env = _env(backend)
    chain, host = env.chains[2], env.hosts[2]
    ctx = chain.make_tx(1, AssetPayload(token="T", amount=3))
    chain.submit_tx(ctx)
    chain.append_event(HopRecord(ICTX_TAG, 2, ctx))
    chain.produce_block()
    assert host.resolve_confirmations() == []
    chain.append_event(HopRecord(FIN_TAG, 2, ctx))
    chain.produce_block()
    assert [c.key for c in host.resolve_confirmations()] == [ctx.key]
    assert host.resolve_confirmations() == [] and not hasattr(host, "confirmations")


def _slotted_records():
    receipt = GasReceipt("hlc_verify", (("call_overhead", 1, 21_000),))
    return [
        ProofBundle("ctx", 1, None, None, MerkleProof(()), b"p", b"h"),
        MerkleProof(((b"\x00" * 32, "L"),)),
        DeliveryReceipt(1),
        VerifyResult(True, receipt),
        receipt,
    ]


@pytest.mark.parametrize("record", _slotted_records(), ids=lambda r: type(r).__name__)
def test_per_bundle_records_are_slotted_and_frozen(record):
    """The records made for every relayed bundle keep no instance dict, and
    their fields cannot be assigned."""
    assert not hasattr(record, "__dict__")
    for field in fields(record):
        with pytest.raises(FrozenInstanceError):
            setattr(record, field.name, getattr(record, field.name))


def _captured_inboxes(env):
    """Run `env` with each host's inbox, as the drain finds it, appended to
    the returned list as (host id, bundles)."""
    seen, drain = [], env._drain

    def capturing(host_id):
        seen.append((host_id, list(env._inbox[host_id])))
        drain(host_id)

    env._drain = capturing
    return seen


def _all_chains(env):
    return [*env.chains.values(), env.rc.chain]


def _wave(env, r, size=4):
    """Submit wave `r`, `size` transactions spread over the sources, and
    step once."""
    ids = sorted(env.chains)
    for i in range(size):
        src = ids[(r + i) % len(ids)]
        env.submit(src, ids[(r + i + 1) % len(ids)], AssetPayload(token="T", amount=r * size + i))
    env.step()


def test_both_provers_bundles_hold_one_merkle_proof(backend):
    """The honest provers transmit one shared ctx bundle object per receipt,
    at the relay chain and at the destinations, so it holds one
    `MerkleProof`: the bundle the first prover built for a receipt is still
    kept with its block for the second."""
    env = _env(backend)
    env.add_prover("p1")
    seen = _captured_inboxes(env)
    for r in range(3):
        _wave(env, r)
    copies = {}
    for host_id, bundles in seen:
        for b in bundles:
            if b.kind == "ctx":
                copies.setdefault((host_id, b.origin_chain, b.header.height, b.receipt_hash), []).append(b)
    assert {host_id for host_id, _, _, _ in copies} == {env.rc_id, 1, 2, 3}
    for pair in copies.values():
        assert len(pair) == 2 and pair[0] is pair[1]


@pytest.mark.parametrize("profiles", [("honest", "honest"), ("honest", "silent")])
def test_no_tree_is_kept_below_the_lowest_honest_cursor(backend, profiles):
    """Over a run that crosses epochs, after every step no chain keeps the
    block, or the Merkle tree, of a height that every honest prover has
    read; the chain's host sweep is never behind them, and a silent prover,
    which reads nothing, holds nothing back. The headers stay."""
    env = _env(backend, epoch_size=4)
    env.provers.clear()
    for i, profile in enumerate(profiles):
        env.add_prover(f"p{i}", profile)
    honest = [p for p in env.provers if p.profile == "honest"]
    read = 0  # released blocks that had receipts, summed over steps
    for r in range(4):
        _wave(env, r)
        for chain in _all_chains(env):
            cid = chain.config.chain_id
            lowest = min(p.receipt_cursor(cid) for p in honest)
            assert env.host(cid).sweep_cursor >= lowest
            assert chain._blocks[:lowest] == [None] * lowest
            for height in range(lowest):
                with pytest.raises(BlockReleased, match=f"block {height} of chain {cid} was released"):
                    chain.block_at(height)
                assert chain.header_at(height).height == height
            assert lowest > chain.height or chain.block_at(lowest).header is chain.header_at(lowest)
            read += sum(1 for height in range(lowest) if chain.header_at(height).receipt_root != EMPTY_RECEIPT_ROOT)
    assert env.rc.chain.current_epoch >= 1 and read > 0
    assert all("confirm_dc" in env.trace.stages_of(k) for k in env.submitted)


def _proof_key(bundle):
    return bundle.origin_chain, bundle.header.height, bundle.receipt_hash


def test_a_late_reader_gets_a_clear_error_for_a_released_height(backend):
    """Once every registered reader has passed a block, its receipts,
    records and tree are gone: a proof of it, a forgery corpus made after
    the release, and a prover added after some rounds each get
    `BlockReleased` naming the chain and the height. The headers stay, and
    every proof the released trees gave was accepted."""
    env = _env(backend)
    seen = _captured_inboxes(env)
    for r in range(3):
        _wave(env, r)
    given = {_proof_key(b) for _, bundles in seen for b in bundles if b.kind == "ctx"}
    assert len(given) == 2 * 12  # 12 source receipts, 12 relay-chain receipts
    assert env.rejections == [] and all(env.trace.has_stage(k, "confirm_dc") for k in env.submitted)
    for origin, height, _ in given:
        chain = env.rc.chain if origin == env.rc_id else env.chains[origin]
        with pytest.raises(BlockReleased, match=f"^block {height} of chain {origin} was released"):
            chain.receipt_proof(height, 0)
        assert chain.header_at(height).height == height

    corpus = ForgeryCorpus(env, Random(1))
    with pytest.raises(BlockReleased, match="^block 0 of chain 1 was released"):
        corpus.harvest(corpus.live)
    env.add_prover("late")
    with pytest.raises(BlockReleased, match="^block 0 of chain 1 was released"):
        env.step()


def test_a_run_keeps_its_record_not_its_traffic(backend):
    """Counted with `gc.get_objects()` after a 300-transaction run with two
    provers: the trace log holds no `TraceEvent`, every live
    `ReceiptMessage` sits in a block at or above the lowest cursor of its
    chain's readers, there is one `GasReceipt` per distinct receipt, and
    one receipts-log dict per distinct entry."""
    kinds = (TraceEvent, ReceiptMessage, GasReceipt)
    gc.collect()
    before = [o for o in gc.get_objects() if type(o) in kinds]  # held, so no id is reused
    old = {id(o) for o in before}
    env = _env(backend)
    env.add_prover("p1")
    keys = [env.submit(1 + i % 3, 1 + (i + 1) % 3, AssetPayload(token="T", amount=i)) for i in range(300)]
    assert env.run_until_complete(keys)[0] and len(env.trace.events) > 0
    gc.collect()
    live = {kind: [] for kind in kinds}
    for o in gc.get_objects():
        if type(o) in kinds and id(o) not in old:
            live[type(o)].append(o)
    assert live[TraceEvent] == []
    held = []
    for chain in _all_chains(env):
        cid = chain.config.chain_id
        lowest = min([p.receipt_cursor(cid) for p in env.provers] + [env.host(cid).sweep_cursor])
        held += [m for height in range(lowest, chain.height + 1) for m in chain.block_at(height).receipts]
    assert held and sorted(map(id, live[ReceiptMessage])) == sorted(map(id, held))
    receipts = live[GasReceipt]
    assert len(receipts) == len({(r.operation, r.items) for r in receipts}) >= 3
    entries = env.receipts_log
    assert len({id(e) for e in entries}) == len({tuple(e.items()) for e in entries}) < len(entries)


def test_a_stage_already_reached_builds_no_trace_event(backend, monkeypatch):
    """A run builds no `TraceEvent`: the trace is written from fields. The
    second prover's `prove_sc` and `prove_rc` take their ticks but are not
    logged, so each key has one event at each stage and the ticks the
    repeats took are missing from the log."""
    built = []

    def counting(**fields):
        built.append(fields["stage"])
        return TraceEvent(**fields)

    monkeypatch.setattr(trace_module, "TraceEvent", counting)
    env = _env(backend)
    env.add_prover("p1")
    for r in range(2):
        _wave(env, r)
    assert built == []
    monkeypatch.undo()
    stages = [e.stage for e in env.trace.events]
    assert stages.count("prove_sc") == stages.count("prove_rc") == len(env.submitted) == 8
    blocks = sum(chain.height + 1 for chain in _all_chains(env))  # a tick each, genesis included
    assert env.clock.now == len(stages) + blocks + 2 * 8


def _stream_shaped_run(backend) -> RelayEnvironment:
    """Two source chains of 4 validators, epoch 4, 16 transactions in
    3-transaction waves, one a round, and two honest provers, run until
    every transaction completes."""
    env = RelayEnvironment(ChainConfig(chain_id=100, epoch_size=4, weights=(1,) * 4, key_namespace="st/rc"), backend)
    for cid in (1, 2):
        env.add_chain(ChainConfig(chain_id=cid, epoch_size=4, weights=(1,) * 4, key_namespace=f"st/{cid}"))
    env.add_prover("p0")
    env.add_prover("p1")
    keys = []
    for wave in range(6):
        for i in range(3 if wave < 5 else 1):
            src = 1 + (3 * wave + i) % 2
            keys.append(env.submit(src, 3 - src, MessagePayload(bytes([wave, i]))))
        env.step()
    assert env.run_until_complete(keys)[0]
    return env


@pytest.mark.parametrize("route", ["transparent", "counting"])
def test_a_header_is_signed_and_hashed_to_the_curve_once_for_every_prover(route, backend, counting_backend, monkeypatch):
    """On the stream-shaped run `bls.sign` runs once per header whose
    signature is read and `prover.base_to_g` once per header proven, though
    both provers prove each of them; headers nobody proves are never signed.
    The pairing layer runs as many Miller loops and final exponentiations
    as when every header was signed and hashed once per prover."""
    from relaysim import prover as prover_module
    from relaysim.crypto import bls, bn254

    counts = dict.fromkeys(("sign", "base_to_g", "miller_loop", "final_exponentiation"), 0)
    for module, name in ((bls, "sign"), (prover_module, "base_to_g"), (bn254, "miller_loop"), (bn254, "final_exponentiation")):
        def counted(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)

    be, fe = (backend, 2) if route == "transparent" else (counting_backend, 1)
    env = _stream_shaped_run(be)
    chains = [env.rc.chain, *env.chains.values()]
    read = [h for chain in chains for h in chain.headers if "point" in vars(h.agg)]
    proven = [set(p._zk_cache) for p in env.provers]
    assert len(proven) == 2 and proven[0] == proven[1]
    assert counts["sign"] == len(read) == len(proven[0]) == 21
    assert counts["base_to_g"] == len(proven[0])
    assert sum(len(chain.headers) for chain in chains) == 31
    # 12 checks: 2 Miller loops and 2 final exponentiations each on the
    # two-sided route, 1 and 1 on the product route
    assert counts["miller_loop"] == counts["final_exponentiation"] == 12 * fe


@pytest.mark.parametrize("route", ["transparent", "counting"])
def test_source_scan_pairing_costs_on_a_stream_shaped_run(route, backend, counting_backend, monkeypatch):
    """Two source chains of 4 validators, epoch 4, a 3-transaction wave a
    round and two honest provers. The first prover's source scan decides
    its k new headers in one check: for k >= 2 that is one Miller pair per
    distinct aggregate key plus one, 2(k - 1) g1_mul for the coefficients
    (r_1 = 1), and 2 final exponentiations on the two-sided route or 1 on
    the product route; k = 1 is the single check, with no g1_mul. Every
    validator signs and keys never rotate, so a chain's headers share one
    key. Headers are signed when the scan first reads them, so `g1_mul`
    counts only the calls outside `bls.sign`. The second prover's scans
    find each verdict in the memo and pay no Miller loop and no final
    exponentiation."""
    from relaysim.crypto import bls, bn254

    counts = {"miller_pairs": 0, "final_exponentiation": 0, "g1_mul": 0}
    signing = []

    def miller_loop(pairs, _fn=bn254.miller_loop):
        counts["miller_pairs"] += len(pairs)
        return _fn(pairs)

    def final_exponentiation(f, _fn=bn254.final_exponentiation):
        counts["final_exponentiation"] += 1
        return _fn(f)

    def g1_mul(*args, _fn=bn254.g1_mul):
        counts["g1_mul"] += not signing
        return _fn(*args)

    def sign(*args, _fn=bls.sign):
        signing.append(True)
        try:
            return _fn(*args)
        finally:
            signing.pop()

    scans = []

    def scan_sources(env, prover, _fn=RelayEnvironment._scan_sources):
        before, proven = dict(counts), set(prover._zk_cache)
        _fn(env, prover)
        new = set(prover._zk_cache) - proven
        keys = len({cid for cid, _ in new})
        scans.append((prover.name, len(new), keys, {k: counts[k] - before[k] for k in counts}))

    monkeypatch.setattr(bn254, "miller_loop", miller_loop)
    monkeypatch.setattr(bn254, "final_exponentiation", final_exponentiation)
    monkeypatch.setattr(bn254, "g1_mul", g1_mul)
    monkeypatch.setattr(bls, "sign", sign)
    monkeypatch.setattr(RelayEnvironment, "_scan_sources", scan_sources)

    be, fe = (backend, 2) if route == "transparent" else (counting_backend, 1)
    _stream_shaped_run(be)

    first = [(k, n, cost) for name, k, n, cost in scans if name == "p0"]
    assert {k for k, _, _ in first} >= {1, 2, 4}
    assert (4, 2) in {(k, n) for k, n, _ in first}
    for k, n, cost in first:
        if k:
            assert cost == {"miller_pairs": n + 1, "final_exponentiation": fe, "g1_mul": 2 * (k - 1)}
        else:
            assert cost == dict.fromkeys(counts, 0)
    second = [(k, cost) for name, k, _, cost in scans if name == "p1"]
    assert [k for k, _ in second] == [k for k, _, _ in first]
    assert all(cost == dict.fromkeys(counts, 0) for _, cost in second)
