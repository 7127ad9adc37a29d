"""Relay pipeline: registration, two-hop verification, idempotence, trace
ordering, payload conservation, and deployment complexity."""

from dataclasses import replace as dc_replace
from functools import partial

import pytest
from hypothesis import given, strategies as st

from relaysim.chain import AssetPayload, ChainConfig, CrossChainTx, MessagePayload
from relaysim.costs import GasReceipt, gate_report, item_dicts
from relaysim.prover import Prover
from relaysim.relay import (
    FIN_TAG,
    ICTX_TAG,
    HopRecord,
    Rejection,
    RelayEnvironment,
    decode_ctx,
    deployment_plan,
    end_to_end_relay,
)
from relaysim.lightclient import RejectReason
from relaysim.trace import PIPELINE_STAGES


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


def test_register_sources_and_duplicate(backend):
    env = _env(backend)
    assert len(env.rc.clients) == 3
    with pytest.raises(ValueError):
        env.rc.register_source(env.chains[1])


def test_registration_gas_anchor(backend):
    env = _env(backend)
    for receipt in env.rc.setup_receipts.values():
        assert receipt.total == 100_000


def test_end_to_end_seven_stage_trace(backend):
    env = _env(backend)
    events = end_to_end_relay(env, 1, 2, AssetPayload(token="USDC", amount=5))
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
    finals = env.final_confirmations()
    for key in keys:
        assert finals[key].ctx.payload.to_bytes() == env.submitted[key].payload.to_bytes()
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
    first = end_to_end_relay(env, 1, 2, MessagePayload(b"fwd"))
    second = end_to_end_relay(env, 2, 1, MessagePayload(b"rev"))
    assert [e.stage for e in first] == list(PIPELINE_STAGES)
    assert [e.stage for e in second] == list(PIPELINE_STAGES)


def test_relay_receive_rejects_tampered_payload(backend):
    env = _env(backend)
    key = env.submit(1, 2, AssetPayload(token="T", amount=7))
    env._produce_source_blocks()
    prover = Prover("observer", backend)
    conf = prover.monitor(env.chains[1])[0]
    bundle = prover.ctx_bundle(env.chains[1], conf)
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
    confs = prover.monitor(env.chains[1])
    b0 = prover.ctx_bundle(env.chains[1], confs[0])
    b1 = prover.ctx_bundle(env.chains[1], confs[1])
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
    honest = observer.ctx_bundle(env.chains[1], observer.monitor(env.chains[1])[0])
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
    conf = prover.monitor(env.chains[1])[0]
    bundle = prover.ctx_bundle(env.chains[1], conf)
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
    return key, observer.ctx_bundle(env.chains[1], observer.monitor(env.chains[1])[0])


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
    assert [e.verdict for e in env.trace.for_key(key) if e.stage == "confirm_rc"] == [
        "reject:merkle-fail",
        "reject:merkle-fail",
        "ok",
    ]


def test_dest_receive_replay_single_effect(backend):
    env = _env(backend)
    key = env.submit(1, 2, AssetPayload(token="T", amount=4))
    env.run(2)
    host = env.hosts[2]
    assert key in host.confirmations
    # replay the full bundle at the destination
    prover = Prover("observer", backend)
    records = [
        c for c in prover.monitor(env.rc.chain) if c.message.payload.startswith(b"ICTX1")
    ]
    assert records
    bundle = prover.ctx_bundle(env.rc.chain, records[0])
    ctx, result, fresh = host.dest_receive(bundle)
    assert result.ok and not fresh
    assert list(host.confirmations) == [key]


def test_dest_rejects_unconfirmed_on_relay(backend):
    """A record that never went through the relay chain has no verifiable
    header: the destination's relay-chain client refuses it."""
    env = _env(backend)
    env.submit(1, 2, AssetPayload(token="T", amount=4))
    env._produce_source_blocks()
    prover = Prover("observer", backend)
    conf = prover.monitor(env.chains[1])[0]
    bundle = prover.ctx_bundle(env.chains[1], conf)  # source header, not relay
    ctx, result, fresh = env.hosts[2].dest_receive(bundle)
    assert not result.ok


def test_misrouted_ctx_rejected_at_wrong_destination(backend):
    env = _env(backend)
    key = env.submit(1, 2, AssetPayload(token="T", amount=4))
    env.run(1)
    prover = Prover("observer", backend)
    records = [
        c for c in prover.monitor(env.rc.chain) if c.message.payload.startswith(b"ICTX1")
    ]
    bundle = prover.ctx_bundle(env.rc.chain, records[0])
    ctx, result, fresh = env.hosts[3].dest_receive(bundle)  # wrong destination
    assert not result.ok


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


def test_intermediate_payload_identical(backend):
    env = _env(backend)
    key = env.submit(1, 3, AssetPayload(token="X", amount=42))
    env.run(1)
    record = env.rc.confirmations[key]
    assert record.ctx.payload.to_bytes() == env.submitted[key].payload.to_bytes()
    assert record.origin_chain == 1


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
    assert boundary.validator_info[0] == "committed"
    assert boundary.announced_set() is None


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
    assert setup == [
        {"context": "register_source", "chain": 100, **r.to_dict()} for r in env.rc.setup_receipts.values()
    ]
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
    conf = prover.monitor(env.chains[1])[0]
    bundle = prover.ctx_bundle(env.chains[1], conf)
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


def test_demo_run_decode_and_hash_counts(monkeypatch):
    """The demo relays 100 transactions, each delivered by two provers over
    two hops, and a host verifies only the first of two equal copies: 200
    `hlc_verify` calls on 8 pairings. The header terms of the public inputs
    are derived once per distinct verified header (4), and a cross-chain
    transaction record is parsed only where a host verifies delivered bytes
    (200), counted at every module that binds the name."""
    import sys
    from pathlib import Path

    from relaysim import chain, harness, lightclient, prover, relay
    from relaysim.crypto import bls, bn254
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
    bls._pairing_equal_cached.cache_clear()
    bls._pairing_product_cached.cache_clear()
    lightclient._header_terms.cache_clear()
    prover._Backend._attest.cache_clear()
    demo = Path(__file__).resolve().parent.parent / "scenarios" / "demo.yaml"
    result = harness.run(load_scenario(demo))
    assert result.ok and result.confirmed == 100
    assert counts == {"decode_ctx": 200, "hlc_verify": 200, "hash_to_base": 4, "pairing": 8}


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
    assert list(host.confirmations) == [ctx.key]
