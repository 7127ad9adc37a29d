"""Omnichain service: the pre-paid fee model, message records, inquiry."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim import harness
from relaysim.chain import AssetPayload, ChainConfig, CrossChainTx, MessagePayload
from relaysim.mos import (
    InsufficientFee,
    MosService,
    PricingConfig,
    Status,
    UnknownMessage,
    compute_fee,
)
from relaysim.prover import Prover
from relaysim.relay import RelayEnvironment
from relaysim.scenario import default_scenario, synthetic_workload

CFG = PricingConfig(k=Fraction(1, 40), base_fee_rc=1, base_fee_dc=1, fee_cap=1000)


def _env(backend):
    rc = ChainConfig(chain_id=100, epoch_size=10, weights=(1,) * 4, key_namespace="rc")
    env = RelayEnvironment(rc, backend)
    for i in (1, 2):
        env.add_chain(ChainConfig(chain_id=i, epoch_size=10, weights=(1, 1, 1), key_namespace=f"m{i}"))
    env.add_prover("p0")
    return env


# ---------------------------------------------------------------------------
# pricing


def test_fee_linear_branch():
    assert compute_fee(1000, PricingConfig(k=Fraction(1, 40), base_fee_rc=1, base_fee_dc=1, fee_cap=1000)) == 25


def test_fee_floor_branch():
    assert compute_fee(10, CFG) == 2  # 0.25 rounds below the floor of 2


def test_fee_cap_branch():
    assert compute_fee(10**6, CFG) == 1000  # 25000 capped


def test_fee_zero_amount_pays_floor():
    assert compute_fee(0, CFG) == CFG.floor


def test_fee_rounding_half_up():
    cfg = PricingConfig(k=Fraction(1, 2), base_fee_rc=0, base_fee_dc=0, fee_cap=10**9)
    assert compute_fee(3, cfg) == 2  # 1.5 rounds up
    assert compute_fee(5, cfg) == 3  # 2.5 rounds up


def test_pricing_config_validation():
    with pytest.raises(ValueError):
        PricingConfig(k=Fraction(0), base_fee_rc=1, base_fee_dc=1, fee_cap=10)
    with pytest.raises(ValueError):
        PricingConfig(k=Fraction(3, 2), base_fee_rc=1, base_fee_dc=1, fee_cap=10)
    with pytest.raises(ValueError):
        PricingConfig(k=Fraction(1, 40), base_fee_rc=5, base_fee_dc=6, fee_cap=10)


def test_pricing_config_reports_every_failed_check():
    with pytest.raises(ValueError) as err:
        PricingConfig(k=Fraction(3, 2), base_fee_rc=-1, base_fee_dc=1, fee_cap=-5)
    assert err.value.args == (
        "fee coefficient must lie in (0, 1)",
        "base fees must be non-negative",
        "fee cap must cover the base fees",
    )


def test_fee_monotonicity_and_bounds_10k_samples():
    import random

    rng = random.Random(40)
    for _ in range(10_000):
        k = Fraction(rng.randint(1, 99), rng.randint(100, 4000))
        if not (0 < k < 1):
            continue
        floor_rc, floor_dc = rng.randint(0, 50), rng.randint(0, 50)
        cap = floor_rc + floor_dc + rng.randint(0, 10**6)
        cfg = PricingConfig(k=k, base_fee_rc=floor_rc, base_fee_dc=floor_dc, fee_cap=cap)
        a = rng.randint(0, 10**7)
        fee_a = compute_fee(a, cfg)
        assert cfg.floor <= fee_a <= cfg.fee_cap
        fee_b = compute_fee(a + rng.randint(0, 1000), cfg)
        assert fee_b >= fee_a  # non-decreasing


@settings(max_examples=200, deadline=None)
@given(amount=st.integers(min_value=0, max_value=10**9), bump=st.integers(min_value=0, max_value=10**6))
def test_fee_monotone_property(amount, bump):
    assert compute_fee(amount + bump, CFG) >= compute_fee(amount, CFG)


def test_fee_continuity_at_breakpoints():
    # crossing the floor breakpoint changes the fee by at most one unit
    cfg = PricingConfig(k=Fraction(1, 40), base_fee_rc=1, base_fee_dc=1, fee_cap=1000)
    floor_cross = 80  # k*80 == 2 == floor
    for a in (floor_cross - 1, floor_cross, floor_cross + 1):
        assert abs(compute_fee(a + 1, cfg) - compute_fee(a, cfg)) <= 1
    cap_cross = 40_000  # k*amount == 1000 == cap
    for a in (cap_cross - 1, cap_cross, cap_cross + 1):
        assert abs(compute_fee(a + 1, cfg) - compute_fee(a, cfg)) <= 1


# ---------------------------------------------------------------------------
# message records


def test_message_out_creates_pending_record(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    key = mos.message_out(1, 2, AssetPayload(token="T", amount=1000), "MAPO", fee_paid=25)
    record = mos.inquire(key)
    assert record.status == Status.PENDING_SC
    assert record.fee == 25


@pytest.mark.parametrize(
    "payload",
    [AssetPayload(token="T", amount=2**64), AssetPayload(token=7, amount=1)],
    ids=["amount-past-u64", "token-not-text"],
)
def test_a_payload_that_does_not_encode_is_refused_at_submission(backend, payload):
    """An amount past 64 bits or a token that is not text cannot be
    encoded: `env.submit` and `message_out` refuse it before anything is
    queued, recorded or traced, so no block is left to fail on it."""
    env = _env(backend)
    mos = MosService(env, CFG)
    chain = env.chains[1]
    for submit in (lambda: env.submit(1, 2, payload), lambda: mos.message_out(1, 2, payload, "MAPO", 1000)):
        with pytest.raises((ValueError, AttributeError)):
            submit()
        assert chain.pending_count == 0 and len(env.submitted) == 0
        assert len(env.trace) == 0 and len(mos.records) == 0
    env.step()  # the round after a refusal runs
    assert chain.pending_count == 0


def test_message_out_insufficient_fee(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    with pytest.raises(InsufficientFee):
        mos.message_out(1, 2, AssetPayload(token="T", amount=1000), "MAPO", fee_paid=24)


def test_message_out_to_self_rejected(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    with pytest.raises(ValueError):
        mos.message_out(1, 1, MessagePayload(b"loop"), "MAPO", fee_paid=2)


def test_record_progresses_to_final(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    key = mos.message_out(1, 2, MessagePayload(b"go"), "MAPO", fee_paid=2)
    env.run_until_complete([key])
    record = mos.inquire(key)
    assert record.status == Status.CONFIRMED_DC
    times = record.stage_times
    assert times["commit_sc"] < times["confirm_sc"] < times["confirm_rc"] < times["confirm_dc"]


def test_mid_pipeline_inquiry(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    key = mos.message_out(1, 2, MessagePayload(b"paused"), "MAPO", fee_paid=2)
    env._produce_source_blocks()  # stop after source confirmation
    record = mos.inquire(key)
    assert record.status == Status.CONFIRMED_SC


def test_inquire_unknown_key(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    with pytest.raises(UnknownMessage):
        mos.inquire((9, 9))


def _source_bundle(env, backend):
    """An honest bundle for the first transaction confirmed on chain 1."""
    env._produce_source_blocks()
    observer = Prover("obs", backend)
    return observer.ctx_bundle(env.chains[1], *observer.monitor(env.chains[1])[0])


def test_message_in_honest_and_idempotent(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    payload = AssetPayload(token="T", amount=5)
    key = mos.message_out(1, 2, payload, "MAPO", fee_paid=2)
    bundle = _source_bundle(env, backend)
    tx_hash = mos.message_in(100, 1, bundle)
    assert tx_hash == CrossChainTx(dest_chain=2, payload=payload, origin_chain=1, nonce=key[1]).tx_hash
    assert env.rc.chain.pending_count == 1
    mos.message_in(100, 1, bundle)  # replay: no extra relay inclusion
    assert env.rc.chain.pending_count == 1


def test_message_in_takes_the_scheduler_delivery_step(backend):
    """A bundle delivered through `message_in` is logged as a scheduled one
    is: its `hlc_verify` receipt at the relay chain, whose gas the key's
    `confirm_rc` event carries."""
    env = _env(backend)
    mos = MosService(env, CFG)
    key = mos.message_out(1, 2, AssetPayload(token="T", amount=5), "MAPO", fee_paid=2)
    mos.message_in(100, 1, _source_bundle(env, backend))
    done, _ = env.run_until_complete([key])
    assert done
    verifies = [e for e in env.receipts_log if e["context"] == "hlc_verify" and e["chain"] == 100]
    assert len(verifies) == 1
    assert env.trace.stages_of(key)["confirm_rc"].gas == verifies[0]["total"]


def test_message_in_forged_bundle_recorded(backend):
    from dataclasses import replace as dc_replace

    env = _env(backend)
    mos = MosService(env, CFG)
    key = mos.message_out(1, 2, AssetPayload(token="T", amount=5), "MAPO", fee_paid=2)
    bundle = _source_bundle(env, backend)
    longer = dc_replace(bundle.merkle_proof, path=((bytes(32), "L"),) + bundle.merkle_proof.path)
    forged = dc_replace(bundle, merkle_proof=longer)
    mos.message_in(100, 1, forged)
    record = mos.inquire(key)
    assert record.status == Status.REJECTED
    assert record.reject_reason == "merkle-fail"
    # logged as the scheduler logs a rejection at the relay chain
    assert [(r.stage, r.chain, r.key, r.reason) for r in env.rejections] == [
        ("confirm_rc", 100, key, "merkle-fail")
    ]
    last = env.trace.events[-1]
    assert (last.key, last.stage, last.verdict) == (key, "confirm_rc", "reject:merkle-fail")
    # an honest delivery afterwards still completes the pipeline
    env.run_until_complete([key])
    assert mos.inquire(key).status == Status.CONFIRMED_DC


def test_message_in_refuses_a_bundle_from_another_chain(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    mos.message_out(1, 2, AssetPayload(token="T", amount=5), "MAPO", fee_paid=2)
    bundle = _source_bundle(env, backend)
    events = len(env.trace.events)
    with pytest.raises(ValueError):
        mos.message_in(100, 2, bundle)
    assert env.rc.chain.pending_count == 0
    assert len(env.trace.events) == events and env.rejections == []


def test_message_in_refuses_an_update_bundle(backend):
    """An update bundle is refused before it reaches the light client."""
    env = _env(backend)
    mos = MosService(env, CFG)
    chain = env.chains[1]
    while chain.height < chain.config.epoch_size:
        chain.produce_block()
    header = Prover("obs", backend).new_boundaries(chain)[-1]
    update = Prover("obs", backend).update_bundle(chain, header)
    client = env.rc.clients[1]
    with pytest.raises(ValueError):
        mos.message_in(100, 1, update)
    assert env.rc.clients[1] is client
    assert all(e["context"] != "hlc_update" for e in env.receipts_log)


# the service's former observer rule, kept as the reference for the records
_RANK = {Status.PENDING_SC: 0, Status.CONFIRMED_SC: 1, Status.CONFIRMED_RC: 2, Status.CONFIRMED_DC: 3}
_STAGE_STATUS = {
    "commit_sc": Status.PENDING_SC,
    "confirm_sc": Status.CONFIRMED_SC,
    "confirm_rc": Status.CONFIRMED_RC,
    "confirm_dc": Status.CONFIRMED_DC,
}


def _fold_observer_rule(mos):
    """Each record's progress as the observer built it, event by event from
    its `commit_sc` on."""
    state = {}
    for event in mos.env.trace.events:
        if event.key not in mos.records:
            continue
        ref = state.get(event.key)
        if ref is None:
            if event.stage == "commit_sc" and event.verdict == "ok":
                state[event.key] = {"best": Status.PENDING_SC, "times": {"commit_sc": event.time},
                                    "reason": None, "reject_time": None}
            continue
        if event.verdict != "ok":
            if ref["best"] is not Status.CONFIRMED_DC:
                ref["reason"] = event.verdict.removeprefix("reject:")
                ref["reject_time"] = event.time
            continue
        ref["times"][event.stage] = event.time
        status = _STAGE_STATUS.get(event.stage)
        if status is not None and _RANK[status] > _RANK[ref["best"]]:
            ref["best"] = status
    out = {}
    for key, ref in state.items():
        status = ref["best"]
        if (
            ref["reject_time"] is not None
            and status is not Status.CONFIRMED_DC
            and ref["reject_time"] > max(ref["times"].values())
        ):
            status = Status.REJECTED
        out[key] = (status.value, dict(sorted(ref["times"].items())), ref["reason"])
    return out


def test_records_match_the_observer_rule_under_forgeries():
    """Forged bundles reach the relay inbox in the same round as the honest
    ones, so recorded keys see rejections before and after `confirm_dc`;
    one round in three the relay chain withholds its block, so a rejection
    can stay the latest word past the end of a round. After every round
    each record equals the observer rule folded over the trace."""
    scenario = default_scenario(seed=5, count=60)
    env, mos = harness.build_environment(scenario)
    corpus = harness.ForgeryCorpus(env, random.Random(5))
    strategies = ("payload-mutation", "proof-reuse", "header-forgery")
    produce_source_blocks = env._produce_source_blocks

    def produce_then_forge():
        produce_source_blocks()
        corpus.harvest(corpus.live)
        for i in range(20 if corpus.live else 0):
            env.transmit(corpus.forge(strategies[i % len(strategies)]), env.rc_id)

    env._produce_source_blocks = produce_then_forge
    stream = list(synthetic_workload(scenario))
    seen = set()
    for round_ in range(12):
        for src, dst, payload in stream[round_ * 6 : (round_ + 1) * 6]:
            mos.message_out(src, dst, payload, "MAPO", fee_paid=10**6)
        env.rc.chain.withhold_fraction(0.5 if round_ % 3 == 1 else 0.0)
        env.step()
        expected = _fold_observer_rule(mos)
        assert set(expected) == set(mos.records)
        for key, record in mos.records.items():
            row = record.to_dict()
            assert (row["status"], row["stage_times"], row["reject_reason"]) == expected[key]
            seen.add(record.status)
    assert Status.REJECTED in seen and Status.CONFIRMED_DC in seen

    def before_final(event):
        final = env.trace.stages_of(event.key).get("confirm_dc")
        return final is None or event.time < final.time

    rejections = [e for e in env.trace.events if e.key in mos.records and e.verdict != "ok"]
    assert any(before_final(e) for e in rejections)
    assert not all(before_final(e) for e in rejections)


def test_status_never_regresses(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    rank = {s: i for i, s in enumerate(
        [Status.PENDING_SC, Status.CONFIRMED_SC, Status.CONFIRMED_RC, Status.CONFIRMED_DC]
    )}
    keys = [
        mos.message_out(1, 2, AssetPayload(token="T", amount=i), "MAPO", fee_paid=25)
        for i in range(5)
    ]
    history = {k: [mos.inquire(k).status] for k in keys}
    for _ in range(4):
        env.step()
        for k in keys:
            history[k].append(mos.inquire(k).status)
    for k, seen in history.items():
        pipeline = [s for s in seen if s is not Status.REJECTED]
        assert all(rank[a] <= rank[b] for a, b in zip(pipeline, pipeline[1:]))
        assert pipeline[-1] == Status.CONFIRMED_DC


def test_data_out_alias(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    key = mos.data_out(1, 2, MessagePayload(b"alias"), "MAPO", 2)
    assert mos.inquire(key).status == Status.PENDING_SC
    assert MosService.data_in is MosService.message_in


def test_message_record_has_no_instance_dict(backend):
    env = _env(backend)
    mos = MosService(env, CFG)
    key = mos.message_out(1, 2, AssetPayload(token="T", amount=5), "MAPO", fee_paid=2)
    assert not hasattr(mos.inquire(key), "__dict__")
