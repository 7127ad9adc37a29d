"""Harness behavior: scenario validation, reproducibility, the four attack
cases, dataset replay, benchmarks, and the CLI surface."""

import hashlib
import json
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace as dc_replace
from fractions import Fraction
from pathlib import Path
from typing import get_args

import pytest
from hypothesis import given, settings, strategies as st

from relaysim import cli, encoding, harness, lightclient
from relaysim.chain import AssetPayload, BlockReleased, ChainConfig
from relaysim.costs import GasCostTable, GateCostTable
from relaysim.crypto.bn254 import g1_to_bytes
from relaysim.crypto.hashes import SUPPORTED
from relaysim.prover import CountingBackend, Prover, TransparentBackend
from relaysim.trace import PIPELINE_STAGES
from relaysim.scenario import (
    DatasetError,
    FaultSpec,
    Scenario,
    ScenarioError,
    completing_horizon,
    default_scenario,
    load_scenario,
    parse_dataset,
    scenario_from_dict,
    scenario_keys,
    synthetic_workload,
)

SCEN = default_scenario(seed=5, count=30)


def _small_scenario(seed=5, count=20, rc_validators=4):
    raw = {
        "name": "small",
        "seed": seed,
        "relay_chain": {"chain_id": 100, "validators": rc_validators, "epoch_size": 10},
        "chains": [
            {"chain_id": 1, "validators": 3, "epoch_size": 6},
            {"chain_id": 2, "validators": 3, "epoch_size": 6},
        ],
        "provers": [{"name": "p0"}],
        "workload": {"kind": "synthetic", "count": count},
        "stakes": {"1": 7_000_000, "2": 7_000_000, "100": 7_000_000},
    }
    return scenario_from_dict(raw)


# ---------------------------------------------------------------------------
# scenario parsing


def test_scenario_validation_collects_all_problems():
    raw = {
        "name": "broken",
        "chains": [{"chain_id": 1, "validators": 0, "epoch_size": 0}],
        "provers": [{"name": "x", "profile": "chaotic"}],
        "workload": {"kind": "nope", "amount_min": 10, "amount_max": 1},
        "horizon_rounds": 0,
    }
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert err.value.problems == [
        "relay_chain: missing",
        "chains: need at least one source/destination pair",
        "chains[0]: epoch size must be at least 1",
        "chains[0]: need at least one validator",
        "provers[0]: unknown profile 'chaotic'",
        "workload: unknown kind 'nope'",
        "workload: amount_min exceeds amount_max",
        "horizon_rounds: must be positive",
    ]


@pytest.mark.parametrize(
    "amounts, problem",
    [
        ((-5, 10), "workload: amount_min -5 is negative"),
        ((1, 2**64), "workload: amount_max 18446744073709551616 does not fit in 64 bits"),
    ],
    ids=["negative-min", "max-past-u64"],
)
def test_workload_amounts_are_bounded_where_they_enter(amounts, problem):
    """A workload needs 0 <= amount_min <= amount_max < 2^64: a breach is a
    problem at `workload`, not an error at the run's first submission. The
    widest range allowed draws amounts that encode."""
    raw = {
        "relay_chain": {"chain_id": 100, "validators": 4},
        "chains": [{"chain_id": 1, "validators": 3}, {"chain_id": 2, "validators": 3}],
        "workload": {"pattern": "asset", "count": 5, "amount_min": amounts[0], "amount_max": amounts[1]},
    }
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert err.value.problems == [problem]
    widest = dict(raw, workload={**raw["workload"], "amount_min": 0, "amount_max": 2**64 - 1})
    for _, _, payload in synthetic_workload(scenario_from_dict(widest)):
        assert payload.to_bytes()


@pytest.mark.parametrize(
    "chain, problem",
    [
        ({"chain_id": -1}, "chains[0]: chain id -1 is outside [0, 2^64)"),
        ({"chain_id": 2**64}, "chains[0]: chain id 18446744073709551616 is outside [0, 2^64)"),
        ({"epoch_size": 2**64}, "chains[0]: epoch size 18446744073709551616 does not fit in 64 bits"),
        ({"weights": [2**64, 1, 1]}, "chains[0]: total validator weight 18446744073709551618 does not fit in 64 bits"),
        ({"weights": [2**63, 2**63]}, "chains[0]: total validator weight 18446744073709551616 does not fit in 64 bits"),
        (
            {"vote_threshold": "36893488147419103231/36893488147419103232"},
            "chains[0]: vote threshold 36893488147419103231/36893488147419103232 has a denominator"
            " that does not fit in 64 bits",
        ),
    ],
    ids=["negative-id", "id-past-u64", "epoch-past-u64", "weight-past-u64", "total-past-u64", "threshold-past-u64"],
)
def test_a_chain_value_its_encodings_cannot_hold_is_a_problem_at_its_path(tmp_path, capsys, chain, problem):
    """Chain ids, epoch sizes, validator weights and the threshold's terms
    are encoded as u64s, so one that does not fit is refused where the
    scenario is read, and `run` exits 2, not in the genesis block or the
    first proof. The largest values that fit run end to end."""
    def scenario(first):
        return {
            "relay_chain": {"chain_id": 100, "validators": 4},
            "chains": [{"chain_id": 1, "weights": [1, 1, 1], **first}, {"chain_id": 2, "validators": 3}],
            "workload": {"count": 4},
        }

    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(scenario(chain))
    assert err.value.problems == [problem]
    path = tmp_path / "s.json"
    path.write_text(json.dumps(scenario(chain)))
    assert cli.main(["--scenario", str(path), "run"]) == 2
    assert problem in capsys.readouterr().err
    widest = {"chain_id": 2**64 - 1, "epoch_size": 2**64 - 1, "weights": [2**64 - 2, 1],
              "vote_threshold": f"{2**64 - 2}/{2**64 - 1}"}
    result = harness.run(scenario_from_dict(scenario(widest)))
    assert result.ok and result.confirmed == 4


def test_a_block_must_hold_a_record():
    """`max_block_txs`, set only in code, below 1 would stall every run and
    leave `completing_horizon` dividing by zero."""
    with pytest.raises(ValueError, match="^a block must hold at least one record$"):
        ChainConfig(chain_id=1, max_block_txs=0)
    with pytest.raises(ValueError):
        dc_replace(SCEN.relay_chain, max_block_txs=0)


def test_an_input_file_that_cannot_be_read_is_a_problem_naming_it(tmp_path, capsys):
    """A missing scenario or dataset file, and a dataset that is not UTF-8
    text, are each one problem naming the path, and the command exits 2."""
    missing = tmp_path / "missing.yaml"
    with pytest.raises(ScenarioError) as err:
        load_scenario(missing)
    assert err.value.problems == [f"{missing}: cannot be read: No such file or directory"]
    assert cli.main(["--scenario", str(missing), "run"]) == 2
    assert f"{missing}: cannot be read" in capsys.readouterr().err

    missing = tmp_path / "missing.csv"
    with pytest.raises(DatasetError) as err:
        parse_dataset(missing)
    assert err.value.problems == [f"{missing}: cannot be read: No such file or directory"]
    assert cli.main(["replay", "--dataset", str(missing)]) == 2
    assert f"{missing}: cannot be read" in capsys.readouterr().err

    latin = tmp_path / "latin.csv"
    latin.write_bytes(b"src_chain,dst_chain,start_ts,end_ts,token,amount\n1,2,1,2,\xe9USDC,5\n")
    with pytest.raises(DatasetError) as err:
        parse_dataset(latin)
    assert err.value.problems == [f"{latin}: not UTF-8 text: invalid continuation byte"]
    assert cli.main(["replay", "--dataset", str(latin)]) == 2
    assert f"{latin}: not UTF-8 text" in capsys.readouterr().err


def test_scenario_file_roundtrip(tmp_path):
    raw = {
        "name": "file",
        "seed": 9,
        "relay_chain": {"chain_id": 100, "validators": 4, "epoch_size": 10},
        "chains": [
            {"chain_id": 1, "validators": 3, "epoch_size": 10},
            {"chain_id": 2, "weights": [30, 30, 40], "epoch_size": 10, "vote_threshold": "2/3"},
        ],
    }
    json_path = tmp_path / "scen.json"
    json_path.write_text(json.dumps(raw))
    scenario = load_scenario(json_path)
    assert scenario.chains[1].weights == (30, 30, 40)

    yaml_path = tmp_path / "scen.yaml"
    yaml_path.write_text(
        "name: file\nseed: 9\n"
        "relay_chain: {chain_id: 100, validators: 4, epoch_size: 10}\n"
        "chains:\n  - {chain_id: 1, validators: 3, epoch_size: 10}\n"
        "  - {chain_id: 2, validators: 3, epoch_size: 10}\n"
    )
    assert load_scenario(yaml_path).seed == 9


@pytest.mark.parametrize("name, text", [("bad.json", '{"name": "bad",'), ("bad.yaml", "name: [unclosed\n")])
def test_a_scenario_file_that_does_not_parse_is_a_scenario_error(tmp_path, capsys, name, text):
    """A file that is not valid JSON or YAML is one problem naming the
    path, and the command exits 2 as for any invalid scenario."""
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ScenarioError) as err:
        load_scenario(path)
    kind = "YAML" if name.endswith(".yaml") else "JSON"
    assert len(err.value.problems) == 1 and err.value.problems[0].startswith(f"{path}: not valid {kind}: ")
    assert cli.main(["--scenario", str(path), "run"]) == 2
    assert f"{path}: not valid {kind}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run + reproducibility


def test_run_confirms_all(tmp_path):
    result = harness.run(_small_scenario(), outdir=tmp_path / "a")
    assert result.ok
    assert result.confirmed == result.submitted == 20
    assert (tmp_path / "a" / "trace.jsonl").exists()
    assert (tmp_path / "a" / "summary.json").exists()


def test_same_seed_byte_identical_artifacts(tmp_path):
    harness.run(_small_scenario(seed=11), outdir=tmp_path / "r1")
    harness.run(_small_scenario(seed=11), outdir=tmp_path / "r2")
    for name in ("trace.jsonl", "receipts.jsonl", "records.jsonl", "summary.json"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.yaml"


def test_a_second_run_in_one_process_does_the_same_work(monkeypatch):
    """Each environment starts with cold memos, so a second demo run in the
    same process makes the first run's pairings, Miller loops, final
    exponentiations, hash-to-curve steps and key decodes again, not none of
    them; the keys it decodes are its own, kept by its keygen, so none takes
    a square root. A new environment forgets the last run's keys."""
    from relaysim import prover
    from relaysim.crypto import bn254, commitment
    from relaysim.relay import RelayEnvironment

    counts = {}
    wrapped = [(bn254, "pairing"), (bn254, "miller_loop"), (bn254, "final_exponentiation")]
    wrapped += [(lightclient, "hash_to_base"), (prover, "base_to_g")]
    wrapped += [(commitment, "g2_from_bytes"), (bn254, "fp2_sqrt")]
    for module, name in wrapped:

        def counted(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    runs = []
    for _ in range(2):
        counts.update((name, 0) for _, name in wrapped)
        assert harness.run(load_scenario(DEMO)).ok
        runs.append(dict(counts))
    expected = {"pairing": 2, "miller_loop": 4, "final_exponentiation": 4, "hash_to_base": 4, "base_to_g": 4}
    expected |= {"g2_from_bytes": 15, "fp2_sqrt": 0}
    assert runs == [expected, expected]
    last_keys = set(bn254._keygen_points._points)
    env = RelayEnvironment(ChainConfig(chain_id=100, weights=(1, 1), key_namespace="fresh"), harness.backend_for(SCEN))
    rc_keys = {e.pubkey_bytes for e in env.rc.chain.validator_set(0).entries}
    assert len(last_keys) == 15 and set(bn254._keygen_points._points) == rc_keys
    assert not last_keys & rc_keys


def test_a_64_validator_run_decodes_its_keys_without_a_square_root(monkeypatch):
    """Three chains of 64 validators decode their 192 keys through
    `commitment.g2_from_bytes`, and each is a key the run's keygen kept, so
    none reaches `fp2_sqrt` from `g2_from_bytes` (each of the 192 did when
    every key was decompressed)."""
    from relaysim.crypto import bn254, commitment

    counts = {"decodes": 0, "roots": 0}
    decoding = []

    def decode(data, _fn=commitment.g2_from_bytes):
        counts["decodes"] += 1
        decoding.append(True)
        try:
            return _fn(data)
        finally:
            decoding.pop()

    def sqrt(a, _fn=bn254.fp2_sqrt):
        counts["roots"] += bool(decoding)
        return _fn(a)

    monkeypatch.setattr(commitment, "g2_from_bytes", decode)
    monkeypatch.setattr(bn254, "fp2_sqrt", sqrt)
    chain = {"validators": 64, "epoch_size": 10}
    scenario = scenario_from_dict({
        "name": "committee-64",
        "seed": 1,
        "relay_chain": {"chain_id": 100, **chain},
        "chains": [{"chain_id": 1, **chain}, {"chain_id": 2, **chain}],
        "provers": [{"name": "p0"}],
        "workload": {"kind": "synthetic", "count": 8},
    })
    assert harness.run(scenario).ok
    assert counts == {"decodes": 192, "roots": 0}


def test_a_dropped_run_releases_its_backend():
    """No memo outlives the run that filled it: once a run's result is
    dropped, its backend is collected."""
    import gc
    import weakref

    result = harness.run(load_scenario(DEMO))
    backend = weakref.ref(result.env.backend)
    del result
    gc.collect()
    assert backend() is None


def _retained_bytes(count: int) -> int:
    """The bytes a finished run of `count` transactions keeps, as tracemalloc counts them."""
    import gc
    import tracemalloc

    gc.collect()
    tracemalloc.start()
    try:
        result = harness.run(default_scenario(count=count))
        gc.collect()
        size, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok
    return size


def test_a_run_keeps_no_object_per_transaction_key():
    """A finished run keeps its trace, its per-origin nonce columns and the
    blocks of its last round, but no Python object per transaction key: from
    1000 to 3000 transactions, what it retains grows by at most 1300 bytes a
    transaction. Both runs confirm in one round, so all their records sit in
    the last round's unreleased blocks, about 600 bytes a transaction; with
    a tuple, a record object and a set entry per key the growth was about
    1800 bytes."""
    assert (_retained_bytes(3000) - _retained_bytes(1000)) / 2000 <= 1300


DEMO_ARTIFACT_SHA256 = {
    "trace.jsonl": "4b39487721f8742af7a2f742705a5695ec2c03bf92466470c529f38cbe738082",
    "receipts.jsonl": "8e5e288bff6ff5da362bc9bc0085820d3fd10b2b2f9413b01453973c0a5e52ca",
    "records.jsonl": "cef59d83ecbc372cf917f622c6402f3af8ddb5c031c5f026f86621a06c47b20c",
    "summary.json": "526742c94762bd9bfc4d9baa71e798abb79644c7745cba0c4875610c134fd17d",
}


def test_demo_run_artifacts_match_pinned_digests(tmp_path, capsys):
    """`relaysim --scenario scenarios/demo.yaml run` writes the same bytes as
    the pinned run: a refactor that keeps behaviour keeps these digests."""
    import hashlib

    assert cli.main(["--scenario", str(DEMO), "run", "--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == DEMO_ARTIFACT_SHA256


def test_the_demo_logs_the_verification_gas_its_trace_holds():
    """Each confirmed key of the demo is verified once a hop: the receipts
    log holds exactly two `hlc_verify` entries a key, and their summed gas
    is the gas of the accepted `confirm_rc` and `verify_dc` trace events."""
    result = harness.run(load_scenario(DEMO))
    assert result.ok and result.confirmed == 100
    logged = [e["total"] for e in result.env.receipts_log if e["context"] == "hlc_verify"]
    traced = [
        e.gas for e in result.env.trace.events if e.stage in ("confirm_rc", "verify_dc") and e.verdict == "ok"
    ]
    assert len(logged) == len(traced) == 200 and None not in traced
    assert sum(logged) == sum(traced) == 130_793_200


DEMO_ATTACKS_SHA256 = "5501599331ffc48a7652106973c34deaf754797b7197598ad07db43d85c992d1"


def test_demo_attack_artifact_matches_pinned_digest(tmp_path, capsys):
    """`relaysim --scenario scenarios/demo.yaml attack` writes the same
    verdicts, tallies included, as the pinned run."""
    assert cli.main(["--scenario", str(DEMO), "attack", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    data = (tmp_path / "attacks.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == DEMO_ATTACKS_SHA256


def test_different_seed_changes_trace(tmp_path):
    harness.run(_small_scenario(seed=1), outdir=tmp_path / "s1")
    harness.run(_small_scenario(seed=2), outdir=tmp_path / "s2")
    assert (tmp_path / "s1" / "trace.jsonl").read_bytes() != (
        tmp_path / "s2" / "trace.jsonl"
    ).read_bytes()


def _reference_artifacts(result) -> dict:
    """The artifact lines as whole-object `json.dumps` calls build them, with
    each receipt item spelled out as its own dict."""

    def lines(rows):
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows).encode()

    def expanded(entry):
        items = [
            {"label": label, "count": count, "unit": unit, "subtotal": count * unit}
            for label, count, unit in entry["items"]
        ]
        return {**entry, "items": items}

    def event_row(e):
        return {
            "ctx": "?:?" if e.key is None else f"{e.key[0]}:{e.key[1]}",
            "stage": e.stage,
            "time": e.time,
            "chain": e.chain,
            "verdict": e.verdict,
            "gas": e.gas,
        }

    records = result.mos.records
    return {
        "trace.jsonl": lines(event_row(e) for e in result.env.trace.events),
        "receipts.jsonl": lines(expanded(e) for e in result.env.receipts_log),
        "records.jsonl": lines(records[k].to_dict() for k in sorted(records)),
    }


def _run_with_rejections() -> harness.RunResult:
    """A completed counting-backend run, then one more transaction whose
    relay delivery is forged (a zero sibling prepended to its Merkle path) and a bundle whose
    receipt payload does not decode, so its rejection names no key."""
    scenario = dc_replace(_small_scenario(seed=4, count=20), backend="counting")
    env, mos = harness.build_environment(scenario)
    observer = Prover("obs", env.backend)
    env.add_observer(observer)  # registered before the rounds release the blocks it reads
    values = harness._submit_stream(env, mos, scenario, synthetic_workload(scenario))
    env.run_until_complete(env.submitted, scenario.horizon_rounds)
    key = mos.message_out(1, 2, AssetPayload(token="T", amount=5), "MAPO", fee_paid=10)
    env._produce_source_blocks()
    block, leaf = [(b, i) for b, i in observer.monitor(env.chains[1]) if b.records[i].key == key][0]
    bundle = observer.ctx_bundle(env.chains[1], block, leaf)
    longer = dc_replace(bundle.merkle_proof, path=((bytes(32), "L"),) + bundle.merkle_proof.path)
    mos.message_in(env.rc_id, 1, dc_replace(bundle, merkle_proof=longer))
    with pytest.raises(ValueError):
        mos.message_in(env.rc_id, 1, dc_replace(bundle, receipt_payload=b"garbage"))
    return harness.RunResult(
        scenario=scenario.name,
        seed=scenario.seed,
        submitted=len(env.submitted),
        confirmed=len(env.trace.completed_keys()),
        stalled=[key],
        payload_violations=env.payload_conservation_violations(),
        values=values,
        env=env,
        mos=mos,
    )


def test_streamed_artifacts_equal_the_reference_writer(tmp_path):
    """`write_artifacts` streams each file line by line and expands the
    receipts log's shared item tuples; a 200-transaction run with gate
    reports, and a run with rejections (one of a key in flight, one that
    names no key), write the bytes of the whole-object reference writer."""
    scenario = dc_replace(_small_scenario(seed=3, count=200), backend="counting")
    result = harness.run(scenario, outdir=tmp_path / "clean")
    assert result.ok and result.submitted == 200
    rejected = _run_with_rejections()
    harness.write_artifacts(tmp_path / "rejected", rejected)
    events = rejected.env.trace.events
    assert {e.verdict for e in events if e.key is None} == {"reject:merkle-fail"}
    assert {"ok", "reject:merkle-fail"} <= {e.verdict for e in events if e.key is not None}
    statuses = [(r.status.value, r.reject_reason) for r in rejected.mos.records.values()]
    assert ("rejected", "merkle-fail") in statuses
    for run in (result, rejected):
        assert any(e["context"] == "gate_report" for e in run.env.receipts_log)
    for outdir, run in ((tmp_path / "clean", result), (tmp_path / "rejected", rejected)):
        for name, expected in _reference_artifacts(run).items():
            assert (outdir / name).read_bytes() == expected, (outdir.name, name)


# ---------------------------------------------------------------------------
# attacks


def test_liveness_one_honest_prover_suffices():
    verdict = harness.attack_liveness(_small_scenario(), honest_provers=1, silent_provers=3, count=10)
    assert verdict.ok and not verdict.observed_breach
    assert verdict.details["confirmed"] == 10


def test_liveness_all_silent_stalls():
    verdict = harness.attack_liveness(_small_scenario(), honest_provers=0, silent_provers=2, count=5)
    assert verdict.ok and verdict.observed_breach
    assert verdict.details["confirmed"] == 0


def test_liveness_withholding_stalls():
    verdict = harness.attack_liveness(
        _small_scenario(), honest_provers=1, withhold={100: 0.4}, count=5
    )
    assert verdict.ok and verdict.observed_breach


def test_liveness_small_withholding_harmless():
    verdict = harness.attack_liveness(
        _small_scenario(), honest_provers=1, withhold={100: 0.25}, count=5
    )
    assert verdict.ok and not verdict.observed_breach


@pytest.mark.parametrize("fraction, withheld, stalls", [(0.4, 2, True), (0.25, 1, False)])
def test_a_scenario_withhold_fault_applies_where_the_environment_is_built(fraction, withheld, stalls):
    """`faults.withhold` of a scenario holds end to end: withholding 2 of
    the relay chain's 4 validators stalls every key, and 1 of 4 none."""
    scenario = dc_replace(_small_scenario(count=5), faults=FaultSpec(withhold=((100, fraction),)))
    result = harness.run(scenario)
    assert result.env.rc.chain.withheld_weight == withheld
    assert (len(result.stalled), result.confirmed) == ((5, 0) if stalls else (0, 5))


def test_liveness_withholding_goes_through_the_scenario_faults(monkeypatch):
    """`attack_liveness` puts its withhold map in place of the scenario's
    own `faults.withhold`, and its verdict reads each chain's withheld
    weight back from the chain that `build_environment` set up."""
    built = []
    build = harness.build_environment
    monkeypatch.setattr(harness, "build_environment", lambda s: built.append(s.faults.withhold) or build(s))
    scenario = dc_replace(_small_scenario(), faults=FaultSpec(withhold=((1, 0.5),)))
    verdict = harness.attack_liveness(scenario, honest_provers=1, withhold={100: 0.4, 2: 0.0}, count=5)
    assert built == [((2, 0.0), (100, 0.4))]
    assert verdict.details["withheld"] == {
        "2": {"requested_fraction": 0.0, "withheld_weight": 0, "total_weight": 3},
        "100": {"requested_fraction": 0.4, "withheld_weight": 2, "total_weight": 4},
    }
    assert verdict.ok and verdict.expected_breach


def test_consistency_corpus_rejects_all():
    verdict = harness.attack_consistency(_small_scenario(), forgeries=150, honest_count=10)
    assert verdict.ok and not verdict.observed_breach
    details = verdict.details
    assert details["accepted_at_relay"] == 0
    assert details["forged_final_confirmations"] == 0
    assert details["payload_violations"] == 0
    assert all(count > 0 for count in details["per_strategy"].values())
    assert sum(details["rejection_reasons"].values()) == details["attempted"]
    assert details["rejection_reasons"].get("epoch-gap", 0) > 0


def test_consistency_with_one_receipt_per_block_rejects_all():
    """Two honest transactions per wave over the demo's three sources put one
    receipt in each block, so every Merkle path is empty: a reused path is
    then the honest one, and the corpus reuses the donor's proof of validity
    instead."""
    demo = load_scenario(DEMO)
    _, corpus = harness.harvested_corpus(demo, honest_count=4)
    assert {b.merkle_proof.path for b in corpus.live} == {()}
    verdict = harness.attack_consistency(demo, forgeries=100, honest_count=4)
    assert verdict.ok and not verdict.observed_breach
    assert verdict.details["accepted_at_relay"] == 0
    assert sum(verdict.details["rejection_reasons"].values()) == verdict.details["attempted"]


def _hmac_skipped(self, proof, publics):
    return proof.publics == publics


DEFENCES = {
    "attestation-hmac": [
        (TransparentBackend, "verify", _hmac_skipped),
        (CountingBackend, "verify", _hmac_skipped),
    ],
    "epoch-gap": [(lightclient, "_header_matches_epoch", lambda state_epoch, header: True)],
    "merkle": [(lightclient, "merkle_verify", lambda root, leaf, proof, algo="sha256": True)],
}


@pytest.mark.parametrize("backend", ["transparent", "counting"])
@pytest.mark.parametrize("defence", sorted(DEFENCES))
def test_removing_a_defence_is_a_breach(monkeypatch, defence, backend):
    """With one of these relay-client checks taken out, some strategy's
    forgeries get through, and the consistency case reports the breach."""
    for owner, name, stub in DEFENCES[defence]:
        monkeypatch.setattr(owner, name, stub)
    scenario = dc_replace(_small_scenario(), backend=backend)
    verdict = harness.attack_consistency(scenario, forgeries=150, honest_count=10)
    assert verdict.observed_breach and not verdict.ok
    assert verdict.details["accepted_at_relay"] > 0


def _bundle_bytes(bundle) -> bytes:
    header, proof, merkle = bundle.header, bundle.zk_proof, bundle.merkle_proof
    fields = [
        bundle.kind.encode(),
        encoding.u64(bundle.origin_chain),
        header.signing_payload(),
        g1_to_bytes(header.agg.point),
        bytes(header.agg.bitmap),
        proof.backend.encode(),
        proof.attestation,
        proof.publics.canonical_bytes(),
        *(sibling + side.encode() for sibling, side in merkle.path),
        bundle.receipt_payload or b"",
        bundle.receipt_hash or b"",
    ]
    return b"".join(encoding.lp(f) for f in fields)


FORGERY_SEQUENCE_SHA256 = "d916abf08916e73f19576434a7d8ee33617c76a57ba17e08c866426fb59ee276"


def test_forgery_sequence_is_pinned():
    """A seeded corpus forges the same 100 bundles, from the same rng draws
    and donor order, whatever the corpus keeps to pick its donors."""
    _, corpus = harness.harvested_corpus(_small_scenario(), honest_count=20)
    assert (len(corpus.live), len(corpus.stale)) == (10, 10)
    h = hashlib.sha256()
    for i in range(100):
        strategy = harness.FORGERY_STRATEGIES[i % len(harness.FORGERY_STRATEGIES)]
        h.update(_bundle_bytes(corpus.forge(strategy)))
    h.update(repr(corpus.rng.random()).encode())  # no draw added or dropped
    assert h.hexdigest() == FORGERY_SEQUENCE_SHA256


def test_the_corpus_observer_harvests_both_pools_while_rounds_release_blocks():
    """The forgery corpus's observer is a registered reader: rounds between
    and after its harvests release every source block it has read, and
    none it has not, so `harvest` after `env.step()` finds both pools."""
    env, corpus = harness.harvested_corpus(_small_scenario(), honest_count=20)
    assert (len(corpus.live), len(corpus.stale)) == (10, 10)
    for cid, chain in env.chains.items():
        cursor = corpus.observer.receipt_cursor(cid)
        assert cursor > 1
        with pytest.raises(BlockReleased, match=f"^block {cursor - 1} of chain {cid} was released"):
            chain.block_at(cursor - 1)
        for height in range(cursor, chain.height + 1):
            assert chain.block_at(height).header is chain.header_at(height)


def test_the_corpus_refuses_an_epoch_advance_over_pending_records():
    """The corpus advances each source one epoch with blocks made outside
    the rounds, which no host reads for confirmations: with at most two
    records a block, wave 1 leaves records pending, and the corpus stops
    instead of confirming them in a block nothing reads."""
    scenario = _block_bound(_small_scenario(), 2, 2)
    with pytest.raises(RuntimeError, match="^chain 1 still has pending records"):
        harness.harvested_corpus(scenario, honest_count=20)


def _block_bound(scenario, relay_txs, source_txs):
    return dc_replace(
        scenario,
        relay_chain=dc_replace(scenario.relay_chain, max_block_txs=relay_txs),
        chains=tuple(dc_replace(c, max_block_txs=source_txs) for c in scenario.chains),
    )


def test_a_short_horizon_stalls_at_one_relay_block_a_round_and_the_computed_one_completes():
    """With relay-chain blocks of at most 4 records, each round confirms
    one relay block: a horizon of h rounds stalls with exactly 4h keys
    confirmed, and `completing_horizon` confirms all 22, also when every
    source block holds 4 too. `default_scenario` keeps its horizon."""
    base = default_scenario(seed=3, count=22)
    relay_bound = _block_bound(base, 4, 4096)
    horizon = completing_horizon(relay_bound, 22)
    assert horizon == 7  # ceil(22 / 4) + 1
    for short in (1, 3, 5):
        result = harness.run(dc_replace(relay_bound, horizon_rounds=short))
        assert (result.confirmed, len(result.stalled)) == (4 * short, 22 - 4 * short)
    for scenario in (relay_bound, _block_bound(base, 4, 4)):
        assert completing_horizon(scenario, 22) == horizon
        result = harness.run(dc_replace(scenario, horizon_rounds=horizon))
        assert result.ok and result.confirmed == 22
    assert base.horizon_rounds == 10 and completing_horizon(base, 50_000) == 14


SMALL_BLOCK_ARTIFACT_SHA256 = {
    "receipts.jsonl": "ef8d9c702573628ead8f66698a094bf7ede35385ebce6903694b5cbbcb822826",
    "records.jsonl": "244edaea59171bf9375e90dc247f846ae2daacc19c1bb3f8f4733e4a443e4dbd",
    "summary.json": "62445922447e5ffac58b453bdd5da4b5173ff39a316c425c4cbace00fed89c82",
    "trace.jsonl": "5780b16e725f86bc7d8962294d6e263fe5603f771d0695e3831649e6d170dabc",
}


def test_every_key_of_a_small_block_run_reaches_every_stage(tmp_path):
    """With blocks of at most 4 records on every chain, a chain's outgoing
    backlog overflows into the blocks its destination host makes after
    draining its inbox. Those transactions are traced at `confirm_sc` too:
    every key reaches all seven stages, and none is confirmed on its source
    chain later than it is proven there. The run releases blocks as it goes
    and shares bundles across several blocks a round; its artifacts are
    pinned byte for byte."""
    scenario = _block_bound(default_scenario(seed=1, count=61), 4, 4)
    result = harness.run(dc_replace(scenario, horizon_rounds=completing_horizon(scenario, 61)), tmp_path)
    assert result.ok and result.confirmed == 61 and result.env.round == 16
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert digests == SMALL_BLOCK_ARTIFACT_SHA256
    env = result.env
    for key in env.submitted:
        ticks = env.trace.stage_ticks(key)
        assert list(ticks) == list(PIPELINE_STAGES), key
        assert ticks["confirm_sc"] <= ticks["prove_sc"]


def test_scale_run_reports_the_run_it_measured(tmp_path):
    """`tools/scale_run.py` runs `default_scenario` at the completing
    horizon in a child interpreter and reports that run's artifact digests,
    equal to an in-process run's, with the child's CPU time and peak RSS."""
    tool = Path(__file__).resolve().parent.parent / "tools" / "scale_run.py"
    proc = subprocess.run([sys.executable, str(tool), "--count", "30", "--seed", "4"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    scenario = default_scenario(seed=4, count=30)
    assert report["horizon_rounds"] == completing_horizon(scenario, 30) == 2
    result = harness.run(dc_replace(scenario, horizon_rounds=2), tmp_path)
    assert report["ok"] and report["confirmed"] == result.confirmed == 30
    assert report["digests"] == {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert report["cpu_s"] >= report["run_cpu_s"] > 0 and report["ru_maxrss_mb"] > 0


def test_collusion_bound_tightness():
    scenario = _small_scenario(rc_validators=10)
    breach = harness.attack_collusion(scenario, colluding_fraction=0.7)
    assert breach.ok and breach.observed_breach
    assert breach.details["forged_key_confirmed"]
    safe = harness.attack_collusion(scenario, colluding_fraction=0.6)
    assert safe.ok and not safe.observed_breach
    assert safe.details["prover_refused"]


def test_attack_suite_covers_all_cases():
    verdicts = harness.attack_suite(_small_scenario(), forgeries=50)
    assert {v.case for v in verdicts} == set(harness.ALL_CASES)
    assert all(v.ok for v in verdicts)


def test_scenario_rejects_tampering_prover_profile():
    """`tampering` is no prover profile: forged bundles come from
    `harness.attack_consistency`, so the parser refuses a scenario that asks
    for a tampering prover instead of running it as an honest one."""
    raw = {
        "name": "small",
        "seed": 3,
        "relay_chain": {"chain_id": 100, "validators": 4, "epoch_size": 10},
        "chains": [
            {"chain_id": 1, "validators": 3, "epoch_size": 6},
            {"chain_id": 2, "validators": 3, "epoch_size": 6},
        ],
        "provers": [{"name": "p0"}, {"name": "evil", "profile": "tampering"}],
        "workload": {"kind": "synthetic", "count": 10},
    }
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert err.value.problems == ["provers[1]: unknown profile 'tampering'"]
    with pytest.raises(ValueError, match="unknown prover profile"):
        Prover("evil", backend=None, profile="tampering")


def _valid_raw():
    return {
        "name": "checks",
        "relay_chain": {"chain_id": 100, "validators": 4, "epoch_size": 10},
        "chains": [
            {"chain_id": 1, "validators": 3, "epoch_size": 6},
            {"chain_id": 2, "validators": 3, "epoch_size": 6},
        ],
        "workload": {"kind": "synthetic", "count": 4},
        "stakes": {"1": 10, "100": 10},
        "faults": {"withhold": {"100": 0.25}},
    }


_BAD_KNOBS = {
    "withhold-unknown-chain": (
        lambda raw: raw["faults"]["withhold"].update({"999": 0.5}),
        ["faults.withhold: unknown chain 999"],
    ),
    "unknown-hash-algo": (
        lambda raw: raw["chains"][1].update(hash_algo="md5"),
        ["chains[1]: unknown hash algorithm 'md5'; pick one of ('sha256', 'sha3_256', 'blake2b_256')"],
    ),
    "withhold-fraction-above-one": (
        lambda raw: raw["faults"]["withhold"].update({"1": 1.7}),
        ["faults.withhold: fraction 1.7 for chain 1 is outside [0, 1]"],
    ),
    "withhold-fraction-below-zero": (
        lambda raw: raw["faults"]["withhold"].update({"100": -0.5}),
        ["faults.withhold: fraction -0.5 for chain 100 is outside [0, 1]"],
    ),
    "stakes-unknown-chain": (
        lambda raw: raw["stakes"].update({"7": 10}),
        ["stakes: unknown chain 7"],
    ),
    "negative-count": (
        lambda raw: raw["workload"].update(count=-5),
        ["workload: count -5 is negative"],
    ),
}


@pytest.mark.parametrize("knob", sorted(_BAD_KNOBS))
def test_scenario_checks_ranges_and_chain_references(knob):
    """Each out-of-range knob or reference to a chain the scenario does not
    define is a problem of the `ScenarioError`, not a later failure or a
    silently clamped run; the valid scenario itself parses."""
    scenario_from_dict(_valid_raw())
    raw = _valid_raw()
    change, expected = _BAD_KNOBS[knob]
    change(raw)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert err.value.problems == expected


def test_scenario_reports_every_bad_knob_at_once():
    raw = _valid_raw()
    for change, _ in _BAD_KNOBS.values():
        change(raw)
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(raw)
    assert sorted(err.value.problems) == sorted(p for _, expected in _BAD_KNOBS.values() for p in expected)


def _set(*path, value):
    """A change that sets raw[path[0]]...[path[-1]] to `value`."""

    def change(raw):
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
        return raw

    return change


def _weights(value):
    """A change that gives chains[1] `weights: value` in place of its `validators`."""

    def change(raw):
        chain = raw["chains"][1]
        del chain["validators"]
        chain["weights"] = value
        return raw

    return change


# A value that is no number, or a section of the wrong shape, is a problem at
# its path. A relay chain or chain list that cannot be read also leaves the
# stakes and withhold entries that name its chains unknown.
_MALFORMED = {
    "seed": (_set("seed", value="abc"), ["seed: expected an integer, got 'abc'"]),
    "horizon": (_set("horizon_rounds", value="h"), ["horizon_rounds: expected an integer, got 'h'"]),
    "count": (_set("workload", "count", value="ten"), ["workload.count: expected an integer, got 'ten'"]),
    "stakes-chain": (_set("stakes", "x", value=5), ["stakes: expected an integer, got 'x'"]),
    "stakes-amount": (_set("stakes", "1", value="many"), ["stakes.1: expected an integer, got 'many'"]),
    "withhold-fraction": (
        _set("faults", "withhold", "1", value="lots"),
        ["faults.withhold.1: expected a number, got 'lots'"],
    ),
    "withhold-section": (_set("faults", "withhold", value=[1]), ["faults.withhold: expected a mapping, got [1]"]),
    "workload": (_set("workload", value=5), ["workload: expected a mapping, got 5"]),
    "pricing": (_set("pricing", value=[1]), ["pricing: expected a mapping, got [1]"]),
    "faults": (_set("faults", value=[1]), ["faults: expected a mapping, got [1]"]),
    "stakes": (_set("stakes", value=[1]), ["stakes: expected a mapping, got [1]"]),
    "provers": (_set("provers", value="p0"), ["provers: expected a list, got 'p0'"]),
    "prover": (_set("provers", value=["p0"]), ["provers[0]: expected a mapping, got 'p0'"]),
    "chain": (_set("chains", 1, value=7), ["chains[1]: expected a mapping, got 7"]),
    "chains": (
        _set("chains", value={"a": 1, "b": 2}),
        ["chains: expected a list, got {'a': 1, 'b': 2}", "stakes: unknown chain 1"],
    ),
    "relay-chain": (
        _set("relay_chain", value="x"),
        [
            "relay_chain: expected a mapping, got 'x'",
            "stakes: unknown chain 100",
            "faults.withhold: unknown chain 100",
        ],
    ),
    "top-level-list": (lambda raw: [1], ["scenario: expected a mapping, got [1]"]),
    "weights-string": (
        _weights("123"),
        ["chains[1].weights: expected a list, got '123'"],
    ),
    "weights-elements": (
        _weights([1, "x", 2.5]),
        ["chains[1].weights[1]: expected an integer, got 'x'", "chains[1].weights[2]: expected an integer, got 2.5"],
    ),
    # `validators: n` stands for n weights, so a chain gives one or the other
    "validators-and-weights": (
        _set("chains", 1, "weights", value=[5, 5]),
        ["chains[1]: give validators or weights, not both"],
    ),
    # int() would cut each of these fractions without a word
    "seed-fraction": (_set("seed", value=1.9), ["seed: expected an integer, got 1.9"]),
    "horizon-fraction": (_set("horizon_rounds", value=2.5), ["horizon_rounds: expected an integer, got 2.5"]),
    "count-fraction": (_set("workload", "count", value=5.7), ["workload.count: expected an integer, got 5.7"]),
    "stakes-fraction": (_set("stakes", "1", value=10.5), ["stakes.1: expected an integer, got 10.5"]),
    "chain-id-fraction": (
        _set("chains", 1, "chain_id", value=2.5),
        ["chains[1].chain_id: expected an integer, got 2.5"],
    ),
    "epoch-size-fraction": (
        _set("chains", 1, "epoch_size", value=6.5),
        ["chains[1].epoch_size: expected an integer, got 6.5"],
    ),
    "validators-fraction": (
        _set("relay_chain", "validators", value=3.5),
        [
            "relay_chain.validators: expected an integer, got 3.5",
            "stakes: unknown chain 100",
            "faults.withhold: unknown chain 100",
        ],
    ),
    "base-fee-rc-fraction": (
        _set("pricing", value={"base_fee_rc": 1.5}),
        ["pricing.base_fee_rc: expected an integer, got 1.5"],
    ),
    "base-fee-dc-fraction": (
        _set("pricing", value={"base_fee_dc": 0.5}),
        ["pricing.base_fee_dc: expected an integer, got 0.5"],
    ),
    "fee-cap-fraction": (
        _set("pricing", value={"fee_cap": 99.9}),
        ["pricing.fee_cap: expected an integer, got 99.9"],
    ),
    # a string field given another type, which the run would trip on later
    "workload-path": (_set("workload", "path", value=5), ["workload.path: expected a string, got 5"]),
    "workload-token": (_set("workload", "token", value=7), ["workload.token: expected a string, got 7"]),
    # a cost constant that is no integer, one the table does not have, a table that is no mapping
    "gas-fraction": (
        _set("gas_table", value={"snark_verify": 1.5}),
        ["gas_table.snark_verify: expected an integer, got 1.5"],
    ),
    "gas-unknown-constant": (_set("gas_table", value={"snark": 1}), ["gas_table.snark: unknown key"]),
    "gas-section": (_set("gas_table", value=[1]), ["gas_table: expected a mapping, got [1]"]),
    "vote-threshold": (
        _set("chains", 0, "vote_threshold", value="a/b"),
        ["chains[0].vote_threshold: expected a fraction, got 'a/b'", "stakes: unknown chain 1"],
    ),
    # a bool is no number, though Python counts True as 1 and False as 0
    "validators-bool": (
        _set("chains", 1, "validators", value=True),
        ["chains[1].validators: expected an integer, got True"],
    ),
    "seed-bool": (_set("seed", value=False), ["seed: expected an integer, got False"]),
    "count-bool": (_set("workload", "count", value=True), ["workload.count: expected an integer, got True"]),
    "vote-threshold-bool": (
        _set("chains", 0, "vote_threshold", value=True),
        ["chains[0].vote_threshold: expected a fraction, got True", "stakes: unknown chain 1"],
    ),
    "withhold-bool": (
        _set("faults", "withhold", "100", value=True),
        ["faults.withhold.100: expected a number, got True"],
    ),
    "fee-cap-bool": (_set("pricing", value={"fee_cap": True}), ["pricing.fee_cap: expected an integer, got True"]),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_scenario_reports_malformed_values_and_sections(case):
    """Each malformed value or section is a problem of the `ScenarioError`
    at its path, not a bare `ValueError` or `AttributeError`."""
    change, expected = _MALFORMED[case]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(change(_valid_raw()))
    assert err.value.problems == expected


def _steps(path):
    """The keys and list indices of a path such as `chains[0].rotation`."""
    return [int(step) if step.isdigit() else step for step in re.findall(r"[^.\[\]]+", path)]


_UNKNOWN_KEYS = [
    "horizon_round",
    "chains[0].rotaton",
    "faults.withold",
    "workload.cout",
    "pricing.fee",
    "provers[0].profil",
    "gas_table.snark",
    # fields set only in code are no scenario keys
    "relay_chain.max_block_txs",
    "relay_chain.announce_commitment_only",
]


@pytest.mark.parametrize("path", _UNKNOWN_KEYS)
def test_scenario_refuses_an_unknown_key_at_its_path(path):
    """A key that names no field of its section's spec is a problem at its
    path, not a value the parse drops without a word."""
    raw = {**_valid_raw(), "provers": [{"name": "p0"}], "pricing": {}, "gas_table": {}}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(_set(*_steps(path), value=2)(raw))
    assert err.value.problems == [f"{path}: unknown key"]


def _minimal_raw():
    """A scenario that names every section and leaves each field to its
    default, but for a workload path, so that `kind: dataset` alone is valid."""
    return {
        "relay_chain": {"chain_id": 100},
        "chains": [{"chain_id": 1}, {"chain_id": 2}],
        "provers": [{}],
        "workload": {"path": "rows.csv"},
        "gas_table": {},
        "gate_table": {},
        "pricing": {},
        "faults": {},
    }


_CHAIN_CASES = {
    "chain_id": 7,
    "epoch_size": 5,
    "weights": [1, 2],
    "validators": 5,
    "vote_threshold": "3/4",
    "rotation": "reweight",
    "hash_algo": "blake2b_256",
    "key_namespace": "ns",
}

# one valid value other than the default for every key the reader accepts
_KEY_CASES = {
    "name": "other",
    "seed": 9,
    "horizon_rounds": 3,
    "backend": "counting",
    "stakes": {"1": 5},
    **{f"{chain}.{key}": value for chain in ("relay_chain", "chains[0]") for key, value in _CHAIN_CASES.items()},
    "provers[0].name": "p",
    "provers[0].profile": "silent",
    "workload.kind": "dataset",
    "workload.count": 5,
    "workload.pattern": "asset",
    "workload.amount_min": 2,
    "workload.amount_max": 500,
    "workload.token": "DAI",
    "workload.path": "other.csv",
    "pricing.k": "1/50",
    "pricing.base_fee_rc": 2,
    "pricing.base_fee_dc": 2,
    "pricing.fee_cap": 999,
    "faults.withhold": {"1": 0.5},
    # every cost constant is an integer, so one more than its default is another valid value
    **{
        f"{section}.{f.name}": f.default + 1
        for section, table in (("gas_table", GasCostTable), ("gate_table", GateCostTable))
        for f in fields(table)
    },
}


def _accepted_keys():
    """Every key the reader accepts, derived from the spec fields: a field
    whose type is a spec, or a tuple of specs, is a section of that spec's
    keys; a chain section also takes the `validators` shorthand."""
    keys = set()
    for name, kind in scenario_keys(Scenario).items():
        args = get_args(kind)
        spec = args[0] if args and is_dataclass(args[0]) else kind
        if not is_dataclass(spec):
            keys.add(name)
            continue
        section = name if spec is kind else f"{name}[0]"
        keys |= {f"{section}.{key}" for key in scenario_keys(spec)}
        if spec is ChainConfig:
            keys.add(f"{section}.validators")
    return keys


def _field_at(scenario, path):
    """The field of a parsed scenario that the key at `path` sets."""
    value = scenario
    for step in _steps(path.replace("validators", "weights")):
        value = value[step] if isinstance(step, int) else getattr(value, step)
    return value


def test_every_key_the_reader_accepts_reaches_the_scenario():
    """Each key the reader accepts, given a valid value other than its
    default, changes its field of the parsed scenario, so no accepted key is
    read and then dropped. The cases cover exactly the keys the spec fields
    define: a new field without a case fails here."""
    assert set(_KEY_CASES) == _accepted_keys()
    default = scenario_from_dict(_minimal_raw())
    for path, value in _KEY_CASES.items():
        parsed = scenario_from_dict(_set(*_steps(path), value=value)(_minimal_raw()))
        assert _field_at(parsed, path) != _field_at(default, path), path


@st.composite
def _valid_scenarios(draw):
    """A valid scenario of 2-4 chains through a relay chain, each given by
    `validators` or by `weights`, with at least one honest prover."""

    def chain(chain_id):
        threshold = draw(st.fractions(Fraction(1, 2), Fraction(3, 4), max_denominator=12))
        section = {
            "chain_id": chain_id,
            "epoch_size": draw(st.integers(1, 6)),
            "vote_threshold": f"{threshold.numerator}/{threshold.denominator}",
            "rotation": draw(st.sampled_from(["identity", "reweight", "refresh"])),
            "hash_algo": draw(st.sampled_from(SUPPORTED)),
        }
        if draw(st.booleans()):
            section["validators"] = draw(st.integers(1, 5))
        else:
            section["weights"] = draw(st.lists(st.integers(1, 50), min_size=1, max_size=5))
        return section

    profiles = ["honest"] * draw(st.integers(1, 2)) + ["silent"] * draw(st.integers(0, 1))
    return {
        "seed": draw(st.integers(0, 2**16)),
        "relay_chain": chain(100),
        "chains": [chain(i) for i in range(1, draw(st.integers(2, 4)) + 1)],
        "provers": [{"profile": profile} for profile in draw(st.permutations(profiles))],
        "backend": draw(st.sampled_from(["transparent", "counting"])),
        "workload": {"count": draw(st.integers(1, 8))},
    }


@settings(max_examples=10, deadline=None)
@given(raw=_valid_scenarios())
def test_a_valid_scenario_parses_and_its_run_completes(raw):
    scenario = scenario_from_dict(raw)
    horizon = completing_horizon(scenario, scenario.workload.count)
    assert harness.run(dc_replace(scenario, horizon_rounds=horizon)).ok


# ---------------------------------------------------------------------------
# replay


def _write_dataset(path: Path, rows):
    lines = ["src_chain,dst_chain,start_ts,end_ts,token,amount"]
    lines += [",".join(str(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_replay_single_row(tmp_path):
    data = tmp_path / "one.csv"
    _write_dataset(data, [(1, 2, 1700000000, 1700000100, "USDC", 500)])
    result, report = harness.replay(data, _small_scenario(), outdir=tmp_path / "out")
    assert result.ok and result.submitted == 1
    assert report.total_txs == 1
    assert report.max_value == 500
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "degradation" in summary


def test_a_run_keeps_no_workload_once_its_rounds_begin(tmp_path, monkeypatch):
    """`harness.run` submits dataset rows and synthetic transactions as it
    reads them: when its first round starts, no dataset row and no
    (source, dest, payload) item of the workload is alive."""
    import gc

    from relaysim.chain import MessagePayload
    from relaysim.relay import RelayEnvironment
    from relaysim.scenario import DatasetRow

    def workload_items():
        gc.collect()
        return sum(
            isinstance(o, DatasetRow)
            or (isinstance(o, tuple) and len(o) == 3 and isinstance(o[2], (AssetPayload, MessagePayload)))
            for o in gc.get_objects()
        )

    alive, step = [], RelayEnvironment.step

    def first_step(env):
        if env.round == 0:
            alive.append(workload_items())
        step(env)

    monkeypatch.setattr(RelayEnvironment, "step", first_step)
    data = tmp_path / "rows.csv"
    _write_dataset(data, [(1 + i % 2, 2 - i % 2, 0, 1, "USDC", 10 + i) for i in range(30)])
    dataset = dc_replace(_small_scenario(), workload=dc_replace(_small_scenario().workload, kind="dataset", path=str(data)))
    assert harness.run(dataset).submitted == 30
    assert harness.run(_small_scenario(count=30)).submitted == 30
    assert alive == [0, 0]


def test_replay_rejects_bad_rows(tmp_path):
    data = tmp_path / "bad.csv"
    _write_dataset(
        data,
        [
            (1, 2, 1700000100, 1700000000, "USDC", 500),  # end before start
            (1, 2, 1700000000, 1700000100, "USDC", -5),  # negative amount
            (1, 2, "soon", 1700000100, "USDC", 5),  # non-integer timestamp
        ],
    )
    with pytest.raises(DatasetError) as err:
        parse_dataset(data)
    problems = err.value.problems
    assert len(problems) == 3
    assert all("line" in p for p in problems)


def test_a_dataset_amount_must_fit_in_64_bits(tmp_path):
    """A row's amount of 2^64 or more is a problem at its line; 2^64 - 1 is
    read."""
    data = tmp_path / "wide.csv"
    _write_dataset(data, [(1, 2, 1, 2, "USDC", 2**64 - 1), (1, 2, 1, 2, "USDC", 2**64)])
    with pytest.raises(DatasetError) as err:
        parse_dataset(data)
    assert err.value.problems == ["line 3: amount 18446744073709551616 is outside [0, 2^64)"]
    _write_dataset(data, [(1, 2, 1, 2, "USDC", 2**64 - 1)])
    assert [row.amount for row in parse_dataset(data)] == [2**64 - 1]


def test_a_dataset_row_to_its_own_chain_is_refused_at_its_line(tmp_path):
    """A row whose source and destination are the same chain is a problem
    at its line when the dataset loads, before any row is submitted."""
    data = tmp_path / "loop.csv"
    _write_dataset(data, [(1, 2, 1, 2, "USDC", 5), (2, 2, 1, 6, "USDC", 20)])
    with pytest.raises(DatasetError) as err:
        parse_dataset(data)
    assert err.value.problems == ["line 3: source and destination are the same chain 2"]
    with pytest.raises(DatasetError):
        harness.replay(data, _small_scenario())


def test_replay_rejects_unknown_chains(tmp_path):
    data = tmp_path / "chains.csv"
    _write_dataset(data, [(1, 77, 1, 2, "USDC", 5)])
    with pytest.raises(DatasetError):
        harness.replay(data, _small_scenario())


def test_unknown_chain_names_the_file_line(tmp_path):
    """Blank lines count: a bad row on line 5, after two blank lines, is
    reported as line 5, in `parse_dataset`'s wording."""
    data = tmp_path / "gaps.csv"
    data.write_text(
        "src_chain,dst_chain,start_ts,end_ts,token,amount\n"
        "1,2,1,2,USDC,5\n"
        "\n"
        "\n"
        "1,77,1,2,USDC,5\n"
    )
    scenario = dc_replace(
        _small_scenario(), workload=dc_replace(_small_scenario().workload, kind="dataset", path=str(data))
    )
    with pytest.raises(DatasetError) as err:
        harness.run(scenario)
    assert err.value.problems == ["line 5: unknown chain 77"]


def test_bad_row_after_a_multiline_token_names_its_file_line(tmp_path):
    """A quoted token may span lines: the bad row after a two-line token
    starts on file line 4, the fourth line, not the third record."""
    data = tmp_path / "quoted.csv"
    data.write_text(
        "src_chain,dst_chain,start_ts,end_ts,token,amount\n"
        '1,2,1,2,"US\nDC",5\n'
        "1,2,1,2,USDC,-5\n"
    )
    with pytest.raises(DatasetError) as err:
        parse_dataset(data)
    assert [p.split(":")[0] for p in err.value.problems] == ["line 4"]


def test_replay_header_mismatch(tmp_path):
    data = tmp_path / "hdr.csv"
    data.write_text("a,b,c\n")
    with pytest.raises(DatasetError):
        parse_dataset(data)


def test_degradation_report_anchor(tmp_path):
    data = tmp_path / "anchor.csv"
    _write_dataset(data, [(1, 2, 0, 1, "USDC", 100_000), (2, 1, 0, 1, "USDT", 40_000)])
    _, report = harness.replay(data, _small_scenario())
    assert report.max_value == 100_000
    assert abs(report.max_ratio - 0.013) < 0.0015  # 100K against the 7M stake
    assert float(report.headroom) == pytest.approx(4_666_666.67, abs=1.0)


def test_replay_ten_thousand_rows_desk_scale(tmp_path):
    """A 10^4-row synthetic dataset replays completely within a desk-scale
    budget (seconds, not minutes)."""
    import random
    import time

    rng = random.Random(77)
    rows = []
    for i in range(10_000):
        src = rng.randint(1, 2)
        dst = 3 - src
        start = 1_700_000_000 + i
        rows.append((src, dst, start, start + 60, "USDC", rng.randint(1, 100_000)))
    data = tmp_path / "big.csv"
    _write_dataset(data, rows)
    started = time.monotonic()
    result, report = harness.replay(data, _small_scenario())
    elapsed = time.monotonic() - started
    assert result.ok and result.confirmed == 10_000
    assert report.total_txs == 10_000
    assert elapsed < 120, f"replay took {elapsed:.1f}s"


def test_counting_backend_scenario_knob():
    raw = {
        "name": "counting",
        "seed": 2,
        "relay_chain": {"chain_id": 100, "validators": 4, "epoch_size": 10},
        "chains": [
            {"chain_id": 1, "validators": 3, "epoch_size": 6},
            {"chain_id": 2, "validators": 3, "epoch_size": 6},
        ],
        "backend": "counting",
        "workload": {"kind": "synthetic", "count": 5},
    }
    result = harness.run(scenario_from_dict(raw))
    assert result.ok
    assert any(e["context"] == "gate_report" for e in result.env.receipts_log)


@pytest.mark.parametrize("backend", ["transparent", "counting"])
@pytest.mark.parametrize("algo", SUPPORTED)
def test_every_hash_algorithm_confirms_on_both_backends(algo, backend):
    """Commitments, header digests and receipt tries all follow each chain's
    `hash_algo`; the prover's public inputs must match the client's under
    every supported algorithm. With one block per epoch every header is a
    boundary, so the proofs also carry the announced-set commitment."""
    raw = {
        "name": f"hash-{algo}",
        "seed": 3,
        "relay_chain": {"chain_id": 100, "validators": 4, "epoch_size": 1, "hash_algo": algo},
        "chains": [
            {"chain_id": 1, "validators": 3, "epoch_size": 1, "hash_algo": algo},
            {"chain_id": 2, "validators": 3, "epoch_size": 1, "hash_algo": algo},
        ],
        "backend": backend,
        "workload": {"kind": "synthetic", "count": 4},
    }
    result = harness.run(scenario_from_dict(raw))
    assert result.confirmed == result.submitted == 4
    assert result.ok
    assert result.env.rejections == []
    assert any(e.get("operation") == "hlc_update" for e in result.env.receipts_log)


# ---------------------------------------------------------------------------
# bench


def test_bench_tables():
    report = harness.bench(_small_scenario())
    gas = report["gas"]
    assert gas["verify_ratio"] <= 0.70
    assert abs(gas["normal_verify"] - 1_000_000) <= 100_000
    assert abs(gas["hybrid_verify"] - 650_000) <= 65_000
    gates = report["gates"]
    assert 0.75 <= gates["split_baseline_ratio_at_8"] <= 0.80
    n3 = next(r for r in report["deployment"] if r["chains"] == 3)
    assert n3["pairwise_lcs"] == n3["relayed_lcs"] == 6
    assert n3["pairwise_gas"] == 60_000_000
    assert n3["relayed_gas"] == 600_000
    text = harness.render_bench(report)
    assert "hybrid/normal verify ratio" in text


# ---------------------------------------------------------------------------
# CLI


def test_cli_plan(capsys):
    assert cli.main(["plan", "--chains", "3"]) == 0
    out = capsys.readouterr().out
    assert "pairwise" in out and "relayed" in out


def test_cli_plan_needs_two_chains(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["plan", "--chains", "1"])
    assert exc.value.code == 2
    assert "argument --chains: must be at least 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("forgeries", ["0", "-5"])
def test_cli_attack_needs_a_forgery(capsys, forgeries):
    """A consistency verdict over no forgeries would pass vacuously."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["attack", "--kind", "consistency", "--forgeries", forgeries])
    assert exc.value.code == 2
    assert f"argument --forgeries: must be at least 1, got {forgeries}" in capsys.readouterr().err


def test_cli_run_and_exit_codes(tmp_path, capsys):
    scen = tmp_path / "s.json"
    scen.write_text(
        json.dumps(
            {
                "name": "cli",
                "seed": 4,
                "relay_chain": {"chain_id": 100, "validators": 4, "epoch_size": 10},
                "chains": [
                    {"chain_id": 1, "validators": 3, "epoch_size": 10},
                    {"chain_id": 2, "validators": 3, "epoch_size": 10},
                ],
                "workload": {"kind": "synthetic", "count": 5},
            }
        )
    )
    assert cli.main(["--scenario", str(scen), "run", "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "trace.jsonl").exists()
    capsys.readouterr()


def test_cli_run_dataset_with_unknown_chain_exit_2(tmp_path, capsys):
    data = tmp_path / "chains.csv"
    _write_dataset(data, [(1, 77, 1, 2, "USDC", 5)])
    scen = tmp_path / "s.json"
    scen.write_text(
        json.dumps(
            {
                "name": "cli-dataset",
                "relay_chain": {"chain_id": 100, "validators": 4, "epoch_size": 10},
                "chains": [
                    {"chain_id": 1, "validators": 3, "epoch_size": 10},
                    {"chain_id": 2, "validators": 3, "epoch_size": 10},
                ],
                "workload": {"kind": "dataset", "path": str(data)},
            }
        )
    )
    assert cli.main(["--scenario", str(scen), "run"]) == 2
    assert "line 2: unknown chain 77" in capsys.readouterr().err


def test_cli_invalid_scenario_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "bad"}))
    assert cli.main(["--scenario", str(bad), "run"]) == 2
    assert "invalid scenario" in capsys.readouterr().err


def test_cli_malformed_scenario_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**_valid_raw(), "seed": "abc", "workload": 5, "horizon_round": 3}))
    assert cli.main(["--scenario", str(bad), "run"]) == 2
    err = capsys.readouterr().err
    assert "seed: expected an integer" in err and "workload: expected a mapping" in err
    assert "horizon_round: unknown key" in err


def test_cli_bench(capsys):
    assert cli.main(["bench"]) == 0
    assert "Deployment complexity" in capsys.readouterr().out


def test_cli_attack_kind_selects_suite_cases(tmp_path, capsys):
    assert cli.main(["attack", "--kind", "liveness", "--out", str(tmp_path)]) == 0
    rows = [json.loads(line) for line in (tmp_path / "attacks.jsonl").read_text().splitlines()]
    assert len(rows) == 3 and all(r["ok"] for r in rows)
    assert {r["case"] for r in rows} == set(harness.LIVENESS_CASES)
    capsys.readouterr()
