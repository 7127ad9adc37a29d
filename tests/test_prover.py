"""Prover runtime and proof backends: monitoring, statement checking, the
gate-count model, attestation soundness, and backend agreement."""

import hashlib
import hmac
import random
from dataclasses import replace as dc_replace
from fractions import Fraction

import pytest

from relaysim.chain import AssetPayload, Chain, ChainConfig, CrossChainTx, MessagePayload
from relaysim.costs import baseline_gates, gate_report, split_gates
from relaysim.crypto.hashes import SUPPORTED
from relaysim.prover import (
    CountingBackend,
    Prover,
    PublicInputs,
    TransparentBackend,
    UnsatisfiedStatement,
    statement_for_header,
)

T23 = Fraction(2, 3)
PI1_SHA256 = "b31a336d45af3cb1e64b660cc024dc5dd0bfe13ccca0a0099f2d57be1f5bfb9a"


def _chain(n=3, epoch_size=6, chain_id=1, ns="pv"):
    return Chain(
        ChainConfig(chain_id=chain_id, epoch_size=epoch_size, weights=(1,) * n, key_namespace=ns)
    )


# ---------------------------------------------------------------------------
# monitoring


def test_monitor_yields_confirmations_in_order(backend):
    chain = _chain()
    hashes = []
    for i in range(10):
        ctx = chain.make_tx(2, MessagePayload(bytes([i])))
        chain.submit_tx(ctx)
        hashes.append(ctx.tx_hash)
        if i % 3 == 2:
            chain.produce_block()
    chain.produce_block()
    prover = Prover("m", backend)
    seen = [block.receipts[i].tx_hash for block, i in prover.monitor(chain)]
    assert seen == hashes


def test_monitor_empty_stream(backend):
    chain = _chain(ns="empty")
    prover = Prover("m", backend)
    assert prover.monitor(chain) == []


def test_monitor_exactly_once_per_prover(backend):
    chain = _chain(ns="once")
    chain.submit_tx(chain.make_tx(2, MessagePayload(b"a")))
    chain.produce_block()
    prover = Prover("m", backend)
    first = prover.monitor(chain)
    assert len(first) == 1
    assert prover.monitor(chain) == []


def test_twin_provers_identical_streams(backend):
    chain = _chain(ns="twin")
    for i in range(7):
        chain.submit_tx(chain.make_tx(2, MessagePayload(bytes([i]))))
    chain.produce_block()
    p1, p2 = Prover("a", backend), Prover("b", backend)
    s1 = [(b.header.height, i, b.receipts[i].tx_hash) for b, i in p1.monitor(chain)]
    s2 = [(b.header.height, i, b.receipts[i].tx_hash) for b, i in p2.monitor(chain)]
    assert s1 == s2


def test_monitor_yields_only_the_records_of_its_kind(backend):
    """Given a record type, the monitor yields the receipts of that type
    alone, and its cursor still passes the other receipts."""

    class Event:
        def to_bytes(self):
            return b"event"

    chain = _chain(ns="kind")
    chain.submit_tx(chain.make_tx(2, MessagePayload(b"a")))
    chain.append_event(Event())
    chain.submit_tx(chain.make_tx(2, MessagePayload(b"b")))
    chain.produce_block()
    prover = Prover("m", backend)
    assert [i for _, i in prover.monitor(chain, CrossChainTx)] == [0, 2]
    chain.append_event(Event())
    chain.produce_block()
    assert prover.monitor(chain, CrossChainTx) == []
    assert prover.monitor(chain) == []
    everything = [type(b.records[i]) for b, i in Prover("n", backend).monitor(chain)]
    assert everything == [CrossChainTx, Event, CrossChainTx, Event]


# ---------------------------------------------------------------------------
# proof generation


def test_ctx_bundle_roundtrip(backend, gas_table):
    from relaysim.lightclient import hlc_setup, hlc_verify

    chain = _chain(ns="gen")
    chain.submit_tx(chain.make_tx(2, AssetPayload(token="T", amount=9)))
    block, header = chain.produce_block()
    bundle = Prover("p", backend).ctx_bundle(chain, block, 0)
    assert bundle.header == header
    state = hlc_setup(1, chain.validator_set(0), 6, T23, gas_table).state
    result = hlc_verify(state, block.receipts[0], header, bundle.merkle_proof, bundle.zk_proof, gas_table, backend)
    assert result.ok


def test_resubmitted_ctx_is_proven_in_each_block(backend, gas_table):
    """The same transaction submitted again lands in a later block with the
    same receipt hash; every receipt the monitor yields, the later copy too,
    is proven in its own block and passes the hybrid client."""
    from relaysim.lightclient import hlc_setup, hlc_verify

    chain = _chain(ns="twice")
    ctx = chain.make_tx(2, AssetPayload(token="T", amount=3))
    for _ in range(2):
        chain.submit_tx(chain.make_tx(2, MessagePayload(b"pad")))
        chain.submit_tx(ctx)
        chain.produce_block()
    prover = Prover("p", backend)
    leaves = prover.monitor(chain)
    copies = [(b.header.height, i) for b, i in leaves if b.receipts[i].payload == ctx.to_bytes()]
    assert copies == [(1, 1), (2, 1)]
    state = hlc_setup(1, chain.validator_set(0), 6, T23, gas_table).state
    for block, i in leaves:
        bundle = prover.ctx_bundle(chain, block, i)
        result = hlc_verify(
            state, block.receipts[i], block.header, bundle.merkle_proof, bundle.zk_proof, gas_table, backend
        )
        assert result.ok, (block.header.height, i, result.reason)


def test_zk_proof_cached_per_header(backend):
    chain = _chain(ns="cache")
    a = chain.make_tx(2, MessagePayload(b"a"))
    b = chain.make_tx(2, MessagePayload(b"b"))
    chain.submit_tx(a)
    chain.submit_tx(b)
    block, _ = chain.produce_block()
    prover = Prover("p", backend)
    bundle_a = prover.ctx_bundle(chain, block, 0)
    bundle_b = prover.ctx_bundle(chain, block, 1)
    assert bundle_a.zk_proof is bundle_b.zk_proof
    assert bundle_a.merkle_proof != bundle_b.merkle_proof


# ---------------------------------------------------------------------------
# statement predicate and refusals


def _true_statement(chain):
    header = chain.headers[chain.height]
    return statement_for_header(chain, header)


def test_prove_accepts_true_statement(backend, counting_backend):
    chain = _chain(ns="true")
    chain.submit_tx(chain.make_tx(2, MessagePayload(b"x")))
    chain.produce_block()
    stmt = _true_statement(chain)
    for b in (backend, counting_backend):
        proof = b.prove(stmt)
        assert b.verify(proof, stmt.publics)


def test_prove_refuses_commitment_mismatch(backend, counting_backend):
    chain = _chain(ns="cm")
    stmt = _true_statement(chain)
    bad = dc_replace(stmt, publics=dc_replace(stmt.publics, commitment=b"\x00" * 32))
    for b in (backend, counting_backend):
        with pytest.raises(UnsatisfiedStatement):
            b.prove(bad)


def test_prove_refuses_wrong_signature(backend, counting_backend):
    chain = _chain(ns="ws")
    stmt = _true_statement(chain)
    from relaysim.crypto.bn254 import G1_GEN, g1_mul

    bad = dc_replace(stmt, witness=dc_replace(stmt.witness, signature=g1_mul(G1_GEN, 12345)))
    for b in (backend, counting_backend):
        with pytest.raises(UnsatisfiedStatement):
            b.prove(bad)


def test_verify_rejects_each_perturbed_public_input(backend):
    chain = _chain(ns="pp")
    stmt = _true_statement(chain)
    proof = backend.prove(stmt)
    p = stmt.publics
    perturbed = [
        dc_replace(p, commitment=bytes(32)),
        dc_replace(p, t=(p.t[0] ^ 1, p.t[1])),
        dc_replace(p, header_digest=bytes(32)),
        dc_replace(p, new_commitment=bytes(32)),
        dc_replace(p, threshold=Fraction(1, 2)),
        dc_replace(p, claimed_weight=p.claimed_weight + 1),
    ]
    for variant in perturbed:
        assert not backend.verify(proof, variant)
    assert backend.verify(proof, p)


def test_forged_attestations_rejected(backend):
    """No false attestation: fuzzing the attestation bytes never verifies."""
    chain = _chain(ns="fuzz")
    stmt = _true_statement(chain)
    proof = backend.prove(stmt)
    rng = random.Random(1000)
    for _ in range(1000):
        forged = dc_replace(proof, attestation=rng.randbytes(32))
        assert not backend.verify(forged, stmt.publics)


def test_proof_binding_between_headers(backend):
    chain = _chain(ns="bind", epoch_size=10)
    chain.submit_tx(chain.make_tx(2, MessagePayload(b"1")))
    _, h1 = chain.produce_block()
    chain.submit_tx(chain.make_tx(2, MessagePayload(b"2")))
    _, h2 = chain.produce_block()
    s1 = statement_for_header(chain, h1)
    s2 = statement_for_header(chain, h2)
    proof1 = backend.prove(s1)
    assert backend.verify(proof1, s1.publics)
    assert not backend.verify(proof1, s2.publics)


def test_attestation_is_hmac_over_name_and_pi1():
    """Each backend attests HMAC-SHA256(key, name || "|" || PI1 bytes), and
    the PI1 encoding of a fixed statement is pinned."""
    publics = PublicInputs(
        commitment=b"\x01" * 32,
        t=(5, 7),
        header_digest=b"\x02" * 32,
        new_commitment=b"\x03" * 32,
        threshold=Fraction(2, 3),
        claimed_weight=3,
    )
    pi1 = publics.canonical_bytes()
    assert hashlib.sha256(pi1).hexdigest() == PI1_SHA256
    key = b"attestation-key"
    for backend in (TransparentBackend(key), CountingBackend(key)):
        expected = hmac.new(key, backend.name.encode() + b"|" + pi1, hashlib.sha256).digest()
        assert backend._attest(publics) == expected
    assert TransparentBackend(key)._attest(publics) != CountingBackend(key)._attest(publics)


@pytest.mark.parametrize("algo", SUPPORTED)
def test_check_statement_opens_commitments_under_witness_algorithm(algo, backend, counting_backend):
    """A chain commits under its own `hash_algo`; the witness carries that
    algorithm, and a witness naming any other one is refused."""
    chain = Chain(
        ChainConfig(
            chain_id=1, epoch_size=2, weights=(1, 1, 1), hash_algo=algo, key_namespace="algo"
        )
    )
    chain.produce_block()
    _, boundary = chain.produce_block()
    stmt = statement_for_header(chain, boundary)
    assert stmt.witness.hash_algo == algo
    assert stmt.publics.new_commitment == boundary.announced_commitment
    for b in (backend, counting_backend):
        assert b.check_statement(stmt)
        for other in SUPPORTED:
            if other != algo:
                wrong = dc_replace(stmt, witness=dc_replace(stmt.witness, hash_algo=other))
                assert not b.check_statement(wrong)


def test_check_statement_requires_new_set_iff_new_commitment(backend, counting_backend):
    """Both backends refuse a witness that opens an announced set the public
    inputs do not commit to, and one that omits a committed set."""
    chain = _chain(ns="newset", epoch_size=2)
    chain.produce_block()
    _, boundary = chain.produce_block()
    mid = statement_for_header(chain, chain.headers[1])
    edge = statement_for_header(chain, boundary)
    extra = dc_replace(mid, witness=dc_replace(mid.witness, new_set=chain.validator_set(1)))
    missing = dc_replace(edge, witness=dc_replace(edge.witness, new_set=None))
    for b in (backend, counting_backend):
        assert b.check_statement(mid) and b.check_statement(edge)
        assert not b.check_statement(extra)
        assert not b.check_statement(missing)


def test_prove_refuses_a_bitmap_longer_than_the_set(backend, counting_backend):
    """A trailing unset bit changes neither the weight nor the aggregate
    key, so only the length check refuses the bitmap."""
    chain = _chain(ns="bitlen")
    stmt = _true_statement(chain)
    longer = dc_replace(stmt, witness=dc_replace(stmt.witness, bitmap=stmt.witness.bitmap + (False,)))
    for b in (backend, counting_backend):
        assert b.prove(stmt)
        with pytest.raises(UnsatisfiedStatement):
            b.prove(longer)


def test_prove_refuses_a_new_set_that_does_not_open_the_announced_commitment(backend, counting_backend):
    """A boundary witness must open `new_commitment`: the signing set and
    signature stay honest, the announced set is another chain's."""
    chain = _chain(ns="open", epoch_size=2)
    chain.produce_block()
    _, boundary = chain.produce_block()
    stmt = statement_for_header(chain, boundary)
    other = _chain(ns="open-other", epoch_size=2).validator_set(1)
    wrong = dc_replace(stmt, witness=dc_replace(stmt.witness, new_set=other))
    for b in (backend, counting_backend):
        assert b.prove(stmt)
        with pytest.raises(UnsatisfiedStatement):
            b.prove(wrong)


# ---------------------------------------------------------------------------
# gate model


def test_split_gate_totals_match_anchor_points(gate_table):
    targets = {4: 0.9e6, 8: 15.7e6, 16: 25.2e6, 32: 49.3e6}
    for signers, target in targets.items():
        got = split_gates(gate_table, signers)
        assert abs(got - target) / target <= 0.05, f"{signers} signers: {got}"


def test_baseline_gate_total_at_8(gate_table):
    got = baseline_gates(gate_table, 8)
    assert abs(got - 2e7) / 2e7 <= 0.05


def test_split_never_exceeds_baseline(gate_table):
    for signers in (1, 2, 4, 8, 16, 32, 64):
        assert split_gates(gate_table, signers) <= baseline_gates(gate_table, signers)


def test_split_baseline_ratio_at_8(gate_table):
    ratio = split_gates(gate_table, 8) / baseline_gates(gate_table, 8)
    assert 0.75 <= ratio <= 0.80


def test_gate_report_itemization(gate_table):
    report = gate_report(gate_table, 8, "baseline")
    assert report.total == sum(count * unit for _, count, unit in report.items)
    labels = {label for label, _, _ in report.items}
    assert "pairing_check" in labels
    assert "b2g_field_mul" in labels
    assert "in_circuit_hash" in labels
    split = gate_report(gate_table, 8, "split")
    assert "in_circuit_hash" not in {label for label, _, _ in split.items}


def test_counting_backend_attaches_gate_report(counting_backend):
    chain = _chain(ns="gr")
    stmt = _true_statement(chain)
    proof = counting_backend.prove(stmt)
    assert proof.gate_report is not None
    assert proof.gate_report.signers == 3
    assert proof.gate_report.mode == "split"


# ---------------------------------------------------------------------------
# backend oracle equivalence


def test_backend_equivalence_500_statements(equivalence_suite):
    """Transparent and counting backends agree on every accept/reject verdict
    across valid and invalid statements."""
    assert equivalence_suite["checked"] >= 500
    assert equivalence_suite["disagreements"] == 0
    assert equivalence_suite["valid_accepted"] == equivalence_suite["checked"] // 2


def test_prove_many_leaves_an_unprovable_header_to_its_bundle(backend, counting_backend):
    """prove_many proves the good headers of its batch and skips a forged
    one, which `zk_proof_for` then refuses on its own."""
    from relaysim.crypto.bn254 import G1_GEN, g1_mul

    chain = _chain(ns="many")
    for i in range(2):
        chain.submit_tx(chain.make_tx(2, MessagePayload(bytes([i]))))
        chain.produce_block()
    good = [chain.headers[1], chain.headers[2]]
    forged = dc_replace(good[1], height=3, agg=dc_replace(good[1].agg, point=g1_mul(G1_GEN, 5)))
    for b in (backend, counting_backend):
        prover = Prover("p", b)
        prover.prove_many([(chain, h) for h in (*good, forged, good[0])])
        assert sorted(prover._zk_cache) == [(1, 1), (1, 2)]
        assert prover.zk_proof_for(chain, good[0]) is prover._zk_cache[(1, 1)]
        with pytest.raises(UnsatisfiedStatement):
            prover.zk_proof_for(chain, forged)
