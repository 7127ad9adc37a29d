import random
from dataclasses import replace as dc_replace
from fractions import Fraction

import pytest

from relaysim.chain import Chain, ChainConfig
from relaysim.costs import GasCostTable, GateCostTable
from relaysim.crypto import bls, bn254
from relaysim.crypto.commitment import ValidatorSet, commitment_digest
from relaysim.crypto.hash_to_curve import hash_to_base
from relaysim.prover import (
    CountingBackend,
    PublicInputs,
    TransparentBackend,
    UnsatisfiedStatement,
    Witness,
    ZkStatement,
)


@pytest.fixture(scope="session")
def gas_table():
    return GasCostTable()


@pytest.fixture(scope="session")
def gate_table():
    return GateCostTable()


@pytest.fixture(scope="session")
def backend():
    return TransparentBackend(key=b"test-backend-key-0123456789abcd")


@pytest.fixture(scope="session")
def counting_backend():
    return CountingBackend(key=b"test-counting-key-0123456789abc")


@pytest.fixture(scope="session")
def keypairs():
    """A reusable pool of keypairs (keygen is the expensive step)."""
    return [bls.keygen(f"pool/{i}") for i in range(8)]


@pytest.fixture(scope="session")
def stray_twist_point():
    """A point on the sextic twist outside the order-R subgroup G2."""
    for k in range(1, 100):
        x = (k, 1)
        y = bn254.fp2_sqrt(bn254.fp2_add(bn254.fp2_mul(bn254.fp2_sqr(x), x), bn254.B2))
        if y is not None:
            return (x, y)
    raise AssertionError("no twist point found")


@pytest.fixture()
def small_chain():
    return Chain(ChainConfig(chain_id=1, epoch_size=4, weights=(1, 1, 1, 1), key_namespace="t"))


def _statement_family(rng, keypool):
    """One quorum-signed payload plus fixed invalid mutations of it."""
    n = rng.randint(2, 5)
    members = rng.sample(keypool, n)
    vset = ValidatorSet.from_pairs(0, [(kp.public_bytes, rng.randint(1, 5)) for kp in members])
    secrets = {kp.public_bytes: kp.secret for kp in members}
    payload = rng.randbytes(24)
    bitmap = [True] * n
    if n > 2 and rng.random() < 0.5:
        drop = rng.randrange(n)
        bitmap[drop] = False
        if vset.bitmap_weight(bitmap) * 3 < 2 * vset.total_weight:
            bitmap[drop] = True
    sigs = [
        bls.sign(secrets[e.pubkey_bytes], payload)
        for e, b in zip(vset.entries, bitmap)
        if b
    ]
    t = hash_to_base(payload)
    publics = PublicInputs(
        commitment=commitment_digest(vset),
        t=(t.t0, t.t1),
        header_digest=rng.randbytes(32),
        new_commitment=None,
        threshold=Fraction(2, 3),
        claimed_weight=vset.bitmap_weight(bitmap),
    )
    witness = Witness(validator_set=vset, bitmap=tuple(bitmap), signature=bls.aggregate(sigs))
    valid = ZkStatement(publics=publics, witness=witness)

    from relaysim.crypto.bn254 import G1_GEN, g1_mul

    invalid = [
        dc_replace(valid, publics=dc_replace(publics, commitment=rng.randbytes(32))),
        dc_replace(valid, publics=dc_replace(publics, claimed_weight=publics.claimed_weight + 1)),
        dc_replace(valid, witness=dc_replace(witness, signature=g1_mul(G1_GEN, rng.randrange(2, 999)))),
        dc_replace(valid, publics=dc_replace(publics, t=((t.t0 + 1) % 2**250, t.t1))),
    ]
    return valid, invalid


@pytest.fixture(scope="session")
def bitmap_exhaustive(keypairs):
    """Aggregate completeness/soundness over all 2^5 bitmaps at n=5.
    Returns a list of failure descriptions (expected empty)."""
    import itertools

    msg = b"exhaustive bitmap payload"
    kps = keypairs[:5]
    sigs = [bls.sign(kp.secret, msg) for kp in kps]
    pubs = [kp.public for kp in kps]
    failures = []
    checked = 0
    for bits in itertools.product([False, True], repeat=5):
        signers = [i for i in range(5) if bits[i]]
        apk = bls.aggregate_pubkeys(pubs, bits)
        if not signers:
            if apk is not None:
                failures.append(f"{bits}: empty quorum produced a key")
            continue
        agg = bls.aggregate([sigs[i] for i in signers])
        checked += 1
        if not bls.verify_aggregate(apk, msg, agg):
            failures.append(f"{bits}: complete aggregate rejected")
        if len(signers) > 1:
            dropped = bls.aggregate([sigs[i] for i in signers[1:]])
            if bls.verify_aggregate(apk, msg, dropped):
                failures.append(f"{bits}: aggregate missing a signer accepted")
        extra = next((i for i in range(5) if not bits[i]), None)
        if extra is not None:
            padded = bls.aggregate([sigs[i] for i in signers] + [sigs[extra]])
            if bls.verify_aggregate(apk, msg, padded):
                failures.append(f"{bits}: aggregate with extra signer accepted")
    return {"failures": failures, "bitmaps": 32, "verified": checked}


@pytest.fixture(scope="session")
def equivalence_suite(backend, counting_backend, keypairs):
    """Both proof backends judge >= 500 randomized valid/invalid statements;
    returns the tally. Session-scoped: the result feeds the unit test and the
    acceptance criterion."""
    rng = random.Random(6060)
    families = [_statement_family(rng, keypairs) for _ in range(30)]
    checked = 0
    disagreements = 0
    valid_accepted = 0
    while checked < 500:
        valid, invalid = families[checked % len(families)]
        if checked % 2 == 0:
            stmt = dc_replace(
                valid, publics=dc_replace(valid.publics, header_digest=rng.randbytes(32))
            )
        else:
            stmt = rng.choice(invalid)
        verdicts = []
        for b in (backend, counting_backend):
            try:
                proof = b.prove(stmt)
                verdicts.append(b.verify(proof, stmt.publics))
            except UnsatisfiedStatement:
                verdicts.append(False)
        if verdicts[0] != verdicts[1]:
            disagreements += 1
        if checked % 2 == 0 and verdicts[0]:
            valid_accepted += 1
        checked += 1
    return {"checked": checked, "disagreements": disagreements, "valid_accepted": valid_accepted}
