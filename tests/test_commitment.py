"""Validator-set commitments: determinism, binding, canonical ordering, and
decoding each validator key once."""

import random
from collections import Counter

import pytest

from relaysim.chain import Chain, ChainConfig
from relaysim.crypto import bn254, commitment
from relaysim.crypto.commitment import ValidatorEntry, ValidatorSet, commitment_digest


def _pool(n=16):
    # commitments operate on serialized keys; synthetic key bytes keep this fast
    rng = random.Random(99)
    return [bytes([2]) + rng.randbytes(64) for _ in range(n)]


KEYS = _pool()


def _vset(indices_weights, epoch=0):
    return ValidatorSet.from_pairs(epoch, [(KEYS[i], w) for i, w in indices_weights])


def test_same_set_same_digest():
    a = _vset([(0, 10), (1, 20), (2, 30)])
    b = _vset([(0, 10), (1, 20), (2, 30)])
    assert commitment_digest(a) == commitment_digest(b)


def test_insertion_order_is_canonicalized():
    a = ValidatorSet.from_pairs(0, [(KEYS[0], 1), (KEYS[1], 2)])
    b = ValidatorSet.from_pairs(0, [(KEYS[1], 2), (KEYS[0], 1)])
    assert commitment_digest(a) == commitment_digest(b)


def test_weight_perturbations_change_digest():
    base = _vset([(i, 10 + i) for i in range(4)])
    digest = commitment_digest(base)
    rng = random.Random(7)
    for _ in range(100):
        idx = rng.randrange(4)
        entries = [(KEYS[i], 10 + i + (1 if i == idx else 0)) for i in range(4)]
        assert commitment_digest(ValidatorSet.from_pairs(0, entries)) != digest


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        ValidatorSet(epoch=0, entries=())


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError):
        ValidatorSet.from_pairs(0, [(KEYS[0], 1), (KEYS[0], 2)])


def test_negative_weight_rejected():
    with pytest.raises(ValueError):
        ValidatorSet.from_pairs(0, [(KEYS[0], -1)])


def test_binding_no_collisions_at_desk_scale():
    """10^4 random distinct sets, all distinct digests."""
    rng = random.Random(123)
    seen = {}
    for trial in range(10_000):
        size = rng.randint(1, 6)
        indices = rng.sample(range(len(KEYS)), size)
        pairs = tuple(sorted((KEYS[i], rng.randint(0, 1000)) for i in indices))
        digest = commitment_digest(ValidatorSet.from_pairs(0, list(pairs)))
        if digest in seen:
            assert seen[digest] == pairs, "collision between distinct sets"
        seen[digest] = pairs


def test_bitmap_weight():
    vs = _vset([(0, 5), (1, 7), (2, 11)])
    assert vs.total_weight == 23
    weights = [e.weight for e in vs.entries]
    got = vs.bitmap_weight([True, False, True])
    assert got == weights[0] + weights[2]
    with pytest.raises(ValueError):
        vs.bitmap_weight([True])


def test_commitment_algo_configurable():
    vs = _vset([(0, 1), (1, 2)])
    assert commitment_digest(vs, "sha256") != commitment_digest(vs, "sha3_256")
    assert commitment_digest(vs, "blake2b_256") not in (
        commitment_digest(vs, "sha256"),
        commitment_digest(vs, "sha3_256"),
    )


def _count_decodes(monkeypatch) -> Counter:
    decoded = Counter()
    real = commitment.g2_from_bytes

    def counted(data):
        decoded[data] += 1
        return real(data)

    monkeypatch.setattr(commitment, "g2_from_bytes", counted)
    return decoded


def test_pubkeys_decode_each_key_once_across_identity_rotation(monkeypatch):
    chain = Chain(ChainConfig(chain_id=1, epoch_size=2, weights=(1, 2, 3)))
    decoded = _count_decodes(monkeypatch)
    s0, s1 = chain.validator_set(0), chain.validator_set(1)
    assert s1.epoch == 1
    first = s0.pubkeys()
    assert s0.pubkeys() == first
    assert s1.pubkeys() == first
    assert decoded == Counter({e.pubkey_bytes: 1 for e in s0.entries})
    assert first == tuple(bn254.g2_from_bytes(e.pubkey_bytes) for e in s0.entries)


def test_bad_key_encoding_raises_on_every_access(monkeypatch):
    decoded = _count_decodes(monkeypatch)
    entry = ValidatorEntry(pubkey_bytes=b"\x02" + b"\xff" * 64, weight=1)
    for _ in range(2):
        with pytest.raises(ValueError):
            entry.pubkey
    assert sum(decoded.values()) == 2


def test_pubkeys_decode_each_key_once_across_reweight_rotation(monkeypatch):
    chain = Chain(ChainConfig(chain_id=1, epoch_size=2, weights=(1, 2, 3, 4), rotation="reweight"))
    decoded = _count_decodes(monkeypatch)
    sets = [chain.validator_set(epoch) for epoch in range(4)]
    assert len({tuple(e.weight for e in s.entries) for s in sets}) > 1  # the weights moved
    points = [s.pubkeys() for s in sets]
    assert decoded == Counter({e.pubkey_bytes: 1 for e in sets[0].entries})
    assert all(p == points[0] for p in points)
    assert points[0] == tuple(bn254.g2_from_bytes(e.pubkey_bytes) for e in sets[0].entries)
