"""Signature-scheme correctness: keys made one at a time and in a batch,
single and aggregate verification, public-key aggregation against a
sequential fold, signing once for a set of signers, the exhaustive
small-set completeness/soundness sweep, and the point-keyed verify
caches."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from relaysim.crypto import bls, bn254
from relaysim.crypto.bn254 import (
    FP12_ONE,
    G1_GEN,
    G2_GEN,
    P,
    R,
    fp12_pow,
    g1_from_bytes,
    g1_mul,
    g1_neg,
    g1_to_bytes,
    g2_add,
    g2_from_bytes,
    g2_mul,
    g2_neg,
    g2_to_bytes,
    pairing,
)
from relaysim.crypto.hash_to_curve import hash_to_curve

MSG = b"quorum signing payload"


def test_keygen_deterministic():
    assert bls.keygen("v0").public == bls.keygen("v0").public
    assert bls.keygen("v0").secret == bls.keygen("v0").secret


def test_keygen_distinct_seeds_distinct_keys():
    seen = {bls.keygen(f"seed-{i}").public_bytes for i in range(1000)}
    assert len(seen) == 1000


def test_keygen_public_matches_secret():
    kp = bls.keygen("definition-check")
    assert kp.public == g2_mul(G2_GEN, kp.secret)


def test_keygen_rejects_empty_seed():
    with pytest.raises(ValueError):
        bls.keygen("")


def test_keygen_many_equals_keygen_per_seed():
    seeds = ["v0", b"v1", "pool/3", "v0", "x" * 100]
    assert bls.keygen_many(seeds) == [bls.keygen(s) for s in seeds]
    assert bls.keygen_many([]) == []
    with pytest.raises(ValueError):
        bls.keygen_many(["v0", ""])


def test_sign_rejects_empty_message():
    kp = bls.keygen("signer")
    with pytest.raises(ValueError):
        bls.sign(kp.secret, b"")


def test_sign_verify_roundtrip(keypairs):
    kp = keypairs[0]
    sig = bls.sign(kp.secret, MSG)
    assert bls.verify_aggregate(kp.public, MSG, sig)


def test_verify_rejects_wrong_pubkey(keypairs):
    sig = bls.sign(keypairs[0].secret, MSG)
    assert not bls.verify_aggregate(keypairs[1].public, MSG, sig)


def test_verify_rejects_bit_flipped_messages(keypairs):
    # derived check: every single-bit perturbation of the message must fail
    kp = keypairs[0]
    sig = bls.sign(kp.secret, MSG)
    rng = random.Random(42)
    rejected = 0
    for _ in range(100):
        i = rng.randrange(len(MSG))
        bit = 1 << rng.randrange(8)
        tampered = MSG[:i] + bytes([MSG[i] ^ bit]) + MSG[i + 1 :]
        if not bls.verify_aggregate(kp.public, tampered, sig):
            rejected += 1
    assert rejected == 100


def test_aggregate_single_signature_is_identity(keypairs):
    sig = bls.sign(keypairs[0].secret, MSG)
    assert bls.aggregate([sig]) == sig


def test_aggregate_of_four_verifies(keypairs):
    kps = keypairs[:4]
    sigs = [bls.sign(kp.secret, MSG) for kp in kps]
    agg = bls.aggregate(sigs)
    apk = bls.aggregate_pubkeys([kp.public for kp in kps], [True] * 4)
    assert bls.verify_aggregate(apk, MSG, agg)


def test_aggregate_with_foreign_message_rejected(keypairs):
    # three good signatures plus one over a different message
    kps = keypairs[:4]
    sigs = [bls.sign(kp.secret, MSG) for kp in kps[:3]]
    sigs.append(bls.sign(kps[3].secret, b"a different payload"))
    agg = bls.aggregate(sigs)
    apk = bls.aggregate_pubkeys([kp.public for kp in kps], [True] * 4)
    assert not bls.verify_aggregate(apk, MSG, agg)


def test_aggregate_empty_inputs_rejected():
    with pytest.raises(ValueError):
        bls.aggregate([])


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(1, R - 1), min_size=1, max_size=5), st.binary(min_size=1, max_size=40))
def test_sign_aggregate_equals_aggregate_of_signatures(secrets, message):
    assert bls.sign_aggregate(secrets, message) == bls.aggregate(
        [bls.sign(sk, message) for sk in secrets]
    )


@settings(max_examples=5, deadline=None)
@given(st.integers(1, R - 1))
def test_sign_aggregate_of_cancelling_secrets_is_identity(k):
    assert bls.aggregate([bls.sign(k, MSG), bls.sign(R - k, MSG)]) is None
    assert bls.sign_aggregate([k, R - k], MSG) is None


def test_sign_aggregate_rejects_empty_inputs():
    with pytest.raises(ValueError):
        bls.sign_aggregate([], MSG)
    with pytest.raises(ValueError):
        bls.sign_aggregate([1], b"")


def test_bitmap_length_mismatch_rejected(keypairs):
    with pytest.raises(ValueError):
        bls.aggregate_pubkeys([kp.public for kp in keypairs[:3]], [True, True])


def test_zero_bitmap_apk_rejected(keypairs):
    sig = bls.sign(keypairs[0].secret, MSG)
    apk = bls.aggregate_pubkeys([kp.public for kp in keypairs[:3]], [False] * 3)
    assert apk is None
    assert not bls.verify_aggregate(apk, MSG, sig)


def _fold_pubkeys(pubkeys, bitmap):
    # reference: one affine addition per selected key, in bitmap order
    acc = None
    for pk, included in zip(pubkeys, bitmap):
        if included:
            acc = g2_add(acc, pk)
    return acc


# keys made by the affine ladder g2_mul, apart from the batched code under test
KEY_POOL = [g2_mul(G2_GEN, 0x5EED + 7919 * i) for i in range(8)]
KEY_POOL += [g2_neg(pk) for pk in KEY_POOL]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 15), st.booleans()), max_size=24))
def test_aggregate_pubkeys_matches_sequential_fold(picks):
    # 8 keys and their negations, picked with repeats
    pubkeys = [KEY_POOL[i] for i, _ in picks]
    bitmap = [included for _, included in picks]
    assert bls.aggregate_pubkeys(pubkeys, bitmap) == _fold_pubkeys(pubkeys, bitmap)


def test_aggregate_pubkeys_identity_and_doubling_mid_sum():
    a, b = KEY_POOL[0], KEY_POOL[1]
    cases = [
        [a, g2_neg(a), b],  # a key beside its negation: the identity, then b
        [a, a],  # a repeated key: a doubling
        [a, b, a, b],  # (a + b) doubled in the second round
        [a, b, g2_neg(b), g2_neg(a)],  # the whole sum is the identity
    ]
    for pubkeys in cases:
        bitmap = [True] * len(pubkeys)
        assert bls.aggregate_pubkeys(pubkeys, bitmap) == _fold_pubkeys(pubkeys, bitmap)
    assert bls.aggregate_pubkeys([a, b], [True, True]) == g2_add(a, b)
    assert bls.aggregate_pubkeys([a, a], [True, True]) == g2_mul(a, 2)
    assert bls.aggregate_pubkeys([a, g2_neg(a)], [True, True]) is None


def test_exhaustive_bitmaps_n5(bitmap_exhaustive):
    """Completeness and soundness over all 2^5 bitmaps: the aggregate of
    exactly the bit-set signers verifies; dropping or adding a signer breaks
    it."""
    assert bitmap_exhaustive["bitmaps"] == 32
    assert bitmap_exhaustive["verified"] == 31
    assert bitmap_exhaustive["failures"] == []


def test_product_route_agrees_with_two_sided(keypairs):
    kp = keypairs[0]
    sig = bls.sign(kp.secret, MSG)
    from relaysim.crypto.hash_to_curve import hash_to_curve

    point = hash_to_curve(MSG)
    assert bls.verify_at_point(kp.public, point, sig)
    assert bls.verify_product(kp.public, point, sig)
    bad = g1_mul(sig, 2)
    assert not bls.verify_at_point(kp.public, point, bad)
    assert not bls.verify_product(kp.public, point, bad)


def test_pairing_bilinearity():
    e = pairing(G1_GEN, G2_GEN)
    assert e != FP12_ONE
    a, b = 94823, 77121
    assert pairing(g1_mul(G1_GEN, a), g2_mul(G2_GEN, b)) == fp12_pow(e, a * b)


scalars = st.integers(0, R - 1)


@settings(max_examples=25, deadline=None)
@given(scalars, scalars)
def test_point_serialization_roundtrip(k1, k2):
    p, q = g1_mul(G1_GEN, k1), g2_mul(G2_GEN, k2)  # k = 0 gives the identity
    assert g1_from_bytes(g1_to_bytes(p)) == p
    assert g2_from_bytes(g2_to_bytes(q)) == q
    assert len(g1_to_bytes(p)) == bn254.G1_ENC_LEN
    assert len(g2_to_bytes(q)) == bn254.G2_ENC_LEN


def _first_x(pred) -> int:
    return next(x for x in range(1, 100) if pred(x))


# x-coordinates with no point above them on G1 and on the twist
G1_BAD_X = _first_x(lambda x: pow((x**3 + bn254.B1) % P, (P - 1) // 2, P) != 1)
G2_BAD_X = _first_x(
    lambda x: bn254.fp2_sqrt(bn254.fp2_add(bn254.fp2_mul(bn254.fp2_sqr((x, 0)), (x, 0)), bn254.B2)) is None
)
bad_tags = st.integers(0, 255).filter(lambda t: t not in (0x00, 0x02, 0x03))


@settings(max_examples=25, deadline=None)
@given(scalars.filter(bool), bad_tags, st.integers(1, 64), st.integers(1, 255))
def test_point_deserialization_rejects_garbage(k, tag, at, junk):
    p_raw = g1_to_bytes(g1_mul(G1_GEN, k))
    q_raw = g2_to_bytes(g2_mul(G2_GEN, k))
    x_p = int.from_bytes(p_raw[1:], "big")
    x_q0 = int.from_bytes(q_raw[1:33], "big")
    g1_bad = [
        b"\x02" + b"\xff" * 32,
        p_raw[:1] + (x_p + P).to_bytes(32, "big"),  # x >= P
        bytes([tag]) + p_raw[1:],
        bytes(min(at, 32)) + bytes([junk]) + bytes(32 - min(at, 32)),  # identity padding
        b"\x02" + G1_BAD_X.to_bytes(32, "big"),
        p_raw[:-1],
        p_raw + b"\x00",
    ]
    g2_bad = [
        b"\x02" + b"\xff" * 64,
        q_raw[:1] + (x_q0 + P).to_bytes(32, "big") + q_raw[33:],  # x.c0 >= P
        q_raw[:33] + P.to_bytes(32, "big"),  # x.c1 >= P
        bytes([tag]) + q_raw[1:],
        bytes(at) + bytes([junk]) + bytes(64 - at),  # identity padding
        b"\x03" + G2_BAD_X.to_bytes(32, "big") + bytes(32),
        q_raw[:-1],
        q_raw + b"\x00",
    ]
    for bad in g1_bad:
        with pytest.raises(ValueError):
            g1_from_bytes(bad)
    for bad in g2_bad:
        with pytest.raises(ValueError):
            g2_from_bytes(bad)


def test_off_curve_points_rejected_on_both_routes(keypairs):
    # each bad point encodes like a valid one (same x, same sign bit) or is
    # not reduced, so only a point check before encoding can refuse it
    from relaysim.crypto.hash_to_curve import hash_to_curve

    kp = keypairs[0]
    sig = bls.sign(kp.secret, MSG)
    point = hash_to_curve(MSG)
    (x0, x1), (y0, y1) = kp.public
    cases = [
        (kp.public, point, (sig[0], (sig[1] + 2) % P)),
        (kp.public, point, (sig[0] + P, sig[1])),
        (kp.public, (point[0], (point[1] + 2) % P), sig),
        (((x0, x1), ((y0 + 2) % P, y1)), point, sig),
        (((x0 + P, x1), (y0, y1)), point, sig),
    ]
    for verify in (bls.verify_at_point, bls.verify_product):
        assert verify(kp.public, point, sig)
        for apk, msg_point, signature in cases:
            assert not verify(apk, msg_point, signature)
    assert not bls.verify_aggregate(kp.public, MSG, cases[0][2])


def test_verify_decodes_no_point(keypairs, monkeypatch):
    # the verify caches are keyed on the validated points, so a cache miss
    # computes its pairings without decoding anything
    decodes = []
    for name in ("g1_from_bytes", "g2_from_bytes"):

        def decode(data, _fn=getattr(bn254, name)):
            decodes.append(data)
            return _fn(data)

        monkeypatch.setattr(bn254, name, decode)
    bls._pairing_equal_cached.cache_clear()
    bls._pairing_product_cached.cache_clear()
    kp = keypairs[0]
    sig = bls.sign(kp.secret, MSG)
    assert bls.verify_at_point(kp.public, hash_to_curve(MSG), sig)
    assert bls.verify_product(kp.public, hash_to_curve(MSG), sig)
    assert bls.verify_aggregate(kp.public, MSG, sig)
    assert bls._pairing_equal_cached.cache_info().misses == 1
    assert bls._pairing_product_cached.cache_info().misses == 1
    assert decodes == []


def test_verify_cache_tells_a_point_from_its_negation(keypairs):
    # a point and its negation share x (and differ only in y), so each needs
    # an entry of its own; the valid triple's entry is filled first
    kp = keypairs[0]
    point = hash_to_curve(MSG)
    sig = bls.sign(kp.secret, MSG)
    for verify in (bls.verify_at_point, bls.verify_product):
        assert verify(kp.public, point, sig)
        assert not verify(kp.public, point, g1_neg(sig))
        assert not verify(kp.public, g1_neg(point), sig)
        assert not verify(g2_neg(kp.public), point, sig)


# ---------------------------------------------------------------------------
# batch verification

ROUTES = (
    (bls.verify_batch_at_point, bls.verify_at_point),
    (bls.verify_batch_product, bls.verify_product),
)


def _clear_verify_memos():
    bls._pairing_equal_cached.cache_clear()
    bls._pairing_product_cached.cache_clear()


@pytest.fixture(scope="session")
def honest_triples(keypairs):
    """(apk, message point, signature) of four keys on four messages."""
    out = []
    for i, kp in enumerate(keypairs[:4]):
        msg = b"batch member %d" % i
        out.append((kp.public, hash_to_curve(msg), bls.sign(kp.secret, msg)))
    return out


TAMPERS = ("none", "sig", "point", "swap-apk", "identity", "off-curve", "stray-apk")


def _tampered_batch(honest, stray, members):
    """The batch `members` asks for: per member an honest triple and a
    tamper; "swap-apk" trades apks with the next member of the batch."""
    batch = [list(honest[j]) for j, _ in members]
    for i, (j, tamper) in enumerate(members):
        if tamper == "sig":
            batch[i][2] = bn254.g1_add(batch[i][2], G1_GEN)
        elif tamper == "point":
            batch[i][1] = honest[(j + 1) % len(honest)][1]
        elif tamper == "swap-apk":
            k = (i + 1) % len(batch)
            batch[i][0], batch[k][0] = batch[k][0], batch[i][0]
        elif tamper == "identity":
            batch[i][j % 3] = None
        elif tamper == "off-curve":
            batch[i][j % 3] = ((1, 1), (1, 1)) if j % 3 == 0 else (1, 1)
        elif tamper == "stray-apk":
            batch[i][0] = stray
    return [tuple(t) for t in batch]


@settings(max_examples=12, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.sampled_from(TAMPERS)), min_size=1, max_size=5))
def test_batch_verdicts_equal_the_verdicts_alone(honest_triples, stray_twist_point, members):
    """On both routes, a batch of 1-5 checks, honest or tampered, gives
    each member the verdict it gets alone from an empty memo, which is True
    exactly for the honest triples; and the two routes agree."""
    batch = _tampered_batch(honest_triples, stray_twist_point, members)
    expected = [t in honest_triples for t in batch]
    together = []
    for verify_batch, verify in ROUTES:
        _clear_verify_memos()
        together.append(verify_batch(batch))
        _clear_verify_memos()
        assert together[-1] == [verify(*t) for t in batch] == expected
    assert together[0] == together[1]


def _count_pairing_work(monkeypatch):
    """Counters of the (q, p) pairs the Miller loop runs over, the final
    exponentiations and the G1 scalar multiplications."""
    counts = {"miller_pairs": 0, "final_exponentiation": 0, "g1_mul": 0}

    def miller_loop(pairs, _fn=bn254.miller_loop):
        counts["miller_pairs"] += len(pairs)
        return _fn(pairs)

    def counted(name):
        def call(*args, _fn=getattr(bn254, name)):
            counts[name] += 1
            return _fn(*args)

        return call

    monkeypatch.setattr(bn254, "miller_loop", miller_loop)
    monkeypatch.setattr(bn254, "final_exponentiation", counted("final_exponentiation"))
    monkeypatch.setattr(bn254, "g1_mul", counted("g1_mul"))
    return counts


def test_a_check_alone_is_the_single_equation(honest_triples, monkeypatch):
    """A check alone takes no coefficient: 2 Miller pairs and 0 g1_mul on
    either route, with 2 final exponentiations on the two-sided one and 1 on
    the product one. A batch of 4 takes 5 Miller pairs, 6 g1_mul (r_1 = 1)
    and the same final exponentiations; its members then hit the memo."""
    counts = _count_pairing_work(monkeypatch)
    for (verify_batch, verify), fe in zip(ROUTES, (2, 1)):
        _clear_verify_memos()
        assert verify(*honest_triples[0])
        assert counts == {"miller_pairs": 2, "final_exponentiation": fe, "g1_mul": 0}
        counts.update(dict.fromkeys(counts, 0))
        _clear_verify_memos()
        assert verify_batch(honest_triples) == [True] * 4
        assert counts == {"miller_pairs": 5, "final_exponentiation": fe, "g1_mul": 6}
        counts.update(dict.fromkeys(counts, 0))
        assert all(verify(*t) for t in honest_triples)
        assert counts == dict.fromkeys(counts, 0)


def test_members_under_one_key_share_its_miller_pair(keypairs, monkeypatch):
    """Four members under two keys take one Miller pair per key plus the
    signature's: 3, with the same 6 g1_mul and final exponentiations as
    four keys. Two signatures swapped under one key fail the batch, and
    each member then gets the verdict it gets alone."""
    triples = []
    for i, kp in enumerate(keypairs[:2] * 2):
        msg = b"one key, member %d" % i
        triples.append((kp.public, hash_to_curve(msg), bls.sign(kp.secret, msg)))
    (apk0, h0, s0), second, (apk2, h2, s2), fourth = triples
    swapped = [(apk0, h0, s2), second, (apk2, h2, s0), fourth]
    assert apk0 == apk2
    counts = _count_pairing_work(monkeypatch)
    for (verify_batch, verify), fe in zip(ROUTES, (2, 1)):
        _clear_verify_memos()
        assert verify_batch(triples) == [True] * 4
        assert counts == {"miller_pairs": 3, "final_exponentiation": fe, "g1_mul": 6}
        _clear_verify_memos()
        assert verify_batch(swapped) == [False, True, False, True]
        _clear_verify_memos()
        assert [verify(*t) for t in swapped] == [False, True, False, True]
        counts.update(dict.fromkeys(counts, 0))


def test_failed_batch_is_decided_member_by_member(honest_triples, monkeypatch):
    """One forged member fails the batch; each member is then decided
    alone, so the honest ones still pass and every verdict is memoised."""
    forged = (honest_triples[1][0], honest_triples[1][1], honest_triples[0][2])
    batch = [honest_triples[0], forged, honest_triples[2]]
    counts = _count_pairing_work(monkeypatch)
    _clear_verify_memos()
    assert bls.verify_batch_at_point(batch) == [True, False, True]
    assert counts["final_exponentiation"] == 2 + 3 * 2
    info = bls._pairing_equal_cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 3, 3)
    assert bls.verify_batch_at_point(batch[::-1]) == [True, False, True]
    assert bls._pairing_equal_cached.cache_info().hits == 3


def test_a_route_drops_its_least_recently_used_verdict_past_maxsize():
    """Past `maxsize` the verdict read longest ago is dropped; a later
    read of it is decided again, with the same verdict. The route's memo
    is keyed on whatever it is given, so plain tuples stand in for points."""
    calls = []

    def decide(batch):
        calls.append(list(batch))
        return all(ok for ok, _ in batch)

    route = bls._Route(decide)
    route.maxsize = 2
    a, b, c = (True, "a"), (False, "b"), (True, "c")
    assert route([a]) + route([b]) + route([a]) == [True, False, True]  # the second `a` is a hit
    assert route([c]) == [True]  # drops `b`, the least recently used
    info = route.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (1, 3, 2, 2)
    del calls[:]
    assert route([b]) == [False] and calls == [[b]]  # decided again; drops `a`
    assert route([c]) == [True] and route([a]) == [True] and calls == [[b], [a]]
    assert bls._Route.maxsize == 16384  # the instance's bound is its own


def test_forgeries_that_cancel_in_a_plain_sum_fail_the_batch(honest_triples):
    """sig_0 + D and sig_1 - D sum to the honest sum, so a batch with every
    coefficient 1 would pass them; the hashed coefficients do not."""
    (a0, h0, s0), (a1, h1, s1) = honest_triples[:2]
    batch = [(a0, h0, bn254.g1_add(s0, G1_GEN)), (a1, h1, bn254.g1_add(s1, g1_neg(G1_GEN))), honest_triples[2]]
    for verify_batch, _ in ROUTES:
        _clear_verify_memos()
        assert verify_batch(batch) == [False, False, True]
