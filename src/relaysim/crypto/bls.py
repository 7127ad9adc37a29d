"""BLS signatures over BN254: signatures in G1, public keys in G2.

Keys are derived deterministically from seeds so simulation runs are
reproducible. Verification goes through an LRU cache keyed on the points
themselves, their affine coordinates; the boolean outcome is a pure
function of them, so caching repeated checks of the same header is sound.
Points are checked on their curves before they reach the cache, so no
pairing is ever computed on an off-curve point.

A block is signed once, with the summed secret of its available signers.
Every signature on one message is a multiple of the same point H(m), which
lies in G1, a group of prime order R; so the sum of the signers' signatures
sk_i*H(m) equals (sum of sk_i mod R)*H(m), the very point `aggregate` would
return, for one hash-to-curve and one scalar multiplication.

Aggregation adds public keys with no proof of possession, so a rogue key
(one chosen as a function of the others' keys) could forge an aggregate.
That is safe here only because every validator key comes from the
configuration, never from a participant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

from . import bn254
from .bn254 import G1Point, G2Point
from .hash_to_curve import expand_message_xmd, hash_to_curve

DST_KEYGEN = b"RELAYSIM-BN254-KEYGEN_"


@dataclass(frozen=True)
class KeyPair:
    secret: int
    public: G2Point

    @property
    def public_bytes(self) -> bytes:
        return bn254.g2_to_bytes(self.public)


def keygen_many(seeds: Sequence[bytes | str]) -> List[KeyPair]:
    """keygen for each seed, with the public keys made in one batch."""
    secrets = []
    for seed in seeds:
        if isinstance(seed, str):
            seed = seed.encode()
        if not seed:
            raise ValueError("keygen seed must be nonempty")
        material = expand_message_xmd(seed, DST_KEYGEN, 48)
        secrets.append(int.from_bytes(material, "big") % (bn254.R - 1) + 1)
    return [KeyPair(sk, pk) for sk, pk in zip(secrets, bn254.g2_base_mul_many(secrets))]


def keygen(seed: bytes | str) -> KeyPair:
    """Derive a keypair from a nonempty seed; same seed, same pair."""
    return keygen_many((seed,))[0]


def sign(secret: int, message: bytes) -> G1Point:
    if not message:
        raise ValueError("cannot sign an empty message")
    return bn254.g1_mul(hash_to_curve(message), secret)


def sign_aggregate(secrets: Sequence[int], message: bytes) -> G1Point:
    """The aggregate of every secret's signature on `message`, signed once."""
    if not secrets:
        raise ValueError("cannot aggregate zero signatures")
    return sign(sum(secrets) % bn254.R, message)


def aggregate(signatures: Sequence[G1Point]) -> G1Point:
    if not signatures:
        raise ValueError("cannot aggregate zero signatures")
    acc: G1Point = None
    for sig in signatures:
        acc = bn254.g1_add(acc, sig)
    return acc


def aggregate_pubkeys(pubkeys: Sequence[G2Point], bitmap: Sequence[bool]) -> G2Point:
    """Sum the public keys selected by the bitmap, by pairwise halving."""
    if len(pubkeys) != len(bitmap):
        raise ValueError(f"bitmap length {len(bitmap)} != validator count {len(pubkeys)}")
    return bn254.g2_sum([pk for pk, included in zip(pubkeys, bitmap) if included])


@lru_cache(maxsize=16384)
def _pairing_equal_cached(sig: G1Point, point: G1Point, apk: G2Point) -> bool:
    return bn254.pairing(sig, bn254.G2_GEN) == bn254.pairing(point, apk)


@lru_cache(maxsize=16384)
def _pairing_product_cached(sig: G1Point, point: G1Point, apk: G2Point) -> bool:
    return bn254.pairing_check([(bn254.g1_neg(sig), bn254.G2_GEN), (point, apk)])


def _points_valid(apk: G2Point, message_point: G1Point, signature: G1Point) -> bool:
    # the on-curve checks accept the identity, so None is refused first
    if apk is None or signature is None or message_point is None:
        return False
    g1_ok = bn254.g1_is_on_curve(signature) and bn254.g1_is_on_curve(message_point)
    return g1_ok and bn254.g2_is_on_curve(apk)


def verify_at_point(apk: G2Point, message_point: G1Point, signature: G1Point) -> bool:
    """Check e(sig, g2) == e(point, apk) with a precomputed message point."""
    if not _points_valid(apk, message_point, signature):
        return False
    return _pairing_equal_cached(signature, message_point, apk)


def verify_product(apk: G2Point, message_point: G1Point, signature: G1Point) -> bool:
    """Same predicate as verify_at_point via the product-of-pairings route."""
    if not _points_valid(apk, message_point, signature):
        return False
    return _pairing_product_cached(signature, message_point, apk)


def verify_aggregate(apk: G2Point, message: bytes, signature: G1Point) -> bool:
    """Check an aggregate (or single) signature against an aggregate pubkey."""
    if apk is None or signature is None:
        return False
    return verify_at_point(apk, hash_to_curve(message), signature)
