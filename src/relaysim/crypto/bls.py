"""BLS signatures over BN254: signatures in G1, public keys in G2.

Keys are derived deterministically from seeds so simulation runs are
reproducible. Verification goes through a memo of verdicts keyed on the
points themselves, their affine coordinates; the boolean outcome is a pure
function of them, so caching repeated checks of the same header is sound.
Points are checked on their curves before they reach the memo, so no
pairing is ever computed on an off-curve point.

The checks the memo has not decided are decided together, by small-exponent
batch verification (Bellare, Garay and Rabin, EUROCRYPT 1998; Camenisch,
Hohenberger and Pedersen, EUROCRYPT 2007): k signatures cost one shared
Miller loop and two final exponentiations on the two-sided route, one on the
product route. Members under one aggregate key share one Miller pair,
e(sum r_i H_i, apk) by bilinearity, so the loop runs over one pair per
distinct key and one for the signatures. A passed batch fills each member's
verdict; a failed one is decided member by member, so every verdict is the
one a check alone gives. A check alone is the batch of one: e(sig, g2) ==
e(H, apk), or its product form, with no coefficient.

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

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import List, Sequence, Tuple

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
    publics = bn254.g2_base_mul_many(secrets)
    bn254._keygen_points.keep(publics)  # [sk]G2: decoding these encodings needs no square root
    return [KeyPair(sk, pk) for sk, pk in zip(secrets, publics)]


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


Triple = Tuple[G2Point, G1Point, G1Point]  # (apk, message point, signature)


def _coefficients(batch: Sequence[Triple]) -> List[int]:
    """1, then a 128-bit r_i per further member, read from a hash of every
    point of the batch (small exponents, Bellare-Garay-Rabin 1998)."""
    if len(batch) == 1:
        return [1]
    data = b"".join(bn254.g2_to_bytes(a) + bn254.g1_to_bytes(h) + bn254.g1_to_bytes(s) for a, h, s in batch)
    stream = hashlib.shake_256(data).digest(16 * len(batch))
    return [1] + [int.from_bytes(stream[i:i + 16], "big") or 1 for i in range(16, len(stream), 16)]


def _combine(batch: Sequence[Triple]) -> Tuple[G1Point, List[Tuple[G1Point, G2Point]]]:
    """sum r_i sig_i and one pair (sum r_i H_i, apk) per distinct apk, in
    order of first appearance: by bilinearity the members under one key
    share its Miller pair. r_1 = 1 takes no scalar multiplication, so
    neither does a batch of one."""
    sig, points = None, {}
    for r, (apk, point, signature) in zip(_coefficients(batch), batch):
        if r != 1:
            point, signature = bn254.g1_mul(point, r), bn254.g1_mul(signature, r)
        sig = bn254.g1_add(sig, signature)
        points[apk] = bn254.g1_add(points.get(apk), point)
    return sig, [(point, apk) for apk, point in points.items()]


def _equal(batch: Sequence[Triple]) -> bool:
    """The two-sided route: e(sum r_i sig_i, g2) == FE(prod over keys of ML(apk, sum r_i H_i))."""
    sig, pairs = _combine(batch)
    return bn254.pairing(sig, bn254.G2_GEN) == bn254.pairing_product(pairs)


def _product(batch: Sequence[Triple]) -> bool:
    """The product route: FE(ML(g2, -sum r_i sig_i) prod over keys of ML(apk, sum r_i H_i)) == 1."""
    sig, pairs = _combine(batch)
    return bn254.pairing_check([(bn254.g1_neg(sig), bn254.G2_GEN), *pairs])


class _Route:
    """A pairing decision route and its memo of verdicts, keyed on the
    points themselves and dropping the least recently used past `maxsize`;
    `cache_info` and `cache_clear` read as `functools.lru_cache`'s."""

    maxsize = 16384

    def __init__(self, decide):
        self._decide = decide
        self._verdicts: OrderedDict = OrderedDict()
        self.hits = self.misses = 0

    def __call__(self, batch: Sequence[Triple]) -> List[bool]:
        """A verdict per member: the memo's, else the misses decided as one
        batch, and each of them alone when that batch fails."""
        memo, todo = self._verdicts, {}
        for key in batch:
            if key in memo:
                memo.move_to_end(key)
                self.hits += 1
            elif key not in todo:
                todo[key] = True
                self.misses += 1
        if len(todo) > 1 and self._decide(list(todo)):
            decided = dict.fromkeys(todo, True)
        else:
            decided = {key: self._decide([key]) for key in todo}
        verdicts = [decided[key] if key in decided else memo[key] for key in batch]
        memo.update(decided)
        while len(memo) > self.maxsize:
            memo.popitem(last=False)
        return verdicts

    def cache_info(self):
        return SimpleNamespace(hits=self.hits, misses=self.misses, maxsize=self.maxsize, currsize=len(self._verdicts))

    def cache_clear(self) -> None:
        self._verdicts.clear()
        self.hits = self.misses = 0


_pairing_equal_cached = _Route(_equal)
_pairing_product_cached = _Route(_product)


def _points_valid(apk: G2Point, message_point: G1Point, signature: G1Point) -> bool:
    # the on-curve checks accept the identity, so None is refused first
    if apk is None or signature is None or message_point is None:
        return False
    g1_ok = bn254.g1_is_on_curve(signature) and bn254.g1_is_on_curve(message_point)
    return g1_ok and bn254.g2_is_on_curve(apk)


def _verify_batch(route: _Route, batch: Sequence[Triple]) -> List[bool]:
    # points are checked on their curves before they reach the memo
    valid = [_points_valid(*triple) for triple in batch]
    verdicts = iter(route([triple for triple, ok in zip(batch, valid) if ok]))
    return [ok and next(verdicts) for ok in valid]


def verify_batch_at_point(batch: Sequence[Triple]) -> List[bool]:
    """verify_at_point on each (apk, message point, signature), the
    pairings of those the memo has not decided shared in one check."""
    return _verify_batch(_pairing_equal_cached, batch)


def verify_batch_product(batch: Sequence[Triple]) -> List[bool]:
    """verify_product on each (apk, message point, signature), as above."""
    return _verify_batch(_pairing_product_cached, batch)


def verify_at_point(apk: G2Point, message_point: G1Point, signature: G1Point) -> bool:
    """Check e(sig, g2) == e(point, apk) with a precomputed message point."""
    return verify_batch_at_point([(apk, message_point, signature)])[0]


def verify_product(apk: G2Point, message_point: G1Point, signature: G1Point) -> bool:
    """Same predicate as verify_at_point via the product-of-pairings route."""
    return verify_batch_product([(apk, message_point, signature)])[0]


def verify_aggregate(apk: G2Point, message: bytes, signature: G1Point) -> bool:
    """Check an aggregate (or single) signature against an aggregate pubkey."""
    if apk is None or signature is None:
        return False
    return verify_at_point(apk, hash_to_curve(message), signature)
