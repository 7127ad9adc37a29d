"""Message hashing onto G1, split into its two standalone stages.

The pipeline follows the RFC 9380 construction for a random-oracle map:
``hash_to_base`` expands a message into two base-field elements with
expand_message_xmd(SHA-256), and ``base_to_g`` sends each element through
the Shallue-van de Woestijne map and adds the two points. G1 has cofactor
one, so no clearing step is needed and the subgroup check is the curve
equation itself. ``hash_to_curve`` is the single-pass composition, kept as
an independent code path so the split identity is testable.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple, Optional

from .bn254 import B1, P, G1Point, g1_add

DST_SIG = b"RELAYSIM-BN254G1_XMD:SHA-256_SVDW_RO_SIG_"

_L = 48  # bytes per field element draw: ceil((254 + 128) / 8)


class BaseFieldPair(NamedTuple):
    """Two reduced base-field elements, the on-chain half of hash-to-curve."""

    t0: int
    t1: int


def expand_message_xmd(msg: bytes, dst: bytes, length: int) -> bytes:
    """expand_message_xmd with SHA-256 (RFC 9380 section 5.3.1)."""
    if len(dst) > 255:
        raise ValueError("domain separation tag too long")
    b_in = 32
    r_in = 64
    ell = (length + b_in - 1) // b_in
    if ell > 255:
        raise ValueError("requested length too large")
    dst_prime = dst + bytes([len(dst)])
    b0 = hashlib.sha256(b"\x00" * r_in + msg + length.to_bytes(2, "big") + b"\x00" + dst_prime).digest()
    blocks = [hashlib.sha256(b0 + b"\x01" + dst_prime).digest()]
    for i in range(2, ell + 1):
        prev = bytes(x ^ y for x, y in zip(b0, blocks[-1]))
        blocks.append(hashlib.sha256(prev + bytes([i]) + dst_prime).digest())
    return b"".join(blocks)[:length]


def hash_to_base(msg: bytes, dst: bytes = DST_SIG) -> BaseFieldPair:
    """Map a message to two reduced field elements (hash-to-field, count=2)."""
    uniform = expand_message_xmd(msg, dst, 2 * _L)
    t0 = int.from_bytes(uniform[:_L], "big") % P
    t1 = int.from_bytes(uniform[_L:], "big") % P
    return BaseFieldPair(t0, t1)


# ---------------------------------------------------------------------------
# Shallue-van de Woestijne map for y^2 = x^3 + 3 (A = 0).


def _g(x: int) -> int:
    return (x * x * x + B1) % P


def _is_square(a: int) -> bool:
    return a == 0 or pow(a, (P - 1) // 2, P) == 1


def _sqrt(a: int) -> Optional[int]:
    cand = pow(a, (P + 1) // 4, P)
    return cand if cand * cand % P == a else None


def _find_z() -> int:
    ctr = 1
    while True:
        for z in (ctr, P - ctr):
            gz = _g(z)
            if gz == 0:
                continue
            h_num = -3 * z * z % P
            h = h_num * pow(4 * gz % P, -1, P) % P
            if h == 0 or not _is_square(h):
                continue
            if _is_square(gz) or _is_square(_g(-z * pow(2, -1, P) % P)):
                return z
        ctr += 1


_Z = _find_z()
_C1 = _g(_Z)
_C2 = -_Z * pow(2, -1, P) % P
_C3 = _sqrt(-_C1 * (3 * _Z * _Z + 0) % P)
assert _C3 is not None
if _C3 & 1:
    _C3 = P - _C3
_C4 = -4 * _C1 % P * pow(3 * _Z * _Z % P, -1, P) % P


def svdw_map(u: int) -> G1Point:
    """Map one field element to a curve point (total, constant-free of failure)."""
    u %= P
    tv1 = u * u % P * _C1 % P
    tv2 = (1 + tv1) % P
    tv1 = (1 - tv1) % P
    prod = tv1 * tv2 % P
    tv3 = pow(prod, -1, P) if prod else 0
    tv4 = u * tv1 % P * tv3 % P * _C3 % P
    x1 = (_C2 - tv4) % P
    x2 = (_C2 + tv4) % P
    x3 = ((tv2 * tv2 % P * tv3 % P) ** 2 % P * _C4 + _Z) % P
    # the first candidate whose g(x) has a square root; g(x3) always has one
    for x in (x1, x2, x3):
        y = _sqrt(_g(x))
        if y is not None:
            break
    assert y is not None
    if (y & 1) != (u & 1):
        y = P - y
    return (x, y)


def base_to_g(t: BaseFieldPair) -> G1Point:
    """Second pipeline stage: field elements to a curve point."""
    return g1_add(svdw_map(t.t0), svdw_map(t.t1))


def hash_to_curve(msg: bytes, dst: bytes = DST_SIG) -> G1Point:
    """Monolithic hash-to-curve; equals base_to_g(hash_to_base(msg)) by design."""
    uniform = expand_message_xmd(msg, dst, 2 * _L)
    u0 = int.from_bytes(uniform[:_L], "big") % P
    u1 = int.from_bytes(uniform[_L:], "big") % P
    return g1_add(svdw_map(u0), svdw_map(u1))
