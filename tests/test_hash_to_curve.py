"""The split hashing pipeline: field-element derivation, the curve map, and
the composition identity against the monolithic path."""

import hashlib
import random

from hypothesis import given, settings, strategies as st

from relaysim.crypto.bn254 import P, g1_is_on_curve, g1_to_bytes
from relaysim.crypto.hash_to_curve import (
    BaseFieldPair,
    base_to_g,
    expand_message_xmd,
    hash_to_base,
    hash_to_curve,
    svdw_map,
)

# frozen regression vectors (generated once from this implementation)
GOLDEN_T = BaseFieldPair(
    31415926535897932384626433832795028841971693993751058209749445923078164062862 % P,
    27182818284590452353602874713526624977572470936999595749669676277240766303535 % P,
)
GOLDEN_T_POINT = "0307a826053b2b5280b4bb99fbb0e2a9aa5df6827284790b6299704df4ba835c6f"
GOLDEN_MSG = b"golden-message-v1"
GOLDEN_MSG_POINT = "032a29193739cf71d888c0c871637699d1c0e728d71fdf7a0124d5136a92c90b6f"
GOLDEN_MSG_T = (
    9780034548299830550362318507699524928791369235977826218656759570777463261729,
    8285111566005575436347212468111404961234843759923153954105382286679428723828,
)


def test_hash_to_base_deterministic():
    assert hash_to_base(b"hello") == hash_to_base(b"hello")


def test_hash_to_base_empty_message_ok():
    t = hash_to_base(b"")
    assert 0 <= t.t0 < P and 0 <= t.t1 < P


def test_hash_to_base_outputs_reduced():
    for i in range(50):
        t = hash_to_base(f"reduce-{i}".encode())
        assert 0 <= t.t0 < P and 0 <= t.t1 < P


def test_hash_to_base_distinct_for_close_messages():
    # derived check over 1000 single-byte-different message pairs
    seen_equal = 0
    for i in range(1000):
        base = f"msg-{i:04d}".encode()
        other = base[:-1] + bytes([base[-1] ^ 1])
        if hash_to_base(base) == hash_to_base(other):
            seen_equal += 1
    assert seen_equal == 0


def test_split_pipeline_identity_1000_messages():
    """base_to_g(hash_to_base(m)) must equal the monolithic hash-to-curve."""
    rng = random.Random(314159)
    for i in range(1000):
        msg = rng.randbytes(rng.randrange(1, 64))
        assert base_to_g(hash_to_base(msg)) == hash_to_curve(msg), f"case {i}"


def test_base_to_g_on_curve_for_random_field_elements():
    rng = random.Random(2718)
    for _ in range(1000):
        t = BaseFieldPair(rng.randrange(P), rng.randrange(P))
        pt = base_to_g(t)
        # G1 has prime order (cofactor one): on-curve is the subgroup check
        assert g1_is_on_curve(pt)


def test_svdw_handles_exceptional_inputs():
    for u in (0, 1, P - 1):
        assert g1_is_on_curve(svdw_map(u))
    assert g1_is_on_curve(base_to_g(BaseFieldPair(0, 0)))


def test_golden_vector_fixed_t():
    assert g1_to_bytes(base_to_g(GOLDEN_T)).hex() == GOLDEN_T_POINT


def test_golden_vector_fixed_message():
    assert g1_to_bytes(hash_to_curve(GOLDEN_MSG)).hex() == GOLDEN_MSG_POINT
    t = hash_to_base(GOLDEN_MSG)
    assert (t.t0, t.t1) == GOLDEN_MSG_T


def _svdw_reference(u):
    """RFC 9380's selection, written out: take the first of x1, x2, x3 whose
    g(x) is a square (Euler's criterion), then its square root."""
    from relaysim.crypto.hash_to_curve import _C1, _C2, _C3, _C4, _Z, _g, _is_square

    u %= P
    tv1 = u * u % P * _C1 % P
    tv2, tv1 = (1 + tv1) % P, (1 - tv1) % P
    tv3 = pow(tv1 * tv2 % P, -1, P) if tv1 * tv2 % P else 0
    tv4 = u * tv1 % P * tv3 % P * _C3 % P
    x3 = ((tv2 * tv2 % P * tv3 % P) ** 2 % P * _C4 + _Z) % P
    x = next(x for x in ((_C2 - tv4) % P, (_C2 + tv4) % P, x3) if _is_square(_g(x)))
    y = pow(_g(x), (P + 1) // 4, P)
    return x, (y if (y & 1) == (u & 1) else P - y)


def test_svdw_matches_the_euler_criterion_selection():
    """One square-root attempt per candidate picks the same x, and the same
    y, as testing each candidate with Euler's criterion first; the inputs
    reach all three candidates."""
    rng = random.Random(161803)
    inputs = [0, 1, 2, P - 2, P - 1] + [rng.randrange(P) for _ in range(300)]
    for u in inputs:
        assert svdw_map(u) == _svdw_reference(u), u


def _expand_message_xmd_bytewise(msg: bytes, dst: bytes, length: int) -> bytes:
    """RFC 9380 section 5.3.1 with strxor spelled out byte by byte: the
    reference for the integer XOR in `expand_message_xmd`."""
    ell = (length + 31) // 32
    dst_prime = dst + bytes([len(dst)])
    b0 = hashlib.sha256(b"\x00" * 64 + msg + length.to_bytes(2, "big") + b"\x00" + dst_prime).digest()
    blocks = [hashlib.sha256(b0 + b"\x01" + dst_prime).digest()]
    for i in range(2, ell + 1):
        prev = bytes(x ^ y for x, y in zip(b0, blocks[-1]))
        blocks.append(hashlib.sha256(prev + bytes([i]) + dst_prime).digest())
    return b"".join(blocks)[:length]


@settings(max_examples=200, deadline=None)
@given(
    st.binary(max_size=300),
    st.binary(min_size=1, max_size=255),
    st.sampled_from((1, 32, 33, 48, 96, 8160)),
)
def test_expand_message_xmd_matches_the_bytewise_strxor(msg, dst, length):
    assert expand_message_xmd(msg, dst, length) == _expand_message_xmd_bytewise(msg, dst, length)


def test_expand_message_xmd_rfc9380_vector():
    """RFC 9380 appendix K.1 (expand_message_xmd, SHA-256), msg = "",
    len_in_bytes = 0x80: four blocks, three of them chained through strxor."""
    dst = b"QUUX-V01-CS02-with-expander-SHA256-128"
    assert expand_message_xmd(b"", dst, 0x80).hex() == (
        "af84c27ccfd45d41914fdff5df25293e221afc53d8ad2ac06d5e3e29485dadbe"
        "e0d121587713a3e0dd4d5e69e93eb7cd4f5df4cd103e188cf60cb02edc3edf18"
        "eda8576c412b18ffb658e3dd6ec849469b979d444cf7b26911a08e63cf31f9dc"
        "c541708d3491184472c2c29bb749d4286b004ceb5ee6b9a7fa5b646c993f0ced"
    )
