"""Canonical encodings: the bitmap packing of docs/wire_format.md § Bitmaps."""

from hypothesis import given, strategies as st

from relaysim.encoding import pack_bits

bitmaps = st.lists(st.booleans(), max_size=70)


@st.composite
def near_pairs(draw):
    """A bitmap and a second one that equals it, differs in one bit, or
    differs only by trailing False bits (which the last byte's zero padding
    could otherwise absorb)."""
    a = draw(bitmaps)
    kind = draw(st.sampled_from(["same", "flip", "extend", "truncate"]))
    b = list(a)
    if kind == "flip" and a:
        i = draw(st.integers(0, len(a) - 1))
        b[i] = not b[i]
    elif kind == "extend":
        b += [False] * draw(st.integers(1, 9))
    elif kind == "truncate" and a:
        b = b[: draw(st.integers(0, len(a) - 1))]
    return a, b


@given(bitmaps, bitmaps)
def test_pack_bits_injective(a, b):
    assert (pack_bits(a) == pack_bits(b)) == (a == b)


@given(near_pairs())
def test_pack_bits_injective_on_near_misses(pair):
    a, b = pair
    assert (pack_bits(a) == pack_bits(b)) == (a == b)


@given(bitmaps)
def test_pack_bits_layout(bits):
    packed = pack_bits(bits)
    assert int.from_bytes(packed[:8], "big") == len(bits)
    assert len(packed) == 8 + (len(bits) + 7) // 8
    assert pack_bits(tuple(bits)) == packed
