"""Canonical byte encodings shared across the wire formats.

Every digest, signing payload, and commitment in the protocol is built from
these primitives so that golden vectors stay stable. See docs/wire_format.md.
Records with a fixed-width head pack it with one precompiled `struct.Struct`
through `pack`, which gives the same bytes as the `u64`/`lp` fields it
replaces.
"""

from __future__ import annotations

import struct

U64 = struct.Struct(">Q")


def u64(value: int) -> bytes:
    """Unsigned 64-bit big-endian."""
    if value < 0 or value >= 1 << 64:
        raise ValueError(f"u64 out of range: {value}")
    return value.to_bytes(8, "big")


def u256(value: int) -> bytes:
    if value < 0 or value >= 1 << 256:
        raise ValueError(f"u256 out of range: {value}")
    return value.to_bytes(32, "big")


def lp(data: bytes) -> bytes:
    """Length-prefixed byte string (u64 length + payload)."""
    return u64(len(data)) + data


def pack(layout: struct.Struct, *values) -> bytes:
    """`layout.pack(*values)`; a field out of range raises ValueError, as
    `u64` does."""
    try:
        return layout.pack(*values)
    except struct.error as exc:
        raise ValueError(f"field out of range for {layout.format!r}: {exc}") from None
