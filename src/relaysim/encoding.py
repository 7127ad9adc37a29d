"""Canonical byte encodings shared across the wire formats.

Every digest, signing payload, and commitment in the protocol is built from
these primitives so that golden vectors stay stable. See docs/wire_format.md.
"""

from __future__ import annotations

from typing import Iterable


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


def join(fields: Iterable[bytes]) -> bytes:
    return b"".join(fields)


class Reader:
    """Reads fields off the front of a record; a read past its end, or
    bytes left over at `end()`, raise ValueError."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ValueError("truncated record")
        out = self.data[self.pos : end]
        self.pos = end
        return out

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def lp(self) -> bytes:
        return self.take(self.u64())

    def end(self) -> None:
        if self.pos != len(self.data):
            raise ValueError("trailing bytes after record")


def pack_bits(bits: Iterable[bool]) -> bytes:
    """Bitmap encoding: u64 count followed by MSB-first packed bits."""
    bit_list = list(bits)
    out = bytearray(u64(len(bit_list)))
    acc = 0
    fill = 0
    for b in bit_list:
        acc = (acc << 1) | (1 if b else 0)
        fill += 1
        if fill == 8:
            out.append(acc)
            acc = 0
            fill = 0
    if fill:
        out.append(acc << (8 - fill))
    return bytes(out)


def unpack_bits(data: bytes) -> tuple[bool, ...]:
    if len(data) < 8:
        raise ValueError("bitmap too short")
    count = int.from_bytes(data[:8], "big")
    need = 8 + (count + 7) // 8
    if len(data) != need:
        raise ValueError("bitmap length mismatch")
    bits = []
    for i in range(count):
        byte = data[8 + i // 8]
        bits.append(bool((byte >> (7 - i % 8)) & 1))
    return tuple(bits)
