"""Weighted validator sets and their binding on-chain commitments.

Entries are canonically ordered by compressed public key so the same set
always commits to the same digest. The commitment hashes the length-prefixed
serialization of all (pubkey, weight) pairs; openings are public, so a plain
collision-resistant hash suffices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence, Tuple

from .. import encoding
from .bn254 import G2Point, g2_from_bytes
from .hashes import digest

COMMITMENT_TAG = b"relaysim/validator-set-commitment/v1"


@dataclass(frozen=True)
class ValidatorEntry:
    pubkey_bytes: bytes
    weight: int
    # the entry this one re-weights: the key is read through it, so it is
    # decoded once however often its weight changes
    source: Optional["ValidatorEntry"] = field(default=None, compare=False, repr=False)

    @cached_property
    def pubkey(self) -> G2Point:
        """The decoded key, kept on the entry after the first decode (sets
        that share entries share it); a failed decode is not kept."""
        if self.source is not None:
            return self.source.pubkey
        return g2_from_bytes(self.pubkey_bytes)

    def reweighted(self, weight: int) -> "ValidatorEntry":
        return ValidatorEntry(self.pubkey_bytes, weight, source=self.source or self)


@dataclass(frozen=True)
class ValidatorSet:
    epoch: int
    entries: Tuple[ValidatorEntry, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("validator set must be nonempty")
        keys = [e.pubkey_bytes for e in self.entries]
        if keys != sorted(keys):
            raise ValueError("validator entries must be in canonical order")
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate validator public key")
        if any(e.weight < 0 for e in self.entries):
            raise ValueError("validator weight must be non-negative")

    @staticmethod
    def from_pairs(epoch: int, pairs: Iterable[Tuple[bytes, int]]) -> "ValidatorSet":
        entries = tuple(
            ValidatorEntry(pubkey_bytes=pk, weight=w)
            for pk, w in sorted(pairs, key=lambda kv: kv[0])
        )
        return ValidatorSet(epoch=epoch, entries=entries)

    @property
    def total_weight(self) -> int:
        return sum(e.weight for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def pubkeys(self) -> Tuple[G2Point, ...]:
        return tuple(e.pubkey for e in self.entries)

    def bitmap_weight(self, bitmap: Sequence[bool]) -> int:
        if len(bitmap) != len(self.entries):
            raise ValueError("bitmap length mismatch")
        return sum(e.weight for e, b in zip(self.entries, bitmap) if b)

    def serialize(self) -> bytes:
        body = [encoding.u64(len(self.entries))]
        for entry in self.entries:
            body.append(encoding.lp(entry.pubkey_bytes))
            body.append(encoding.u64(entry.weight))
        return b"".join(body)


def commitment_digest(vs: ValidatorSet, algo: str = "sha256") -> bytes:
    """Binding digest over the canonical (pubkey, weight) serialization."""
    return digest(COMMITMENT_TAG + vs.serialize(), algo)
