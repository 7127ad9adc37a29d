"""Binary Merkle tree over byte leaves with domain-separated node hashing.

Leaf and interior hashes carry distinct prefixes (RFC 6962 style) and odd
subtrees promote rather than duplicate, so a proof binds its (root, leaf,
index) triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .hashes import hash_fn

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"


@dataclass(frozen=True, slots=True)
class MerkleProof:
    """The audit path alone: the verifier holds the leaf and the root."""

    path: Tuple[Tuple[bytes, str], ...]  # (sibling digest, "L" | "R"), leaf level first


def leaf_hash(leaf: bytes, algo: str = "sha256") -> bytes:
    return hash_fn(algo)(LEAF_PREFIX + leaf).digest()


class MerkleTree:
    """Precomputed tree levels; proofs come out in O(log n) once built."""

    def __init__(self, leaves: Sequence[bytes], algo: str = "sha256"):
        if not leaves:
            raise ValueError("merkle tree needs at least one leaf")
        self.algo = algo
        new = hash_fn(algo)
        level = [new(LEAF_PREFIX + leaf).digest() for leaf in leaves]
        self.levels: List[List[bytes]] = [level]
        while len(level) > 1:
            nxt = [new(NODE_PREFIX + level[i] + level[i + 1]).digest() for i in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            self.levels.append(nxt)
            level = nxt

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        count = len(self.levels[0])
        if not 0 <= index < count:
            raise IndexError(f"leaf index {index} out of range for {count} leaves")
        path: List[Tuple[bytes, str]] = []
        for level in self.levels:  # the root level has no sibling to add
            sibling = index ^ 1
            if sibling < len(level):
                path.append((level[sibling], "L" if index & 1 else "R"))
            index >>= 1
        return MerkleProof(tuple(path))


def merkle_root(leaves: Sequence[bytes], algo: str = "sha256") -> bytes:
    return MerkleTree(leaves, algo).root


def merkle_prove(leaves: Sequence[bytes], index: int, algo: str = "sha256") -> MerkleProof:
    return MerkleTree(leaves, algo).prove(index)


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof, algo: str = "sha256") -> bool:
    new = hash_fn(algo)
    acc = new(LEAF_PREFIX + leaf).digest()
    for sibling, side in proof.path:
        if side == "L":
            acc = new(NODE_PREFIX + sibling + acc).digest()
        elif side == "R":
            acc = new(NODE_PREFIX + acc + sibling).digest()
        else:
            return False
    return acc == root
