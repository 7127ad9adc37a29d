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


@dataclass(frozen=True)
class MerkleProof:
    """The audit path alone: the verifier holds the leaf and the root."""

    path: Tuple[Tuple[bytes, str], ...]  # (sibling digest, "L" | "R"), leaf level first


def leaf_hash(leaf: bytes, algo: str = "sha256") -> bytes:
    return hash_fn(algo)(LEAF_PREFIX + leaf).digest()


def _node_hash(left: bytes, right: bytes, algo: str) -> bytes:
    return hash_fn(algo)(NODE_PREFIX + left + right).digest()


class MerkleTree:
    """Precomputed tree levels; proofs come out in O(log n) once built."""

    def __init__(self, leaves: Sequence[bytes], algo: str = "sha256"):
        if not leaves:
            raise ValueError("merkle tree needs at least one leaf")
        self.algo = algo
        self.levels: List[List[bytes]] = [[leaf_hash(leaf, algo) for leaf in leaves]]
        while len(self.levels[-1]) > 1:
            level = self.levels[-1]
            nxt = [
                _node_hash(level[i], level[i + 1], algo)
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                nxt.append(level[-1])
            self.levels.append(nxt)

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        count = len(self.levels[0])
        if not 0 <= index < count:
            raise IndexError(f"leaf index {index} out of range for {count} leaves")
        pos = index
        path: List[Tuple[bytes, str]] = []
        for level in self.levels[:-1]:
            sibling = pos ^ 1
            if sibling < len(level):
                side = "L" if sibling < pos else "R"
                path.append((level[sibling], side))
            pos //= 2
        return MerkleProof(tuple(path))


def merkle_root(leaves: Sequence[bytes], algo: str = "sha256") -> bytes:
    return MerkleTree(leaves, algo).root


def merkle_prove(leaves: Sequence[bytes], index: int, algo: str = "sha256") -> MerkleProof:
    return MerkleTree(leaves, algo).prove(index)


def merkle_verify(root: bytes, leaf: bytes, proof: MerkleProof, algo: str = "sha256") -> bool:
    acc = leaf_hash(leaf, algo)
    for sibling, side in proof.path:
        if side == "L":
            acc = _node_hash(sibling, acc, algo)
        elif side == "R":
            acc = _node_hash(acc, sibling, algo)
        else:
            return False
    return acc == root
