"""Binary Merkle tree over byte leaves with domain-separated node hashing.

Leaf and interior hashes carry distinct prefixes (RFC 6962 style) and odd
subtrees promote rather than duplicate, so a proof binds its (root, leaf,
index) triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
    """Precomputed tree levels of node hashes (the leaves themselves are not
    kept).

    The first `prove` builds the audit paths of every leaf in one pass, top
    down: each node's (sibling, side) entry is one tuple, shared by the paths
    of all leaves below it, and each leaf's path is a tuple of references to
    those entries. Every `prove(i)` returns the same `MerkleProof` object, so
    the provers of one receipt hold one proof between them. A tree nobody
    proves from builds no paths.
    """

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
        self._proofs: Optional[List[MerkleProof]] = None

    @property
    def root(self) -> bytes:
        return self.levels[-1][0]

    def prove(self, index: int) -> MerkleProof:
        count = len(self.levels[0])
        if not 0 <= index < count:
            raise IndexError(f"leaf index {index} out of range for {count} leaves")
        if self._proofs is None:
            self._proofs = [MerkleProof(path) for path in self._paths()]
        return self._proofs[index]

    def _paths(self) -> List[Tuple[Tuple[bytes, str], ...]]:
        """Every leaf's audit path, leaf level first: a node's path is its
        own entry, if it has a sibling, then its parent's path."""
        paths: List[Tuple[Tuple[bytes, str], ...]] = [()]  # the root's
        for level in reversed(self.levels[:-1]):
            width, below = len(level), []
            for i in range(width):
                up = paths[i >> 1]
                if i ^ 1 < width:
                    below.append(((level[i ^ 1], "L" if i & 1 else "R"),) + up)
                else:  # an odd node promotes: no entry at this level
                    below.append(up)
            paths = below
        return paths


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
