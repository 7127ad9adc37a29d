"""Binary Merkle tree over byte leaves with domain-separated node hashing.

Leaf and interior hashes carry distinct prefixes (RFC 6962 style) and odd
subtrees promote rather than duplicate, so a proof binds its (root, leaf,
index) triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .hashes import hash_fn

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"


@dataclass(frozen=True, slots=True)
class MerkleProof:
    """The audit path alone: the verifier holds the leaf and the root."""

    path: Tuple[Tuple[bytes, str], ...]  # (sibling digest, "L" | "R"), leaf level first


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


class InclusionMemo:
    """Verdicts on audit paths under one root at a time, each equal to
    `merkle_verify`'s, with the nodes of the accepted paths kept: the
    receipts of one block share their root and the upper nodes of their
    paths. A path under another root empties the memo.

    Every call passes `check`, `merkle_verify` or a binding of it, which
    decides each path the memo cannot. A path of fewer than two entries, and
    the first path under a root, go straight to `check`; the first one's
    nodes are hashed only when a second path under that root comes, so a
    root that covers one receipt costs one walk up its path. Each kept node above leaf level (only the same receipt shares a
    leaf node) maps to the rest of the path it was accepted on, from its
    level up to the root. A path is hashed up from its leaf until it
    reaches a kept node, and is accepted there if its remaining entries
    equal the kept ones, every one of them compared, since hashing that node
    up those entries gave the root. Any other path goes to `check`, and its
    nodes are kept if it is accepted."""

    __slots__ = ("_root", "_algo", "_first", "_nodes")

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._root: Optional[bytes] = None
        self._algo: Optional[str] = None
        self._first: Optional[Tuple[bytes, tuple]] = None  # (leaf, path) accepted, its nodes not yet kept
        self._nodes: Dict[bytes, tuple] = {}  # node -> the rest of its accepted path under _root

    def verify(self, root: bytes, leaf: bytes, proof: MerkleProof, algo: str, check) -> bool:
        if len(proof.path) < 2:  # no node between its leaf and the root to keep or meet
            return check(root, leaf, proof, algo)
        if root != self._root or algo != self._algo:
            self.clear()
            if not check(root, leaf, proof, algo):
                return False
            self._root, self._algo, self._first = root, algo, (leaf, proof.path)
            return True
        new = hash_fn(algo)
        if self._first is not None:
            first, self._first = self._first, None
            self._keep(first[1], self._walk(new, *first)[0])
        hashed, met = self._walk(new, leaf, proof.path)
        if not met and not check(root, leaf, proof, algo):
            return False
        self._keep(proof.path, hashed)
        return True

    def _walk(self, new, leaf: bytes, path: tuple) -> Tuple[List[Tuple[int, bytes]], bool]:
        """The nodes above leaf level hashed on `path`, as (level, node), up
        to the first kept node, and whether the rest of `path` from there
        equals that node's kept rest."""
        nodes, hashed = self._nodes, []
        acc = new(LEAF_PREFIX + leaf).digest()
        for level, (sibling, side) in enumerate(path):
            if level:
                kept = nodes.get(acc)
                if kept is not None:
                    return hashed, kept == path[level:]
                hashed.append((level, acc))
            if side == "L":
                acc = new(NODE_PREFIX + sibling + acc).digest()
            elif side == "R":
                acc = new(NODE_PREFIX + acc + sibling).digest()
            else:
                break
        return hashed, False

    def _keep(self, path: tuple, hashed: List[Tuple[int, bytes]]) -> None:
        nodes = self._nodes
        for level, node in hashed:
            nodes[node] = path[level:]
