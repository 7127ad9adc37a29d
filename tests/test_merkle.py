"""Receipt-trie proofs: exhaustive soundness at eight leaves, and agreement
with a per-node reference implementation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim.crypto.hashes import SUPPORTED, hash_fn
from relaysim.crypto.merkle import (
    LEAF_PREFIX,
    NODE_PREFIX,
    MerkleProof,
    MerkleTree,
    leaf_hash,
    merkle_prove,
    merkle_root,
    merkle_verify,
)

LEAVES8 = [f"leaf-{i}".encode() for i in range(8)]


def test_single_leaf_root_is_leaf_hash():
    assert merkle_root([b"only"]) == leaf_hash(b"only")
    proof = merkle_prove([b"only"], 0)
    assert proof.path == ()
    assert merkle_verify(merkle_root([b"only"]), b"only", proof)


def test_empty_tree_rejected():
    with pytest.raises(ValueError):
        merkle_root([])
    with pytest.raises(ValueError):
        merkle_prove([], 0)


def test_index_out_of_range():
    with pytest.raises(IndexError):
        merkle_prove(LEAVES8, 8)


def test_all_indices_verify_at_8_leaves():
    root = merkle_root(LEAVES8)
    for i in range(8):
        proof = merkle_prove(LEAVES8, i)
        assert merkle_verify(root, LEAVES8[i], proof)


def test_exhaustive_sibling_perturbation_rejected():
    """Every node of every proof, perturbed in any byte position's low bit,
    must break verification, and so must the path with a level added or
    with a level dropped."""
    root = merkle_root(LEAVES8)
    for i in range(8):
        proof = merkle_prove(LEAVES8, i)
        for level, (sibling, side) in enumerate(proof.path):
            for byte_index in range(0, len(sibling), 7):
                bad = bytearray(sibling)
                bad[byte_index] ^= 1
                tampered_path = list(proof.path)
                tampered_path[level] = (bytes(bad), side)
                assert not merkle_verify(root, LEAVES8[i], MerkleProof(tuple(tampered_path)))
        for tampered_path in (((bytes(32), "L"),) + proof.path, proof.path[:-1]):
            assert not merkle_verify(root, LEAVES8[i], MerkleProof(tampered_path))


def test_proof_does_not_transfer_between_leaves():
    root = merkle_root(LEAVES8)
    for i in range(8):
        proof = merkle_prove(LEAVES8, i)
        for j in range(8):
            if i != j:
                assert not merkle_verify(root, LEAVES8[j], proof)


def test_flipped_side_rejected():
    root = merkle_root(LEAVES8)
    proof = merkle_prove(LEAVES8, 3)
    flipped = tuple((h, "L" if s == "R" else "R") for h, s in proof.path)
    assert not merkle_verify(root, LEAVES8[3], MerkleProof(flipped))


def test_odd_leaf_counts():
    for n in (2, 3, 5, 7, 9, 13):
        leaves = [bytes([k]) * 4 for k in range(n)]
        root = merkle_root(leaves)
        for i in range(n):
            assert merkle_verify(root, leaves[i], merkle_prove(leaves, i))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=24), min_size=1, max_size=33), st.data())
def test_roundtrip_property(leaves, data):
    index = data.draw(st.integers(min_value=0, max_value=len(leaves) - 1))
    root = merkle_root(leaves)
    proof = merkle_prove(leaves, index)
    assert merkle_verify(root, leaves[index], proof)


def test_configurable_hash_algorithms():
    for algo in ("sha256", "sha3_256", "blake2b_256"):
        root = merkle_root(LEAVES8, algo)
        proof = merkle_prove(LEAVES8, 2, algo)
        assert merkle_verify(root, LEAVES8[2], proof, algo)
    assert merkle_root(LEAVES8, "sha256") != merkle_root(LEAVES8, "sha3_256")


# ---------------------------------------------------------------------------
# The reference: one hash-function lookup per node, and proofs that walk the
# levels below the root by halving the position.


def _ref_node_hash(left, right, algo):
    return hash_fn(algo)(NODE_PREFIX + left + right).digest()


def _ref_levels(leaves, algo):
    levels = [[hash_fn(algo)(LEAF_PREFIX + leaf).digest() for leaf in leaves]]
    while len(levels[-1]) > 1:
        level = levels[-1]
        nxt = [_ref_node_hash(level[i], level[i + 1], algo) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        levels.append(nxt)
    return levels


def _ref_prove(levels, index):
    pos, path = index, []
    for level in levels[:-1]:
        sibling = pos ^ 1
        if sibling < len(level):
            path.append((level[sibling], "L" if sibling < pos else "R"))
        pos //= 2
    return tuple(path)


def _ref_verify(root, leaf, path, algo):
    acc = hash_fn(algo)(LEAF_PREFIX + leaf).digest()
    for sibling, side in path:
        if side == "L":
            acc = _ref_node_hash(sibling, acc, algo)
        elif side == "R":
            acc = _ref_node_hash(acc, sibling, algo)
        else:
            return False
    return acc == root


def _tamper(path, kind, at, sibling):
    """`path` with one change of `kind` at level `at` (taken modulo its
    length); a path with no level to change is returned as it is."""
    if kind == "add":
        at %= len(path) + 1
        return path[:at] + ((sibling, "L"),) + path[at:]
    if not path:
        return path
    at %= len(path)
    node, side = path[at]
    flipped = "L" if side == "R" else "R"
    replaced = {"drop": (), "flip": ((node, flipped),), "bad-side": ((node, "X"),)}[kind]
    return path[:at] + replaced + path[at + 1 :]


@pytest.mark.parametrize("algo", SUPPORTED)
def test_every_leaf_count_matches_reference(algo):
    """For 1 to 70 leaves, so that odd promotions occur at every level
    shape, the tree's levels, root and every proof equal the reference's."""
    for n in range(1, 71):
        leaves = [bytes([n, k]) * (k % 3) for k in range(n)]
        tree, levels = MerkleTree(leaves, algo), _ref_levels(leaves, algo)
        assert tree.levels == levels and tree.root == levels[-1][0]
        for i in range(n):
            assert tree.prove(i).path == _ref_prove(levels, i)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.binary(max_size=12), min_size=1, max_size=70, unique=True),
    st.sampled_from(SUPPORTED),
    st.data(),
)
def test_verdicts_match_reference_on_tampered_paths(leaves, algo, data):
    """Both implementations build the same proof and give the same verdict on
    it and on a copy with a side flipped, a level added or dropped, or a side
    that is neither "L" nor "R". The leaves are distinct, so no two nodes of
    a level are equal and every changed path is refused."""
    index = data.draw(st.integers(0, len(leaves) - 1))
    levels = _ref_levels(leaves, algo)
    root, path = levels[-1][0], _ref_prove(levels, index)
    assert merkle_prove(leaves, index, algo).path == path
    kind = data.draw(st.sampled_from([None, "flip", "add", "drop", "bad-side"]))
    if kind is not None:
        at = data.draw(st.integers(0, 70))
        path = _tamper(path, kind, at, data.draw(st.binary(min_size=32, max_size=32)))
    verdict = merkle_verify(root, leaves[index], MerkleProof(path), algo)
    assert verdict == _ref_verify(root, leaves[index], path, algo)
    assert verdict == (path == _ref_prove(levels, index))


def test_repeated_prove_returns_the_same_object():
    """A tree builds every leaf's path once: `prove(i)` returns one object
    per leaf however often it is asked, and the (sibling, side) entry of a
    node is one tuple shared by the paths of all leaves below it."""
    leaves = [bytes([k]) for k in range(11)]
    tree = MerkleTree(leaves)
    proofs = [tree.prove(i) for i in range(11)]
    assert all(tree.prove(i) is proofs[i] for i in range(11))
    assert all(p == merkle_prove(leaves, i) for i, p in enumerate(proofs))
    # leaves 0-3 sit below one level-2 node, whose entry (its sibling, the
    # node over leaves 4-7) all four paths hold
    assert len({id(proofs[i].path[2]) for i in range(4)}) == 1
    assert len({id(proofs[i].path[1]) for i in range(4)}) == 2  # one per level-1 node
