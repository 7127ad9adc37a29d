"""Receipt-trie proofs: exhaustive soundness at eight leaves."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysim.crypto.merkle import (
    MerkleProof,
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
