"""Pairing-based signature primitives, Merkle receipt tries, and commitments."""

from .bls import (
    KeyPair,
    aggregate,
    aggregate_pubkeys,
    keygen,
    keygen_many,
    sign,
    sign_aggregate,
    verify_aggregate,
    verify_at_point,
)
from .commitment import ValidatorEntry, ValidatorSet, commitment_digest
from .hash_to_curve import BaseFieldPair, base_to_g, hash_to_base, hash_to_curve
from .merkle import MerkleProof, merkle_prove, merkle_root, merkle_verify

__all__ = [
    "KeyPair",
    "keygen",
    "keygen_many",
    "sign",
    "sign_aggregate",
    "aggregate",
    "aggregate_pubkeys",
    "verify_aggregate",
    "verify_at_point",
    "BaseFieldPair",
    "hash_to_base",
    "base_to_g",
    "hash_to_curve",
    "MerkleProof",
    "merkle_root",
    "merkle_prove",
    "merkle_verify",
    "ValidatorEntry",
    "ValidatorSet",
    "commitment_digest",
]
