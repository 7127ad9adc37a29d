"""Off-chain provers: statement construction, pluggable proof backends, and
the monitoring/relaying runtime.

No real SNARK is produced. Soundness at simulation scale comes from a
witness check at prove time plus a keyed attestation over the public inputs,
so attestation bytes cannot be minted for statements the backend never
checked. Succinctness and zero knowledge are explicitly not modeled. Both
backends share one witness check and differ only in how they decide the
pairing equation; the counting backend also prices the verification circuit
in the split pipeline, its only mode: the base-field hashing stays outside
the circuit. The public inputs come from `lightclient.public_inputs`, the
derivation the verifying client itself runs.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .chain import Block, BlockHeader, Chain, quorum_reached
from .costs import GateCostTable, GateReport, gate_report
from .crypto import bls
from .crypto.bn254 import G1Point
from .crypto.commitment import ValidatorSet, commitment_digest
from .crypto.hash_to_curve import base_to_g, BaseFieldPair
from .crypto.merkle import MerkleProof
from .lightclient import PublicInputs, public_inputs


class UnsatisfiedStatement(Exception):
    """The witness does not satisfy the statement; an honest prover refuses."""


@dataclass(frozen=True)
class Witness:
    validator_set: ValidatorSet
    bitmap: Tuple[bool, ...]
    signature: G1Point
    new_set: Optional[ValidatorSet] = None
    hash_algo: str = "sha256"  # the algorithm the commitments were made under


@functools.lru_cache(maxsize=32)
def _message_point(t: Tuple[int, int]) -> G1Point:
    """base_to_g of a header's base-field pair t, a public input: a pure
    function of t, made once for every prover that proves the header."""
    return base_to_g(BaseFieldPair(*t))


@dataclass(frozen=True)
class ZkStatement:
    publics: PublicInputs
    witness: Witness

    @functools.cached_property
    def pairing_args(self) -> Optional[bls.Triple]:
        """(apk, message point, signature) of the pairing check, or None if
        the witness fails a check before it; read once per statement."""
        pub, wit = self.publics, self.witness
        vset = wit.validator_set
        if commitment_digest(vset, wit.hash_algo) != pub.commitment:
            return None
        if len(wit.bitmap) != len(vset):
            return None
        weight = vset.bitmap_weight(wit.bitmap)
        if weight != pub.claimed_weight or weight <= 0:
            return None
        if not quorum_reached(weight, vset.total_weight, pub.threshold):
            return None
        if (pub.new_commitment is None) != (wit.new_set is None):
            return None
        if pub.new_commitment is not None:
            if commitment_digest(wit.new_set, wit.hash_algo) != pub.new_commitment:
                return None
        apk = bls.aggregate_pubkeys(vset.pubkeys(), wit.bitmap)
        return apk, _message_point(pub.t), wit.signature


@dataclass(frozen=True)
class ZkProof:
    backend: str  # "transparent" | "counting"
    attestation: bytes
    publics: PublicInputs
    gate_report: Optional[GateReport] = None


class _Backend:
    """Shared by both backends: checks the witness, then binds the public
    inputs under a private key; verification recomputes the binding, or
    reads it back for the public inputs it bound last. Provers that prove
    one header through one backend get one `ZkProof` object. A backend
    states only its pairing decision route and its gate report. Its memos
    live on the instance, so they go with the run that made it.

    Subclasses bind `prove` and `verify` in their own class body:
    perfbench/probes.py wraps each class's own methods.
    """

    name = ""

    def __init__(self, key: bytes):
        # HMAC keyed and fed `name || "|"` once; each attestation copies it
        # (RFC 2104 section 4: precomputed inner and outer key states)
        mac = hmac.new(key, self.name.encode() + b"|", hashlib.sha256)

        @functools.lru_cache(maxsize=32)  # the last attestations, not holding self
        def attest(publics: PublicInputs) -> bytes:
            bound = mac.copy()
            bound.update(publics.canonical_bytes())
            return bound.digest()

        name = self.name

        @functools.lru_cache(maxsize=64)  # the last proofs, by what they hold
        def proof(publics: PublicInputs, report: Optional[GateReport]) -> ZkProof:
            return ZkProof(backend=name, attestation=attest(publics), publics=publics, gate_report=report)

        self._attest = attest
        self._proof = proof
        self.last_passed: Tuple[object, ...] = (None, None, None)  # see lightclient._check_proof

    def check_statement(self, statement: ZkStatement) -> bool:
        args = statement.pairing_args
        return args is not None and self._decide(*args)

    def check_many(self, statements: Sequence[ZkStatement]) -> List[bool]:
        """check_statement on each statement, their pairings decided as one
        batch; each verdict lands in the memo `check_statement` reads."""
        args = [s.pairing_args for s in statements]
        verdicts = iter(self._decide_many([a for a in args if a is not None]))
        return [a is not None and next(verdicts) for a in args]

    def _decide(self, apk, point: G1Point, signature: G1Point) -> bool:
        raise NotImplementedError

    def _decide_many(self, batch: List[bls.Triple]) -> List[bool]:
        raise NotImplementedError

    def _gate_report(self, witness: Witness) -> Optional[GateReport]:
        return None

    def prove(self, statement: ZkStatement) -> ZkProof:
        if not self.check_statement(statement):
            raise UnsatisfiedStatement("witness does not satisfy the statement")
        return self._proof(statement.publics, self._gate_report(statement.witness))

    def verify(self, proof: ZkProof, publics: PublicInputs) -> bool:
        if proof.publics != publics:
            return False
        return hmac.compare_digest(proof.attestation, self._attest(publics))


class TransparentBackend(_Backend):
    """Re-execution oracle: decides the pairing by two-sided equality."""

    name = "transparent"
    prove = _Backend.prove
    verify = _Backend.verify

    def _decide(self, apk, point, signature):
        return bls.verify_at_point(apk, point, signature)

    def _decide_many(self, batch):
        return bls.verify_batch_at_point(batch)


class CountingBackend(_Backend):
    """Decides the pairing in product form, e(-sig, g2) * e(point, apk) == 1,
    and prices the split verification circuit from the gate table."""

    name = "counting"
    prove = _Backend.prove
    verify = _Backend.verify

    def __init__(self, key: bytes, gate_table: Optional[GateCostTable] = None):
        super().__init__(key)
        self.gate_table = gate_table if gate_table is not None else GateCostTable()

    def _decide(self, apk, point, signature):
        return bls.verify_product(apk, point, signature)

    def _decide_many(self, batch):
        return bls.verify_batch_product(batch)

    def _gate_report(self, witness):
        return gate_report(self.gate_table, sum(1 for b in witness.bitmap if b), "split")


# ---------------------------------------------------------------------------
# Statement construction from chain data.


def statement_for_header(chain: Chain, header: BlockHeader) -> ZkStatement:
    """The aggregate-signature-validity statement for one header."""
    signing_set = chain.signing_set_for(header)
    algo = chain.config.hash_algo
    new_set = None
    if header.is_boundary:
        # commitment-only headers: open the announced set from chain state
        new_set = header.announced_set or chain.validator_set(header.epoch)
    publics = public_inputs(
        header,
        commitment_digest(signing_set, algo),
        chain.config.vote_threshold,
        algo,
        signing_set.bitmap_weight(header.agg.bitmap),
    )
    witness = Witness(
        validator_set=signing_set,
        bitmap=header.agg.bitmap,
        signature=header.agg.point,
        new_set=new_set,
        hash_algo=algo,
    )
    return ZkStatement(publics=publics, witness=witness)


@dataclass(frozen=True, slots=True)
class ProofBundle:
    """Everything one hop delivers to a hosted light client."""

    kind: str  # "ctx" | "update"
    origin_chain: int
    header: BlockHeader
    zk_proof: ZkProof
    merkle_proof: Optional[MerkleProof] = None
    receipt_payload: Optional[bytes] = None
    receipt_hash: Optional[bytes] = None


class Prover:
    """Monitors chains, extracts proofs, and transmits relay bundles.

    Profiles: honest provers relay faithfully; silent provers observe and
    produce nothing. A tampering prover is no profile: the attack harness
    (`harness.attack_consistency`) forges bundles from an honest prover's.
    """

    def __init__(self, name: str, backend, profile: str = "honest"):
        if profile not in ("honest", "silent"):
            raise ValueError(f"unknown prover profile {profile!r}")
        self.name = name
        self.backend = backend
        self.profile = profile
        self._receipt_cursors: Dict[int, int] = {}
        self._update_cursors: Dict[int, int] = {}
        self._zk_cache: Dict[Tuple[int, int], ZkProof] = {}

    # -- observation ---------------------------------------------------------

    def monitor(self, chain: Chain, kind: type = object) -> List[Tuple[Block, int]]:
        """The (block, leaf index) of each receipt whose record is of type
        `kind`, in chain order, each exactly once per prover; the cursor
        passes the other receipts too."""
        start = self.receipt_cursor(chain.config.chain_id)
        out: List[Tuple[Block, int]] = []
        for height in range(start, chain.height + 1):
            block = chain.block_at(height)
            out += [(block, i) for i, record in enumerate(block.records) if isinstance(record, kind)]
        self._receipt_cursors[chain.config.chain_id] = chain.height + 1
        return out

    def receipt_cursor(self, chain_id: int) -> int:
        """The height `monitor` reads next on chain `chain_id`: every block
        below it has been read."""
        return self._receipt_cursors.get(chain_id, 0)

    def new_boundaries(self, chain: Chain) -> List[BlockHeader]:
        start = max(1, self._update_cursors.get(chain.config.chain_id, 1))
        out = []
        for height in range(start, chain.height + 1):
            header = chain.header_at(height)
            if header.is_boundary:
                out.append(header)
        self._update_cursors[chain.config.chain_id] = chain.height + 1
        return out

    # -- proof generation ------------------------------------------------------

    def prove_many(self, headers: Iterable[Tuple[Chain, BlockHeader]]) -> None:
        """Prove each (chain, header) not proven yet, their pairings decided
        as one batch first. A header whose statement fails stays unproven:
        `zk_proof_for` refuses it where its bundle is built."""
        statements: Dict[Tuple[int, int], ZkStatement] = {}
        for chain, header in headers:
            key = (chain.config.chain_id, header.height)
            if key not in self._zk_cache and key not in statements:
                statements[key] = statement_for_header(chain, header)
        verdicts = self.backend.check_many(list(statements.values()))
        for (key, statement), ok in zip(statements.items(), verdicts):
            if ok:
                self._zk_cache[key] = self.backend.prove(statement)

    def zk_proof_for(self, chain: Chain, header: BlockHeader) -> ZkProof:
        key = (chain.config.chain_id, header.height)
        if key not in self._zk_cache:
            self._zk_cache[key] = self.backend.prove(statement_for_header(chain, header))
        return self._zk_cache[key]

    def ctx_bundle(self, chain: Chain, block: Block, leaf: int) -> ProofBundle:
        """The bundle for receipt `leaf` of a block this prover read off
        `chain`: the receipt is proven by its position in its block. The
        provers of one receipt share one bundle, kept on its block
        (`Block.bundles`), when their proofs of its header are one object,
        as the proofs of provers with one backend are."""
        header = block.header
        zk_proof = self.zk_proof_for(chain, header)
        bundle = block.bundles.get(leaf)
        if bundle is None or bundle.zk_proof is not zk_proof:
            message = block.receipts[leaf]
            bundle = ProofBundle(
                kind="ctx",
                origin_chain=chain.config.chain_id,
                header=header,
                zk_proof=zk_proof,
                merkle_proof=chain.receipt_proof(header.height, leaf),
                receipt_payload=message.payload,
                receipt_hash=message.tx_hash,
            )
            block.bundles.setdefault(leaf, bundle)
        return bundle

    def update_bundle(self, chain: Chain, header: BlockHeader) -> ProofBundle:
        return ProofBundle(
            kind="update",
            origin_chain=chain.config.chain_id,
            header=header,
            zk_proof=self.zk_proof_for(chain, header),
        )
