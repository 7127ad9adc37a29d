"""The unified relay chain and the end-to-end relay pipeline.

One hybrid light client per registered source chain lives on the relay
chain; every destination chain hosts a single hybrid light client tracking
the relay chain. Cross-chain transactions are therefore verified twice:
source -> relay (intermediate confirmation) and relay -> destination (final
confirmation). Idempotence is keyed by (origin chain id, origin nonce), so
at-least-once prover delivery is harmless.

Everything runs on one deterministic scheduler; within a round, bundles are
applied in (origin, height, ctx-before-update, receipt hash) order so
results do not depend on prover interleaving. A prover's scan reads each
receipt in place, as a (block, leaf index) pair. The honest provers share
one bundle object per receipt (`Prover.ctx_bundle`), kept on its block
(`Block.bundles`), and each transmits it; the order puts
those copies side by side, and a host verifies only the first of them: once
it is accepted, the same object again costs no second verification. Each
host checks inclusion through its `InclusionMemo`, which keeps the nodes of
the paths it verified under the current root.

`RelayEnvironment.receipts_log` holds one entry per paid receipt,
`{"context", "chain", "operation", "items", "total"}`, and one per gate
report, `{"context", "chain", "mode", "signers", "items", "total"}`. `items`
is the receipt's own `(label, count, unit)` tuple, one shared object per
distinct value; `harness.write_artifacts` spells it out as item dicts.
Equal entries are one shared dict, so the log is read-only.

A chain's blocks are released (`Chain.release_blocks`) below the lowest
cursor of their registered readers: the environment's non-silent provers,
the chain's own host sweep and, on the source chains, the observers
registered with `RelayEnvironment.add_observer`. A block goes with what it
confirmed: its receipts, records, Merkle tree and shared bundles.

No host keeps the records it swept: the trace's `confirm_dc` event is the
one record of a key's final confirmation, and payload conservation is
checked as each `FIN1` record is swept, against the submitted payload,
which is then dropped. Per-key tables (`submitted`, the hosts' accepted
keys, the relay gas awaiting `confirm_rc`) are `NonceTable`s: per-origin
columns indexed by nonce, with no Python object per key.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from . import encoding
from .chain import (
    BlockWithheld,
    Chain,
    ChainConfig,
    CrossChainTx,
    LogicalClock,
    ReceiptMessage,
    _decoded_name,
    decode_ctx,
)
from .costs import GasCostTable, GasReceipt, Items, hlc_setup_gas, lc_setup_gas
from .crypto import bls, bn254
from .crypto.merkle import InclusionMemo
from .lightclient import (
    HybridLcState,
    RejectReason,
    UpdateResult,
    VerifyResult,
    _header_terms,
    hlc_setup,
    hlc_update,
    hlc_verify,
)
from .prover import ProofBundle, Prover, _message_point
from .trace import NonceTable, TraceLog

ICTX_TAG = b"ICTX1"  # intermediate record, written on the relay chain
FIN_TAG = b"FIN1"  # final record, written on a destination chain
# each tag's fixed-width head: tag, origin_chain, len(ctx)
_HOP_HEADS = {tag: struct.Struct(f">{len(tag)}s2Q") for tag in (ICTX_TAG, FIN_TAG)}
_SWEPT = object()  # what `submitted` holds for a key once its FIN1 record is swept
# The memos whose entries are pure functions of their keys: module objects
# with their size bounds, emptied by each new environment, so the work a
# run does depends on that run alone.
_RUN_MEMOS = (
    _decoded_name,
    bls._pairing_equal_cached,
    bls._pairing_product_cached,
    bn254._keygen_points,
    bn254._line_schedule,
    _header_terms,
    _message_point,
)


@dataclass(frozen=True, slots=True)
class HopRecord:
    """The record a hosting chain writes for a transaction it accepted:
    `tag || u64(origin_chain) || lp(ctx)`."""

    tag: bytes
    origin_chain: int
    ctx: CrossChainTx

    def to_bytes(self) -> bytes:
        ctx = self.ctx.to_bytes()
        return encoding.pack(_HOP_HEADS[self.tag], self.tag, self.origin_chain, len(ctx)) + ctx

    @classmethod
    def from_bytes(cls, tag: bytes, data: bytes) -> "HopRecord":
        """Parse a `tag` record; anything else raises ValueError."""
        head = _HOP_HEADS[tag]
        try:
            got, origin, size = head.unpack_from(data)
        except struct.error:
            raise ValueError("truncated record") from None
        if got != tag:
            raise ValueError(f"not a {tag.decode()} record")
        if head.size + size != len(data):
            raise ValueError("ctx length does not match the record")
        return cls(tag, origin, decode_ctx(data[head.size :]))

    @property
    def key(self) -> Tuple[int, int]:
        return self.ctx.key


@dataclass(frozen=True, slots=True)
class DeliveryReceipt:
    target: int


@dataclass(frozen=True)
class DeploymentPlan:
    n_chains: int
    topology: str
    lc_instances: int
    deployment_gas: int


def deployment_plan(
    n_chains: int,
    topology: str,
    table: Optional[GasCostTable] = None,
    validators_per_chain: int = 100,
) -> DeploymentPlan:
    """Light-client count and deployment gas for connecting N chains."""
    if n_chains < 2:
        raise ValueError("a deployment needs at least two chains")
    table = table if table is not None else GasCostTable()
    if topology == "pairwise":
        instances = n_chains * (n_chains - 1)
        gas = instances * lc_setup_gas(table, validators_per_chain)
    elif topology == "relayed":
        instances = 2 * n_chains
        gas = instances * hlc_setup_gas(table)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    return DeploymentPlan(
        n_chains=n_chains, topology=topology, lc_instances=instances, deployment_gas=gas
    )


# ---------------------------------------------------------------------------


Delivery = Tuple[Optional[CrossChainTx], VerifyResult, bool]


class LightClientHost:
    """A chain hosting hybrid light clients of other chains.

    The relay chain hosts one client per source chain; each destination hosts
    one client of the relay chain. A host verifies a record delivered from a
    tracked chain against that chain's client, queues its own record of the
    transaction for its next block, and sweeps its blocks for those records.
    Subclasses state which record they read and which they write.

    Subclasses bind `receive` and `resolve_confirmations` in their own class
    body: perfbench/probes.py wraps each class's own methods, which is how a
    traced run tells the two hops apart.
    """

    writes: bytes  # tag of the records this host writes

    def __init__(self, chain: Chain, table: GasCostTable, backend):
        self.chain = chain
        self.table = table
        self.backend = backend
        self.clients: Dict[int, HybridLcState] = {}
        # accepted keys, one bit per nonce: byte nonce >> 3 of each origin's column
        self._accepted = NonceTable("B", 0)
        self._resolved_height = chain.height
        self.inclusion = InclusionMemo()

    def register_source(self, source: Chain) -> GasReceipt:
        """Set up a light client of `source` from its genesis validator set."""
        chain_id = source.config.chain_id
        if chain_id in self.clients:
            raise ValueError(f"source chain {chain_id} already registered")
        result = hlc_setup(
            chain_id,
            source.validator_set(0),
            source.config.epoch_size,
            source.config.vote_threshold,
            self.table,
            source.config.hash_algo,
        )
        self.clients[chain_id] = result.state
        return result.receipt

    def receive_update(self, bundle: ProofBundle) -> UpdateResult:
        state = self.clients.get(bundle.origin_chain)
        if state is None:  # a header of a chain this host does not track
            return UpdateResult(False, None, _empty_receipt(self.table), RejectReason.EPOCH_GAP)
        result = hlc_update(state, bundle.header, bundle.zk_proof, self.table, self.backend)
        if result.accepted:
            self.clients[bundle.origin_chain] = result.state
        return result

    def receive(self, bundle: ProofBundle) -> Delivery:
        """Verify a delivered record; on acceptance queue this host's record
        for its next block. Returns (ctx, verify result, fresh)."""
        try:
            origin, ctx = self._read(bundle)
        except ValueError:
            return None, VerifyResult(False, _empty_receipt(self.table), RejectReason.MERKLE_FAIL), False
        state = self.clients.get(bundle.origin_chain)
        if state is None:  # a header of a chain this host does not track
            return ctx, VerifyResult(False, _empty_receipt(self.table), RejectReason.EPOCH_GAP), False
        message = ReceiptMessage(
            tx_hash=bundle.receipt_hash or ctx.tx_hash,
            payload=bundle.receipt_payload,
            height=bundle.header.height,
        )
        result = hlc_verify(
            state,
            message,
            bundle.header,
            bundle.merkle_proof,
            bundle.zk_proof,
            self.table,
            self.backend,
            self.inclusion,
        )
        if not result.ok:
            return ctx, result, False
        if self._misrouted(ctx):
            return ctx, VerifyResult(False, result.receipt, RejectReason.PUBLIC_INPUT_MISMATCH), False
        byte, bit = (ctx.origin_chain, ctx.nonce >> 3), 1 << (ctx.nonce & 7)
        accepted = self._accepted.get(byte, 0)
        if accepted & bit:
            return ctx, result, False  # idempotent duplicate
        self._accepted[byte] = accepted | bit
        self.chain.append_event(HopRecord(self.writes, origin, ctx))
        return ctx, result, True

    def resolve_confirmations(self) -> List[HopRecord]:
        """Collect this host's records confirmed by blocks not yet swept."""
        out = []
        while self._resolved_height < self.chain.height:
            self._resolved_height += 1
            for record in self.chain.block_at(self._resolved_height).records:
                if _is_record(record, self.writes):
                    out.append(record)
        return out

    @property
    def sweep_cursor(self) -> int:
        """The height the sweep reads next on this host's chain."""
        return self._resolved_height + 1

    def _misrouted(self, ctx: CrossChainTx) -> bool:
        return False


class RelayChain(LightClientHost):
    """The relay chain: its own consensus plus one hybrid LC per source.
    It reads source `CTX1` records and writes `ICTX1` records."""

    writes = ICTX_TAG
    relay_receive = receive = LightClientHost.receive
    resolve_confirmations = LightClientHost.resolve_confirmations

    @staticmethod
    def _read(bundle: ProofBundle) -> Tuple[int, CrossChainTx]:
        return bundle.origin_chain, decode_ctx(bundle.receipt_payload or b"")


class DestinationHost(LightClientHost):
    """A destination chain hosting the relay chain's light client. It reads
    `ICTX1` records addressed to it and writes `FIN1` records; it keeps none
    it swept, since the environment traces each as its key's final
    confirmation and checks its payload as it is swept."""

    writes = FIN_TAG
    dest_receive = receive = LightClientHost.receive
    resolve_confirmations = LightClientHost.resolve_confirmations

    @staticmethod
    def _read(bundle: ProofBundle) -> Tuple[int, CrossChainTx]:
        record = HopRecord.from_bytes(ICTX_TAG, bundle.receipt_payload or b"")
        return record.origin_chain, record.ctx

    def _misrouted(self, ctx: CrossChainTx) -> bool:
        return ctx.dest_chain != self.chain.config.chain_id


def _is_record(record, tag: bytes) -> bool:
    return isinstance(record, HopRecord) and record.tag == tag


def _empty_receipt(table: GasCostTable) -> GasReceipt:
    return GasReceipt(operation="rejected", items=(("call_overhead", 1, table.call_overhead),))


# ---------------------------------------------------------------------------
# The environment: chains, relay chain, provers, one deterministic scheduler.


@dataclass(frozen=True)
class Rejection:
    stage: str
    chain: int
    key: Optional[Tuple[int, int]]
    reason: str


class RelayEnvironment:
    """Wires chains, the relay chain, destination hosts, and provers together
    and advances them in deterministic rounds.

    A round moves every in-flight transaction at most one full pipeline pass:
    source blocks, prover scans, relay verification and inclusion, prover
    scans of the relay chain, destination verification and inclusion.
    """

    def __init__(
        self,
        rc_config: ChainConfig,
        backend,
        table: Optional[GasCostTable] = None,
    ):
        for memo in _RUN_MEMOS:
            memo.cache_clear()
        self.table = table if table is not None else GasCostTable()
        self.backend = backend
        self.clock = LogicalClock()
        self.rc_id = rc_config.chain_id
        rc_chain = Chain(replace(rc_config, announce_commitment_only=True), self.clock)
        self.rc = RelayChain(rc_chain, self.table, backend)
        self.chains: Dict[int, Chain] = {}
        self.hosts: Dict[int, DestinationHost] = {}
        self.provers: List[Prover] = []
        self._observers: List[Prover] = []
        self.trace = TraceLog()
        self.receipts_log: List[dict] = []  # entry shapes: see the module docstring
        self._items: Dict[Items, Items] = {}  # one shared tuple per distinct `items`
        self._entries: Dict[tuple, dict] = {}  # one shared dict per distinct log entry
        self.rejections: List[Rejection] = []
        # key -> its payload until its FIN1 record is swept, then _SWEPT
        self.submitted = NonceTable(None, None)
        self._violations: set[Tuple[int, int]] = set()  # swept FIN1 keys whose payload is not the submitted one
        self._inbox: Dict[int, List[ProofBundle]] = {self.rc_id: []}
        self._pending_rc_gas = NonceTable()  # key -> gas of its fresh relay verification, until confirm_rc
        self.round = 0

    # -- wiring ---------------------------------------------------------------

    def add_chain(self, config: ChainConfig) -> Chain:
        """Add a chain that is both a source (the relay chain hosts a client
        of it) and a destination (it hosts a client of the relay chain)."""
        if config.chain_id in self.chains or config.chain_id == self.rc_id:
            raise ValueError(f"chain id {config.chain_id} already in use")
        chain = Chain(config, self.clock)
        self.chains[config.chain_id] = chain
        self._log_receipt("register_source", self.rc_id, self.rc.register_source(chain))
        host = self.hosts[config.chain_id] = DestinationHost(chain, self.table, self.backend)
        self._inbox[config.chain_id] = []
        self._log_receipt("register_rc_client", config.chain_id, host.register_source(self.rc.chain))
        return chain

    def host(self, chain_id: int) -> LightClientHost:
        """The light-client host on `chain_id`: the relay chain or a destination."""
        if chain_id == self.rc_id:
            return self.rc
        if chain_id not in self.hosts:
            raise ValueError(f"chain {chain_id} hosts no light client")
        return self.hosts[chain_id]

    def add_prover(self, name: str, profile: str = "honest") -> Prover:
        prover = Prover(name, self.backend, profile)
        self.provers.append(prover)
        return prover

    def add_observer(self, prover: Prover) -> None:
        """Register a prover that reads the source chains outside the
        rounds, such as a forgery corpus's observer: no source block it has
        not read is released."""
        self._observers.append(prover)

    # -- intake -----------------------------------------------------------------

    def submit(self, source_id: int, dest_id: int, payload) -> Tuple[int, int]:
        if source_id not in self.chains:
            raise ValueError(f"unknown source chain {source_id}")
        if dest_id not in self.hosts:
            raise ValueError(f"destination chain {dest_id} is not registered")
        chain = self.chains[source_id]
        ctx = chain.make_tx(dest_id, payload)
        chain.submit_tx(ctx)
        self.submitted[ctx.key] = payload
        self._record(ctx.key, "commit_sc", source_id, once=False)
        return ctx.key

    def transmit(self, bundle: ProofBundle, target: int) -> DeliveryReceipt:
        if target not in self._inbox:
            raise ValueError(f"unknown transmit target {target}")
        self._inbox[target].append(bundle)
        return DeliveryReceipt(target=target)

    # -- bookkeeping --------------------------------------------------------------

    def _record(
        self, key, stage: str, chain: int, gas: Optional[int] = None, verdict: str = "ok", once: bool = True
    ) -> None:
        """Trace `stage` of `key` at the next tick; with `once`, a stage `key`
        already reached takes its tick but is not logged again."""
        self.trace.record(key, stage, self.clock.next(), chain, verdict, gas, once)

    def _log_receipt(self, context: str, chain_id: int, receipt, **head) -> None:
        """Log a gas receipt under its operation, or a gate report under the
        `head` fields given: one shared dict per distinct entry."""
        head = head or {"operation": receipt.operation}
        key = (context, chain_id, *head.values(), receipt.items)
        entry = self._entries.get(key)
        if entry is None:
            items = self._items.setdefault(receipt.items, receipt.items)
            entry = {"context": context, "chain": chain_id, **head, "items": items, "total": receipt.total}
            self._entries[key] = entry
        self.receipts_log.append(entry)

    def _reject(self, stage: str, chain: int, key, reason: RejectReason) -> None:
        key_t = key if key is None else tuple(key)
        self.rejections.append(
            Rejection(stage=stage, chain=chain, key=key_t, reason=reason.value)
        )
        self._record(key_t, stage, chain, verdict=f"reject:{reason.value}", once=False)

    @staticmethod
    def _bundle_order(bundle: ProofBundle):
        return (
            bundle.origin_chain,
            bundle.header.height,
            0 if bundle.kind == "ctx" else 1,
            bundle.receipt_hash or b"",
        )

    # -- the round ---------------------------------------------------------------

    def step(self) -> None:
        self.round += 1
        self._produce_source_blocks()
        provers = [p for p in self.provers if p.profile != "silent"]
        for prover in provers:
            self._scan_sources(prover)
        self._release_blocks(self.chains.values(), provers + self._observers)
        self._drain(self.rc_id)
        for prover in provers:
            self._scan_relay(prover)
        self._release_blocks([self.rc.chain], provers)
        for host_id in sorted(self.hosts):
            self._drain(host_id)

    def _release_blocks(self, chains, readers: List[Prover]) -> None:
        """Release each chain's blocks below the lowest cursor of its
        readers: the given provers and the chain's own host sweep. A silent
        prover reads nothing and holds nothing back."""
        for chain in chains:
            cid = chain.config.chain_id
            chain.release_blocks(min([self.host(cid).sweep_cursor] + [r.receipt_cursor(cid) for r in readers]))

    def _produce_source_blocks(self) -> None:
        for cid in sorted(self.chains):
            self._produce(cid)

    def _produce(self, chain_id: int) -> None:
        """Make the next block of chain `chain_id`, if anything is pending,
        and trace what it confirms: each `CrossChainTx` it holds at
        `confirm_sc`, then the records its host's sweep finds. Every block
        of the run is made here, so a transaction confirmed in any of them
        reaches `confirm_sc`."""
        host = self.host(chain_id)
        if not host.chain.pending_count:
            return
        try:
            block, _ = host.chain.produce_block()
        except BlockWithheld:  # liveness fault: records stay pending
            return
        for record in block.records:
            if isinstance(record, CrossChainTx):
                self._record(record.key, "confirm_sc", chain_id)
        self._record_confirmations(chain_id)

    def _record_confirmations(self, host_id: int) -> None:
        """Trace the records a host's sweep finds. At a destination, keep
        the key of a `FIN1` record whose payload is not the one submitted:
        a key never submitted, or one whose payload was dropped at an
        earlier sweep of its `FIN1` (one submission, one final delivery).
        Equal payloads encode equally, so only unequal ones are encoded."""
        at_relay = host_id == self.rc_id
        for record in self.host(host_id).resolve_confirmations():
            key = record.key
            if at_relay:
                self._record(key, "confirm_rc", host_id, gas=self._pending_rc_gas.pop(key, None))
            else:
                payload, got = self.submitted.get(key), record.ctx.payload
                if payload is None or payload is _SWEPT or (payload != got and payload.to_bytes() != got.to_bytes()):
                    self._violations.add(key)
                if payload is not None:
                    self.submitted[key] = _SWEPT
                self._record(key, "confirm_dc", host_id)

    def _scan_sources(self, prover: Prover) -> None:
        scans, headers = [], []
        for cid in sorted(self.chains):
            chain = self.chains[cid]
            boundaries = prover.new_boundaries(chain)
            leaves = prover.monitor(chain, CrossChainTx)  # local events are not relayed outward
            scans.append((chain, boundaries, leaves))
            blocks = {id(block): block for block, _ in leaves}.values()  # each header once
            headers += [(chain, h) for h in boundaries] + [(chain, b.header) for b in blocks]
        # every new header of the scan is proven, as one batch, before its bundles are built
        prover.prove_many(headers)
        for chain, boundaries, leaves in scans:
            for header in boundaries:
                self.transmit(prover.update_bundle(chain, header), self.rc_id)
            for block, leaf in leaves:
                self.transmit(prover.ctx_bundle(chain, block, leaf), self.rc_id)
                self._record(block.records[leaf].key, "prove_sc", chain.config.chain_id)

    def _scan_relay(self, prover: Prover) -> None:
        for header in prover.new_boundaries(self.rc.chain):
            bundle = prover.update_bundle(self.rc.chain, header)
            for host_id in sorted(self.hosts):
                self.transmit(bundle, host_id)
        for block, leaf in prover.monitor(self.rc.chain, HopRecord):  # the relay chain's own ICTX1 records
            ctx = block.records[leaf].ctx
            if ctx.dest_chain in self.hosts:
                self.transmit(prover.ctx_bundle(self.rc.chain, block, leaf), ctx.dest_chain)
                self._record(ctx.key, "prove_rc", self.rc_id)

    def deliver(self, bundle: ProofBundle, host_id: int) -> Optional[Delivery]:
        """Apply one bundle at the host on `host_id` and log its outcome: an
        accepted update's receipt, a fresh verification's receipt (its gas is
        traced with `confirm_rc` at the relay, as `verify_dc` at a
        destination), or a rejection. Returns the host's (ctx, verify result,
        fresh) for a ctx bundle and None for an update."""
        host = self.host(host_id)
        at_relay = host_id == self.rc_id
        if bundle.kind == "update":
            update = host.receive_update(bundle)
            if update.accepted:
                self._log_receipt("hlc_update", host_id, update.receipt)
            elif update.reason != RejectReason.EPOCH_GAP:
                self._reject("update_rc" if at_relay else "update_dc", host_id, None, update.reason)
            return None
        ctx, result, fresh = delivery = host.receive(bundle)
        key = ctx.key if ctx is not None else None
        if not result.ok:
            self._reject("confirm_rc" if at_relay else "verify_dc", host_id, key, result.reason)
        elif fresh:
            self._log_receipt("hlc_verify", host_id, result.receipt)
            if at_relay:
                self._pending_rc_gas[key] = result.receipt.total
                report = bundle.zk_proof.gate_report
                if report is not None:
                    self._log_receipt(
                        "gate_report", bundle.origin_chain, report, mode=report.mode, signers=report.signers
                    )
            else:
                self._record(key, "verify_dc", host_id, gas=result.receipt.total)
        return delivery

    def _drain(self, host_id: int) -> None:
        """Deliver a host's inbox in bundle order, then produce its next block
        and trace the records that block confirms (`_produce`).

        A bundle that is the very object delivered just before it is skipped
        when that delivery was accepted: the honest provers transmit the one
        bundle they share for a receipt, and its copies share an order key,
        so they sort side by side; no update between them changes the host's
        clients, and verifying the twin would return an accepted idempotent
        duplicate, which logs nothing. A copy after a rejected one is
        delivered and logs its own rejection, and a bundle built apart, even
        an equal one, is delivered too. The host's inclusion memo is emptied
        once the inbox is delivered."""
        bundles = sorted(self._inbox[host_id], key=self._bundle_order)
        self._inbox[host_id].clear()
        previous = delivery = None
        for bundle in bundles:
            if delivery is not None and delivery[1].ok and bundle is previous:
                continue
            previous, delivery = bundle, self.deliver(bundle, host_id)
        self.host(host_id).inclusion.clear()
        self._produce(host_id)

    # -- driving -------------------------------------------------------------------

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.step()

    def run_until_complete(self, keys, horizon_rounds: int = 10) -> Tuple[bool, List[Tuple[int, int]]]:
        """Step until every key reaches final confirmation or the logical
        horizon is exhausted; returns (all confirmed, stalled keys).

        `keys` is any collection of keys, such as `submitted`. A final
        confirmation stays, so one pass over `keys` serves every round: it
        waits at the first key not yet confirmed, and a second pass lists
        the stalled keys."""
        has_stage = self.trace.has_stage
        unconfirmed = (k for k in map(tuple, keys) if not has_stage(k, "confirm_dc"))
        waiting = next(unconfirmed, None)
        for _ in range(horizon_rounds):
            while waiting is not None and has_stage(waiting, "confirm_dc"):
                waiting = next(unconfirmed, None)
            if waiting is None:
                return True, []
            self.step()
        stalled = sorted({k for k in map(tuple, keys) if not has_stage(k, "confirm_dc")})
        return not stalled, stalled

    # -- invariant helpers ------------------------------------------------------------

    def final_confirmations(self) -> List[Tuple[int, int]]:
        """The keys the trace holds at `confirm_dc`, in first-traced order."""
        return self.trace.keys_at("confirm_dc")

    def payload_conservation_violations(self) -> List[Tuple[int, int]]:
        """Keys whose swept `FIN1` payload differs from the submitted one, or
        that were never submitted."""
        return sorted(self._violations)
