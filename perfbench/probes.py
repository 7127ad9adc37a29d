"""Wrappers that count or trace calls into relaysim from outside the package.

A probe replaces a function at *every* place the package binds it: the
defining module and each module that imported the name (`from .x import f`
creates a second binding that patching only the defining module would miss).
Methods are patched on their class, which every binding of the class shares.

Two wrapper kinds exist:

* counting wrappers (untraced runs) increment one integer per call and do
  nothing else, so the operation counts sit beside the wall times at a cost
  of well under a microsecond per call on functions that take milliseconds;
* span wrappers (traced runs) record `[label, start_ns, end_ns, parent,
  op, note]` for every call, kept in memory and summarised at the end.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Target:
    module: str  # defining module, e.g. "relaysim.crypto.bn254"
    qualname: str  # "pairing" or "Class.method"
    label: str  # layer metric prefix, e.g. "crypto.bn254.pairing"
    note: Optional[Callable] = None  # (args, result) -> small value kept on the span


def _verify_note(args, result):
    return "ok" if result.ok else result.reason.value


def _update_note(args, result):
    return "ok" if result.accepted else result.reason.value


def _fresh_note(args, result):
    return bool(result[2])


def _receive_op(args, result):
    ctx = result[0]
    return None if ctx is None else f"{ctx.key[0]}:{ctx.key[1]}"


def _transmit_note(args, result):
    return result.target


def _message_out_op(args, result):
    return f"{result[0]}:{result[1]}"


# Every layer boundary the traced run records. `fp12_mul` and the other field
# operations are deliberately absent: wrapping them would distort the Miller
# loop they sit in.
TRACED: Tuple[Target, ...] = (
    Target("relaysim.crypto.bn254", "pairing", "crypto.bn254.pairing"),
    Target("relaysim.crypto.bn254", "pairing_product", "crypto.bn254.pairing_product"),
    Target("relaysim.crypto.bn254", "miller_loop", "crypto.bn254.miller_loop"),
    Target("relaysim.crypto.bn254", "final_exponentiation", "crypto.bn254.final_exponentiation"),
    Target("relaysim.crypto.bn254", "g1_mul", "crypto.bn254.g1_mul"),
    Target("relaysim.crypto.bn254", "g2_base_mul", "crypto.bn254.g2_base_mul"),
    Target("relaysim.crypto.bn254", "g2_from_bytes", "crypto.bn254.g2_from_bytes"),
    Target("relaysim.crypto.hash_to_curve", "hash_to_base", "crypto.hash_to_curve.hash_to_base"),
    Target("relaysim.crypto.hash_to_curve", "base_to_g", "crypto.hash_to_curve.base_to_g"),
    Target("relaysim.crypto.hash_to_curve", "hash_to_curve", "crypto.hash_to_curve.hash_to_curve"),
    Target("relaysim.crypto.bls", "keygen", "crypto.bls.keygen"),
    Target("relaysim.crypto.bls", "sign", "crypto.bls.sign"),
    Target("relaysim.crypto.bls", "aggregate_pubkeys", "crypto.bls.aggregate_pubkeys"),
    Target("relaysim.crypto.bls", "verify_at_point", "crypto.bls.verify_at_point"),
    Target("relaysim.crypto.bls", "verify_product", "crypto.bls.verify_product"),
    Target("relaysim.crypto.merkle", "MerkleTree.__init__", "crypto.merkle.MerkleTree.build"),
    Target("relaysim.crypto.merkle", "MerkleTree.prove", "crypto.merkle.MerkleTree.prove"),
    Target("relaysim.crypto.merkle", "merkle_verify", "crypto.merkle.merkle_verify"),
    Target("relaysim.crypto.commitment", "commitment_digest", "crypto.commitment.commitment_digest"),
    Target("relaysim.crypto.commitment", "ValidatorSet.pubkeys", "crypto.commitment.ValidatorSet.pubkeys"),
    Target("relaysim.chain", "Chain.produce_block", "chain.Chain.produce_block"),
    Target("relaysim.chain", "Chain.receipt_proof", "chain.Chain.receipt_proof"),
    Target("relaysim.lightclient", "hlc_verify", "lightclient.hlc_verify", _verify_note),
    Target("relaysim.lightclient", "hlc_update", "lightclient.hlc_update", _update_note),
    Target("relaysim.prover", "Prover.zk_proof_for", "prover.Prover.zk_proof_for"),
    Target("relaysim.prover", "TransparentBackend.prove", "prover.backend.prove"),
    Target("relaysim.prover", "CountingBackend.prove", "prover.backend.prove"),
    Target("relaysim.prover", "TransparentBackend.verify", "prover.backend.verify"),
    Target("relaysim.prover", "CountingBackend.verify", "prover.backend.verify"),
    Target("relaysim.prover", "statement_for_header", "prover.statement_for_header"),
    Target("relaysim.prover", "Prover.monitor", "prover.Prover.monitor"),
    Target("relaysim.prover", "Prover.ctx_bundle", "prover.Prover.ctx_bundle"),
    Target("relaysim.relay", "RelayEnvironment.step", "relay.RelayEnvironment.step"),
    Target("relaysim.relay", "RelayEnvironment.transmit", "relay.RelayEnvironment.transmit", _transmit_note),
    Target("relaysim.relay", "RelayChain.relay_receive", "relay.RelayChain.relay_receive", _fresh_note),
    Target("relaysim.relay", "DestinationHost.dest_receive", "relay.DestinationHost.dest_receive", _fresh_note),
    Target("relaysim.relay", "RelayChain.resolve_confirmations", "relay.resolve_confirmations"),
    Target("relaysim.relay", "DestinationHost.resolve_confirmations", "relay.resolve_confirmations"),
    Target("relaysim.relay", "decode_ctx", "relay.decode_ctx"),
    Target("relaysim.trace", "TraceLog.completed_keys", "trace.TraceLog.completed_keys"),
    Target("relaysim.mos", "MosService.message_out", "mos.MosService.message_out"),
)

# Labels whose call counts are the deterministic operation counts; untraced
# runs wrap only these, with counting wrappers.
COUNTED = (
    "crypto.bn254.pairing",
    "crypto.bn254.pairing_product",
    "crypto.bn254.miller_loop",
    "crypto.bn254.final_exponentiation",
    "crypto.bn254.g1_mul",
    "crypto.bn254.g2_base_mul",
    "crypto.bn254.g2_from_bytes",
    "crypto.hash_to_curve.hash_to_curve",
    "crypto.bls.sign",
    "crypto.bls.verify_at_point",
    "crypto.bls.verify_product",
    "lightclient.hlc_verify",
    "lightclient.hlc_update",
    "relay.decode_ctx",
    "prover.backend.prove",
)

# Op-id sources: spans below these inherit the transaction key they return.
_OP_FROM_RESULT = {
    "relay.RelayChain.relay_receive": _receive_op,
    "relay.DestinationHost.dest_receive": _receive_op,
    "mos.MosService.message_out": _message_out_op,
}

# Bindings outside the defining module that must be patched, with the
# workloads that must reach them through that binding. An empty tuple means
# the binding is only checked for being patched: `lightclient.base_to_g` is
# used by the normal light client alone, which no workload drives.
ALL_WORKLOADS = ("bulk", "stream", "committee-64", "forgery-flood")
REQUIRED_BINDINGS: Dict[str, Tuple[str, ...]] = {
    "relaysim.crypto.commitment.g2_from_bytes": ALL_WORKLOADS,
    "relaysim.crypto.bls.hash_to_curve": ALL_WORKLOADS,
    "relaysim.lightclient.hash_to_base": ALL_WORKLOADS,
    "relaysim.lightclient.base_to_g": (),
    "relaysim.lightclient.merkle_verify": ALL_WORKLOADS,
    "relaysim.prover.base_to_g": ALL_WORKLOADS,
    "relaysim.relay.hlc_verify": ALL_WORKLOADS,
    "relaysim.relay.hlc_update": ("stream", "forgery-flood"),
    "relaysim.chain.MerkleTree": ALL_WORKLOADS,
    "relaysim.harness.decode_ctx": ("forgery-flood",),
}


class Probes:
    """Installs wrappers and owns what they record."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.op: Optional[str] = None  # set by the driver, inherited by spans
        # binding ("relaysim.relay.hlc_verify") -> [label, calls]
        self.bindings: Dict[str, list] = {}

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        package = {
            name: mod
            for name, mod in sorted(sys.modules.items())
            if name == "relaysim" or name.startswith("relaysim.")
        }
        targets = TRACED if self.traced else [t for t in TRACED if t.label in COUNTED]
        for target in targets:
            owner = importlib.import_module(target.module)
            if "." in target.qualname:
                cls_name, attr = target.qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                # class-level aliases such as MosService.data_out
                holders = [(cls, name, f"{target.module}.{cls_name}.{name}")
                           for name, value in list(vars(cls).items()) if value is original]
                # module bindings of the class itself, for the coverage check
                for mod_name, mod in package.items():
                    for name, value in vars(mod).items():
                        if value is cls:
                            self.bindings.setdefault(f"{mod_name}.{name}", [target.label, 0])
            else:
                original = getattr(owner, target.qualname)
                holders = [(mod, name, f"{mod_name}.{name}")
                           for mod_name, mod in package.items()
                           for name, value in list(vars(mod).items()) if value is original]
            for holder, name, binding in holders:
                cell = self.bindings.setdefault(binding, [target.label, 0])
                setattr(holder, name, self._wrap(original, target, cell))

    def _wrap(self, fn, target: Target, cell: list):
        if not self.traced:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                cell[1] += 1
                return fn(*args, **kwargs)

            return counting

        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        label, note = target.label, target.note
        op_from = _OP_FROM_RESULT.get(label)
        probes = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell[1] += 1
            span = [label, 0, 0, stack[-1] if stack else -1, probes.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                span[5] = note(args, result)
            if op_from is not None:
                span[4] = op_from(args, result) or span[4]
            return result

        return traced

    # -- results ------------------------------------------------------------------

    def counts(self) -> Dict[str, int]:
        out = {label: 0 for label in COUNTED}
        for label, calls in self.bindings.values():
            if label in out:
                out[label] += calls
        return out

    def coverage(self, workload: str) -> List[str]:
        """Problems with the required alias bindings; empty when all hold."""
        problems = []
        for binding, workloads in REQUIRED_BINDINGS.items():
            cell = self.bindings.get(binding)
            if cell is None:
                if self.traced:
                    problems.append(f"{binding} is not patched")
                continue
            label = cell[0]
            if workload not in workloads:
                continue
            if binding == "relaysim.chain.MerkleTree":
                fired = sum(c for lbl, c in self.bindings.values() if lbl == label)
            else:
                fired = cell[1]
            if fired == 0:
                problems.append(f"{binding} never fired on {workload}")
        return problems

    def resolved_ops(self) -> List[Optional[str]]:
        """Each span's operation id: its own, else its nearest ancestor's."""
        ops: List[Optional[str]] = []
        for label, _, _, parent, op, _ in self.spans:
            if op is None and parent >= 0:
                op = ops[parent]
            ops.append(op)
        return ops

    def layers(self) -> Dict[str, float]:
        """Per-layer calls, total and self seconds, and the derived ratios."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for label, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Dict[str, int] = {}
        total: Dict[str, int] = {}
        own: Dict[str, int] = {}
        for i, (label, start, end, _, _, _) in enumerate(spans):
            calls[label] = calls.get(label, 0) + 1
            total[label] = total.get(label, 0) + (end - start)
            own[label] = own.get(label, 0) + (end - start - child_ns[i])

        def ancestors(i):
            parent = spans[i][3]
            while parent >= 0:
                yield parent
                parent = spans[parent][3]

        paired = set()  # verify spans that reached a Miller loop
        proved = set()  # zk_proof_for spans that reached backend.prove
        for i, span in enumerate(spans):
            if span[0] == "crypto.bn254.miller_loop":
                paired.update(a for a in ancestors(i) if spans[a][0].startswith("crypto.bls.verify_"))
            elif span[0] == "prover.backend.prove":
                proved.update(a for a in ancestors(i) if spans[a][0] == "prover.Prover.zk_proof_for")

        out: Dict[str, float] = {}
        for label in {t.label for t in TRACED}:
            out[f"{label}.calls"] = calls.get(label, 0)
            out[f"{label}.total_s"] = total.get(label, 0) / 1e9
            out[f"{label}.self_s"] = own.get(label, 0) / 1e9

        verify = [i for i, s in enumerate(spans) if s[0].startswith("crypto.bls.verify_")]
        out["crypto.bls.verify_cache_hit_ratio"] = _ratio(len(verify) - len(paired), len(verify))
        zk = calls.get("prover.Prover.zk_proof_for", 0)
        out["prover.proof_reuse_ratio"] = _ratio(zk - len(proved), zk)

        notes: Dict[str, Dict] = {}
        for label, _, _, parent, _, note in spans:
            if note is not None:
                bucket = notes.setdefault(label, {})
                bucket[note] = bucket.get(note, 0) + 1
        for label in ("lightclient.hlc_verify", "lightclient.hlc_update"):
            bucket = notes.get(label, {})
            out[f"{label}.accept_ratio"] = _ratio(bucket.get("ok", 0), calls.get(label, 0))
        for label in ("relay.RelayChain.relay_receive", "relay.DestinationHost.dest_receive"):
            out[f"{label}.fresh_ratio"] = _ratio(notes.get(label, {}).get(True, 0), calls.get(label, 0))
        for reason in REJECT_REASONS:
            out[f"lightclient.reject.{reason}"] = sum(
                notes.get(label, {}).get(reason, 0)
                for label in ("lightclient.hlc_verify", "lightclient.hlc_update")
            )

        depth: Dict[Tuple[int, object], int] = {}
        for label, _, _, parent, _, note in spans:
            if label == "relay.RelayEnvironment.transmit":
                depth[(parent, note)] = depth.get((parent, note), 0) + 1
        out["relay.inbox_depth_max"] = max(depth.values(), default=0)

        steps = [(s[2] - s[1]) / 1e6 for s in spans if s[0] == "relay.RelayEnvironment.step"]
        out["relay.RelayEnvironment.step.p50_ms"] = statistics.median(steps) if steps else 0.0
        out["relay.RelayEnvironment.step.max_ms"] = max(steps, default=0.0)
        return out


REJECT_REASONS = (
    "bad-signature",
    "insufficient-weight",
    "epoch-gap",
    "proof-invalid",
    "public-input-mismatch",
    "merkle-fail",
)


def _ratio(num: float, den: float) -> float:
    """num/den, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0
