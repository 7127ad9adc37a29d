"""relaysim: a deterministic cross-chain relay simulator.

Source and destination chains are simulated PoS-BFT chains with weighted
quorum signing; a unified relay chain hosts proof-offloaded hybrid light
clients, one per source, while every destination hosts a single client
tracking the relay chain. Off-chain provers extract headers, Merkle receipt
proofs, and aggregate-signature validity attestations, and the harness
reproduces the protocol's cost model and its liveness/consistency case
analyses under fault injection.
"""

from .chain import (
    AssetPayload,
    BlockWithheld,
    Chain,
    ChainConfig,
    CrossChainTx,
    MessagePayload,
)
from .costs import GasCostTable, GasReceipt, GateCostTable, GateReport
from .economics import StakeLedger, check_tx_safety, degradation_report, network_security
from .lightclient import (
    HybridLcState,
    NormalLcState,
    PublicInputs,
    RejectReason,
    hlc_setup,
    hlc_update,
    hlc_verify,
    lc_setup,
    lc_update,
    lc_verify,
)
from .mos import MosService, PricingConfig, Status, compute_fee
from .prover import (
    CountingBackend,
    ProofBundle,
    Prover,
    TransparentBackend,
    UnsatisfiedStatement,
    ZkProof,
    ZkStatement,
)
from .relay import DeploymentPlan, RelayEnvironment, deployment_plan
from .scenario import Scenario, default_scenario, load_scenario

__version__ = "0.1.0"

__all__ = [
    "AssetPayload",
    "BlockWithheld",
    "Chain",
    "ChainConfig",
    "CountingBackend",
    "CrossChainTx",
    "DeploymentPlan",
    "GasCostTable",
    "GasReceipt",
    "GateCostTable",
    "GateReport",
    "HybridLcState",
    "MessagePayload",
    "MosService",
    "NormalLcState",
    "PricingConfig",
    "ProofBundle",
    "Prover",
    "PublicInputs",
    "RejectReason",
    "RelayEnvironment",
    "Scenario",
    "StakeLedger",
    "Status",
    "TransparentBackend",
    "UnsatisfiedStatement",
    "ZkProof",
    "ZkStatement",
    "check_tx_safety",
    "compute_fee",
    "default_scenario",
    "degradation_report",
    "deployment_plan",
    "hlc_setup",
    "hlc_update",
    "hlc_verify",
    "lc_setup",
    "lc_update",
    "lc_verify",
    "load_scenario",
    "network_security",
]
