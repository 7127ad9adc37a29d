"""Acceptance suite: every release criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them inline).

Criteria:
  1. on-chain gas ratio and absolute anchors on the 100-validator workload
  2. circuit-size model at 4/8/16/32 signers plus the split/baseline ratio
  3. deployment complexity formulas, exact for N in 2..10
  4. cross-chain liveness under prover faults and stake withholding
  5. cross-chain consistency under the forgery corpus and stake collusion
  6. proof-backend oracle equivalence
  7. crypto identities (split pipeline, exhaustive bitmaps, Merkle binding)
  8. economics anchors and the pre-paid pricing function
  9. end-to-end determinism of run artifacts
"""

import random
from fractions import Fraction

from relaysim import harness
from relaysim.costs import GateCostTable, baseline_gates, split_gates
from relaysim.crypto.hash_to_curve import base_to_g, hash_to_base, hash_to_curve
from relaysim.crypto.merkle import MerkleProof, merkle_prove, merkle_root, merkle_verify
from relaysim.economics import StakeLedger, check_tx_safety, degradation_report
from relaysim.mos import PricingConfig, compute_fee
from relaysim.relay import deployment_plan
from relaysim.scenario import scenario_from_dict


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _scenario(seed=5, count=100, rc_validators=4, provers=({"name": "p0"},)):
    return scenario_from_dict(
        {
            "name": "acceptance",
            "seed": seed,
            "relay_chain": {"chain_id": 100, "validators": rc_validators, "epoch_size": 10},
            "chains": [
                {"chain_id": 1, "validators": 3, "epoch_size": 6},
                {"chain_id": 2, "validators": 3, "epoch_size": 6},
                {"chain_id": 3, "validators": 3, "epoch_size": 6},
            ],
            "provers": list(provers),
            "workload": {"kind": "synthetic", "count": count},
            "stakes": {"1": 7_000_000, "2": 7_000_000, "3": 7_000_000, "100": 7_000_000},
        }
    )


def test_criterion_1_gas_ratio():
    """Hybrid verification saves at least 30% gas on the identical
    100-validator single-transaction workload, near the published totals."""
    report = harness.bench(_scenario())
    gas = report["gas"]
    ratio = gas["verify_ratio"]
    ok = (
        ratio <= 0.70
        and abs(gas["hybrid_verify"] - 0.65e6) <= 0.10 * 0.65e6
        and abs(gas["normal_verify"] - 1.0e6) <= 0.10 * 1.0e6
    )
    _report(
        "criterion 1 (gas ratio)",
        ok,
        f"normal={gas['normal_verify']:,} hybrid={gas['hybrid_verify']:,} ratio={ratio:.3f}",
    )


def test_criterion_2_circuit_model():
    """Counting backend reproduces the published split-circuit totals within
    5% and the split/baseline ratio at 8 signers in [0.75, 0.80]."""
    table = GateCostTable()
    targets = {4: 0.9e6, 8: 15.7e6, 16: 25.2e6, 32: 49.3e6}
    errors = {n: abs(split_gates(table, n) - t) / t for n, t in targets.items()}
    ratio = split_gates(table, 8) / baseline_gates(table, 8)
    baseline_err = abs(baseline_gates(table, 8) - 2e7) / 2e7
    ok = all(e <= 0.05 for e in errors.values()) and 0.75 <= ratio <= 0.80 and baseline_err <= 0.05
    detail = (
        " ".join(f"{n}:{split_gates(table, n):,}({errors[n]:+.1%})" for n in targets)
        + f" ratio@8={ratio:.3f}"
    )
    _report("criterion 2 (circuit model)", ok, detail)


def test_criterion_3_deployment_complexity():
    """Exact light-client counts and deployment gas for N in 2..10."""
    ok = True
    for n in range(2, 11):
        pairwise = deployment_plan(n, "pairwise")
        relayed = deployment_plan(n, "relayed")
        ok = ok and pairwise.lc_instances == n * (n - 1)
        ok = ok and pairwise.deployment_gas == 10**7 * n * (n - 1)
        ok = ok and relayed.lc_instances == 2 * n
        ok = ok and relayed.deployment_gas == 2 * 10**5 * n
    _report(
        "criterion 3 (deployment complexity)",
        ok,
        "pairwise N(N-1) x 1e7 and relayed 2N x 1e5 exact for N=2..10",
    )


def test_criterion_4_liveness():
    """1000/1000 transactions confirm with one honest prover and honest
    stakes; stalls appear when all provers are silent or >=1/3 withholds."""
    healthy = harness.attack_liveness(
        _scenario(count=1000), honest_provers=1, silent_provers=1, count=1000
    )
    confirmed = healthy.details["confirmed"]
    silent = harness.attack_liveness(_scenario(), honest_provers=0, silent_provers=2, count=10)
    withheld = harness.attack_liveness(
        _scenario(), honest_provers=1, withhold={100: 0.4}, count=10
    )
    third = harness.attack_liveness(
        _scenario(rc_validators=3), honest_provers=1, withhold={100: 0.34}, count=10
    )
    ok = (
        healthy.ok
        and confirmed == 1000
        and silent.ok
        and silent.observed_breach
        and withheld.ok
        and withheld.observed_breach
        and third.ok
        and third.observed_breach
    )
    _report(
        "criterion 4 (liveness)",
        ok,
        f"healthy {confirmed}/1000 confirmed; all-silent stalled={silent.observed_breach}; "
        f"withhold 0.4 stalled={withheld.observed_breach}; withhold >=1/3 stalled={third.observed_breach}",
    )


def test_criterion_5_consistency():
    """>=1000 randomized forgeries across five strategies never confirm below
    2/3 corrupted stake; a >=2/3 colluding quorum forges successfully."""
    corpus = harness.attack_consistency(_scenario(), forgeries=1000, honest_count=20)
    collusion = harness.attack_collusion(_scenario(rc_validators=10), colluding_fraction=0.7)
    below = harness.attack_collusion(_scenario(rc_validators=10), colluding_fraction=0.6)
    strategies_covered = all(v > 0 for v in corpus.details["per_strategy"].values())
    ok = (
        corpus.ok
        and not corpus.observed_breach
        and strategies_covered
        and corpus.details["forged_final_confirmations"] == 0
        and corpus.details["payload_violations"] == 0
        and collusion.ok
        and collusion.observed_breach
        and below.ok
        and not below.observed_breach
    )
    _report(
        "criterion 5 (consistency)",
        ok,
        f"{corpus.details['attempted']} forgeries, 0 confirmed "
        f"(reasons {corpus.details['rejection_reasons']}); "
        f"collusion at 7/10 stake succeeds={collusion.observed_breach}, "
        f"at 6/10 refused={below.details['prover_refused']}",
    )


def test_criterion_6_oracle_equivalence(equivalence_suite):
    """Transparent and counting backends agree on every verdict."""
    ok = (
        equivalence_suite["checked"] >= 500
        and equivalence_suite["disagreements"] == 0
    )
    _report(
        "criterion 6 (oracle equivalence)",
        ok,
        f"{equivalence_suite['checked']} statements, "
        f"{equivalence_suite['disagreements']} disagreements",
    )


def test_criterion_7_crypto_identities(bitmap_exhaustive):
    """Split-pipeline identity over 1000 messages, exhaustive aggregate
    soundness at n=5, exhaustive Merkle binding at 8 leaves."""
    rng = random.Random(777)
    split_failures = 0
    for _ in range(1000):
        msg = rng.randbytes(rng.randrange(1, 48))
        if base_to_g(hash_to_base(msg)) != hash_to_curve(msg):
            split_failures += 1

    merkle_failures = 0
    leaves = [f"acceptance-leaf-{i}".encode() for i in range(8)]
    root = merkle_root(leaves)
    for i in range(8):
        proof = merkle_prove(leaves, i)
        if not merkle_verify(root, leaves[i], proof):
            merkle_failures += 1
        for j in range(8):
            if j != i and merkle_verify(root, leaves[j], proof):
                merkle_failures += 1
        for level, (sibling, side) in enumerate(proof.path):
            bad = bytearray(sibling)
            bad[0] ^= 1
            path = list(proof.path)
            path[level] = (bytes(bad), side)
            if merkle_verify(root, leaves[i], MerkleProof(tuple(path))):
                merkle_failures += 1

    ok = (
        split_failures == 0
        and not bitmap_exhaustive["failures"]
        and merkle_failures == 0
    )
    _report(
        "criterion 7 (crypto identities)",
        ok,
        f"split identity 1000/1000; bitmaps {bitmap_exhaustive['bitmaps']} exhaustive "
        f"({len(bitmap_exhaustive['failures'])} failures); merkle {merkle_failures} failures",
    )


def test_criterion_8_economics():
    """Stake anchors: with 7M relay stake a 100K transfer reports roughly the
    published 1.3% ratio (exactly 10/7 percent), a safe margin near 4.57M,
    and headroom near 4.67M. The fee function passes its branch and
    monotonicity checks."""
    rc = StakeLedger.from_total(100, 7_000_000)
    verdict = check_tx_safety(100_000, [rc])
    report = degradation_report({"1:0": 100_000}, [rc])
    anchors_ok = (
        verdict.safe
        and abs(float(verdict.margin) - 4_566_666.67) < 1.0
        and abs(float(verdict.boundary) - 4_666_666.67) < 1.0
        and abs(report.max_ratio - 0.013) < 0.0015
    )

    cfg = PricingConfig(k=Fraction(1, 40), base_fee_rc=1, base_fee_dc=1, fee_cap=1000)
    branch_ok = (
        compute_fee(1000, cfg) == 25
        and compute_fee(10, cfg) == 2
        and compute_fee(10**6, cfg) == 1000
    )
    rng = random.Random(888)
    fee_ok = True
    for _ in range(10_000):
        k = Fraction(rng.randint(1, 99), rng.randint(100, 4000))
        if not (0 < k < 1):
            continue
        base_rc, base_dc = rng.randint(0, 50), rng.randint(0, 50)
        cap = base_rc + base_dc + rng.randint(0, 10**6)
        c = PricingConfig(k=k, base_fee_rc=base_rc, base_fee_dc=base_dc, fee_cap=cap)
        a = rng.randint(0, 10**7)
        fa = compute_fee(a, c)
        fb = compute_fee(a + rng.randint(0, 10**4), c)
        if not (c.floor <= fa <= c.fee_cap and fb >= fa):
            fee_ok = False
            break

    ok = anchors_ok and branch_ok and fee_ok
    _report(
        "criterion 8 (economics)",
        ok,
        f"margin={float(verdict.margin):,.0f} headroom={float(verdict.boundary):,.0f} "
        f"max_ratio={report.max_ratio:.4f}; fee branches and 10^4-sample monotonicity hold",
    )


def test_criterion_9_determinism(tmp_path):
    """Identical scenario and seed produce byte-identical artifacts."""
    a = tmp_path / "a"
    b = tmp_path / "b"
    harness.run(_scenario(seed=23, count=100), outdir=a)
    harness.run(_scenario(seed=23, count=100), outdir=b)
    files = ("trace.jsonl", "receipts.jsonl", "records.jsonl", "summary.json")
    same = all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    _report(
        "criterion 9 (determinism)",
        same,
        f"{len(files)} artifact files byte-identical across repeated runs",
    )
