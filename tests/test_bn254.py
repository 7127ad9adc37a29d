"""BN254 pairing engine and G2 arithmetic: pinned pairing values,
bilinearity, identity handling, the product route, the operation counts of
the demo run (pairings, signatures, key decodes), and the Jacobian G2
ladder against an affine reference."""

import hashlib
from pathlib import Path

from relaysim import harness
from relaysim.crypto import bls, bn254, commitment
from relaysim.crypto.bn254 import (
    FP12_ONE,
    G1_GEN,
    G2_GEN,
    R,
    fp12_mul,
    fp12_pow,
    g1_add,
    g1_mul,
    g1_neg,
    g2_add,
    g2_mul,
    miller_loop,
    pairing,
    pairing_product,
)
from relaysim.scenario import load_scenario

DEMO = Path(__file__).resolve().parent.parent / "scenarios" / "demo.yaml"

# Fixed scalars for the pinned pairing of two non-generator points.
A = 0x5EED0FA11CE2024DEADBEEF0123456789ABCDEF
B = R - 0xB0B


def _digest(f) -> str:
    coeffs = [c for half in f for fp2 in half for c in fp2]
    return hashlib.sha256(b"".join(c.to_bytes(32, "big") for c in coeffs)).hexdigest()


def test_pairing_pinned_values():
    # values of the Fp12-projective engine this implementation replaced
    assert _digest(pairing(G1_GEN, G2_GEN)) == (
        "fb26b1c6e9acaab5348b05c9e7aa5e9418aa797c24f49052ae4585632b1cb52b"
    )
    assert _digest(pairing(g1_mul(G1_GEN, A), g2_mul(G2_GEN, B))) == (
        "1139e83ee3967ca4c4e7a03261bbd81531ee6efb1b21c284d109a23f87a6551b"
    )


def test_pairing_bilinear_in_each_argument_and_nondegenerate():
    e = pairing(G1_GEN, G2_GEN)
    assert e != FP12_ONE
    assert fp12_pow(e, R) == FP12_ONE
    p1, p2 = g1_mul(G1_GEN, 5), g1_mul(G1_GEN, 11)
    q1, q2 = g2_mul(G2_GEN, 7), g2_mul(G2_GEN, 13)
    assert pairing(g1_add(p1, p2), q1) == fp12_mul(pairing(p1, q1), pairing(p2, q1))
    assert pairing(p1, g2_add(q1, q2)) == fp12_mul(pairing(p1, q1), pairing(p1, q2))
    assert pairing(g1_mul(G1_GEN, 35), G2_GEN) == pairing(p1, q1)
    assert fp12_mul(pairing(g1_neg(p1), q1), pairing(p1, q1)) == FP12_ONE


def test_miller_loop_of_identity_is_one():
    assert miller_loop(None, G1_GEN) == FP12_ONE
    assert miller_loop(G2_GEN, None) == FP12_ONE
    assert miller_loop(None, None) == FP12_ONE
    assert pairing(None, G2_GEN) == FP12_ONE
    assert pairing(G1_GEN, None) == FP12_ONE


def test_pairing_product_equals_product_of_pairings():
    pairs = [(g1_mul(G1_GEN, 3), G2_GEN), (G1_GEN, g2_mul(G2_GEN, 9)), (None, G2_GEN), (G1_GEN, None)]
    expected = fp12_mul(pairing(*pairs[0]), pairing(*pairs[1]))
    assert pairing_product(pairs) == expected
    assert pairing_product([]) == FP12_ONE
    assert bn254.pairing_check([(g1_neg(g1_mul(G1_GEN, 12)), G2_GEN), pairs[0], pairs[1]])


def test_demo_run_operation_counts(monkeypatch):
    """The demo scenario costs exactly 8 pairings, one signature per
    produced header and one decode per validator key (15 keys on four
    chains). The pairing routes reach the Miller loop and final
    exponentiation, and chains reach `sign` and `g2_from_bytes`, through
    module namespaces, so wrapping the attributes counts every call."""
    counts = {}
    pairing_names = ("pairing", "pairing_product", "miller_loop", "final_exponentiation")
    wrapped = [(bn254, name) for name in pairing_names] + [(bls, "sign"), (commitment, "g2_from_bytes")]
    for module, name in wrapped:
        counts[name] = 0

        def counted(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    bls._pairing_equal_cached.cache_clear()
    bls._pairing_product_cached.cache_clear()
    result = harness.run(load_scenario(DEMO))
    assert result.ok
    chains = [result.env.rc.chain, *result.env.chains.values()]
    headers = sum(len(chain.headers) for chain in chains)
    assert counts.pop("sign") == headers == 11
    assert counts == {
        "pairing": 8,
        "pairing_product": 0,
        "miller_loop": 8,
        "final_exponentiation": 8,
        "g2_from_bytes": 15,
    }


def _twist_point_outside_subgroup():
    for k in range(1, 100):
        x = (k, 1)
        y = bn254.fp2_sqrt(bn254.fp2_add(bn254.fp2_mul(bn254.fp2_sqr(x), x), bn254.B2))
        if y is not None:
            return (x, y)
    raise AssertionError("no twist point found")


def _affine_ladder(pt, k):
    # reference for the Jacobian ladder: affine double-and-add
    acc = None
    for bit in bin(k)[2:]:
        acc = g2_add(acc, acc)
        if bit == "1":
            acc = g2_add(acc, pt)
    return acc


def test_g2_jacobian_multiplication_matches_affine_ladder():
    q = g2_mul(G2_GEN, 0xC0FFEE)
    stray = _twist_point_outside_subgroup()
    for k in (1, 2, 3, 0xDEADBEEF, R - 1, A % R):
        assert g2_mul(q, k) == _affine_ladder(q, k)
        assert bn254.g2_base_mul(k) == _affine_ladder(G2_GEN, k)
        assert g2_mul(stray, k) == _affine_ladder(stray, k)
    assert g2_mul(q, 0) is None and g2_mul(q, R) is None and g2_mul(None, 5) is None
    assert bn254.g2_base_mul(R) is None
    assert g2_mul(q, R + 5) == g2_mul(q, 5)
