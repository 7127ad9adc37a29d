"""BN254 pairing engine and G2 arithmetic: pinned pairing values,
bilinearity, identity handling, the product route, the operation counts of
the demo run (pairings, signatures, key decodes, line schedules built), the
line-schedule cache, the flat Fp6/Fp12 arithmetic against a schoolbook
reference, the GLV constants and `g1_mul` against a plain double-and-add,
the affine G2 ladder `g2_mul` (unreduced, so [R]Q = O tells the
subgroup apart) as the reference for the window bases and the batched
signed-window fixed-base multiplication, the norm-method Fp2 square
root against the pow-chain one, and G2 decoding from keygen's memo of its
points against the full decoder."""

import hashlib
import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from relaysim import harness
from relaysim.crypto import bls, bn254, commitment
from relaysim.crypto.bn254 import (
    FP12_ONE,
    G1_GEN,
    G2_GEN,
    P,
    R,
    U,
    fp12_conj,
    fp12_cyclotomic_sqr,
    fp12_frobenius2,
    fp12_inv,
    fp12_mul,
    fp12_pow,
    fp12_sqr,
    g1_add,
    g1_mul,
    g1_neg,
    g2_add,
    g2_from_bytes,
    g2_mul,
    g2_neg,
    g2_to_bytes,
    miller_loop,
    pairing,
    pairing_product,
)
from relaysim.crypto.hash_to_curve import hash_to_curve
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
    assert miller_loop([(None, G1_GEN)]) == FP12_ONE
    assert miller_loop([(G2_GEN, None)]) == FP12_ONE
    assert miller_loop([(None, None)]) == FP12_ONE
    assert miller_loop([]) == FP12_ONE
    assert pairing(None, G2_GEN) == FP12_ONE
    assert pairing(G1_GEN, None) == FP12_ONE


def test_pairing_product_equals_product_of_pairings():
    pairs = [(g1_mul(G1_GEN, 3), G2_GEN), (G1_GEN, g2_mul(G2_GEN, 9)), (None, G2_GEN), (G1_GEN, None)]
    expected = fp12_mul(pairing(*pairs[0]), pairing(*pairs[1]))
    assert pairing_product(pairs) == expected
    assert pairing_product([]) == FP12_ONE
    assert bn254.pairing_check([(g1_neg(g1_mul(G1_GEN, 12)), G2_GEN), pairs[0], pairs[1]])


def test_demo_run_operation_counts(monkeypatch):
    """The demo scenario decides its 4 statements in 2 two-sided checks, a
    batch of 3 and one alone, each one `pairing`, one `pairing_product` and
    so two Miller loops and two final exponentiations; it makes one
    signature per header whose signature is read (4 of the 11 produced, the
    ones proven) and one decode per validator key (15 keys on four chains).
    The pairing routes reach the Miller loop and final exponentiation, and
    chains reach `sign` and `g2_from_bytes`, through module namespaces, so
    wrapping the attributes counts every call."""
    counts = {}
    pairing_names = ("pairing", "pairing_product", "miller_loop", "final_exponentiation")
    wrapped = [(bn254, name) for name in pairing_names] + [(bls, "sign"), (commitment, "g2_from_bytes")]
    for module, name in wrapped:
        counts[name] = 0

        def counted(*args, _name=name, _fn=getattr(module, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    result = harness.run(load_scenario(DEMO))
    assert result.ok
    chains = [result.env.rc.chain, *result.env.chains.values()]
    headers = [header for chain in chains for header in chain.headers]
    signed = [header for header in headers if "point" in vars(header.agg)]
    assert len(headers) == 11
    assert counts.pop("sign") == len(signed) == 4
    assert counts == {
        "pairing": 2,
        "pairing_product": 2,
        "miller_loop": 4,
        "final_exponentiation": 4,
        "g2_from_bytes": 15,
    }


def test_demo_run_builds_one_line_schedule_per_distinct_g2_argument(monkeypatch):
    """From the cold memos of a new run the demo's 4 Miller loops run over
    6 (q, p) pairs on 5 distinct G2 points (G2_GEN and four aggregate
    keys): 5 schedules are built, and the other pair reads a cached one."""
    arguments = []

    def recording(pairs, _fn=bn254.miller_loop):
        arguments.extend(q for q, _ in pairs)
        return _fn(pairs)

    monkeypatch.setattr(bn254, "miller_loop", recording)
    assert harness.run(load_scenario(DEMO)).ok
    info = bn254._line_schedule.cache_info()
    assert len(arguments) == 6 and G2_GEN in arguments
    assert info.misses == len(set(arguments)) == 5
    assert info.hits == 1


def test_line_schedule_cache_is_keyed_on_both_coordinates():
    # -q has q's x, so a schedule cached for q must not serve -q
    p, q = g1_mul(G1_GEN, 77), g2_mul(G2_GEN, 0xC0FFEE)
    bn254._line_schedule.cache_clear()
    e_neg_cold = pairing(p, g2_neg(q))
    bn254._line_schedule.cache_clear()
    e = pairing(p, q)
    e_neg = pairing(p, g2_neg(q))
    assert e_neg == e_neg_cold
    assert fp12_mul(e, e_neg) == FP12_ONE and e != FP12_ONE
    assert bn254._line_schedule.cache_info().misses == 2


def test_miller_loop_equal_with_schedule_cache_warm_or_cleared():
    p, q = g1_mul(G1_GEN, 5), g2_mul(G2_GEN, 11)
    bn254._line_schedule.cache_clear()
    cold = miller_loop([(q, p)])
    warm = miller_loop([(q, p)])
    assert bn254._line_schedule.cache_info().hits == 1
    bn254._line_schedule.cache_clear()
    assert miller_loop([(q, p)]) == warm == cold
    info = bn254._line_schedule.cache_info()
    assert info.maxsize is not None and info.maxsize <= 16


# A schoolbook reference for the flat tower: Fp12 = Fp2[w] / (w^6 - xi),
# xi = 9 + i. The tower element ((c0, c1, c2), (c3, c4, c5)) is
# c0 + c1 v + c2 v^2 + (c3 + c4 v + c5 v^2) w with v = w^2, so its
# coefficients stand at these powers of w:
_W_POWERS = (0, 2, 4, 1, 3, 5)


def _ref_fp12_mul(a, b):
    xa, xb = [None] * 6, [None] * 6
    for k, ca, cb in zip(_W_POWERS, (c for half in a for c in half), (c for half in b for c in half)):
        xa[k], xb[k] = ca, cb
    prod = [[0, 0] for _ in range(11)]
    for i, (a0, a1) in enumerate(xa):
        for j, (b0, b1) in enumerate(xb):
            prod[i + j][0] += a0 * b0 - a1 * b1
            prod[i + j][1] += a0 * b1 + a1 * b0
    for k in range(10, 5, -1):  # w^k = xi w^(k - 6)
        r0, r1 = prod[k]
        prod[k - 6][0] += 9 * r0 - r1
        prod[k - 6][1] += r0 + 9 * r1
    out = [(c0 % P, c1 % P) for c0, c1 in prod[:6]]
    return tuple(out[k] for k in (0, 2, 4)), tuple(out[k] for k in (1, 3, 5))


coords = st.one_of(st.sampled_from([0, 1, P - 1]), st.integers(0, P - 1))
fp6s = st.tuples(*[st.tuples(coords, coords)] * 3)
fp12s = st.tuples(fp6s, fp6s)
ZERO6 = ((0, 0),) * 3
TOP12 = (((P - 1, P - 1),) * 3,) * 2


@settings(max_examples=60, deadline=None)
@given(fp12s, fp12s, coords)
@example(TOP12, TOP12, P - 1)
def test_flat_tower_matches_schoolbook_reference(a, b, y_p):
    assert fp12_mul(a, b) == _ref_fp12_mul(a, b)
    assert fp12_sqr(a) == _ref_fp12_mul(a, a)
    assert (bn254.fp6_mul(a[0], b[0]), ZERO6) == _ref_fp12_mul((a[0], ZERO6), (b[0], ZERO6))
    # the sparse line value y_P + b w + c v w
    (b0, b1), (c0, c1), _ = b[1]
    line = (((y_p, 0), (0, 0), (0, 0)), ((b0, b1), (c0, c1), (0, 0)))
    assert bn254._fp12_mul_by_line(a, b0, b1, c0, c1, y_p) == _ref_fp12_mul(a, line)


@settings(max_examples=15, deadline=None)
@given(fp12s.filter(lambda a: any(c for half in a for fp2 in half for c in fp2)))
@example(TOP12)
def test_cyclotomic_squaring_and_naf_power_after_easy_part(a):
    # f^((p^6 - 1)(p^2 + 1)) lies in the cyclotomic subgroup
    t = fp12_mul(fp12_conj(a), fp12_inv(a))
    m = fp12_mul(fp12_frobenius2(t), t)
    assert fp12_cyclotomic_sqr(m) == fp12_sqr(m)
    assert bn254._cyclotomic_pow_u(m) == fp12_pow(m, U)


def _g1_mul_reference(pt, k):
    """[k]pt by plain affine double-and-add over the bits of k mod R."""
    acc = None
    for bit in bin(k % R)[2:]:
        acc = g1_add(acc, acc)
        if bit == "1":
            acc = g1_add(acc, pt)
    return acc


GLV_BETA = 2203960485148121921418603742825762020974279258880205651966
GLV_LAMBDA = 4407920970296243842393367215006156084916469457145843978461


def test_glv_constants():
    """BETA is a non-trivial cube root of unity in Fp and LAMBDA one in Fr,
    matched so that phi(G1) = [LAMBDA]G1; the basis vectors lie in the
    lattice of (a, b) with a + b LAMBDA = 0 mod R, span it (determinant R)
    and are below 2^128."""
    assert (bn254.BETA, bn254.LAMBDA) == (GLV_BETA, GLV_LAMBDA)
    assert pow(GLV_BETA, 3, P) == 1 != GLV_BETA
    assert (GLV_LAMBDA * GLV_LAMBDA + GLV_LAMBDA + 1) % R == 0
    assert (GLV_BETA * G1_GEN[0] % P, G1_GEN[1]) == _g1_mul_reference(G1_GEN, GLV_LAMBDA)
    basis = ((bn254._GLV_A1, bn254._GLV_B1), (bn254._GLV_A2, bn254._GLV_B2))
    for a, b in basis:
        assert (a + b * GLV_LAMBDA) % R == 0
        assert abs(a) < 2**128 and abs(b) < 2**128
    (a1, b1), (a2, b2) = basis
    assert a1 * b2 - a2 * b1 == R


G1_SCALARS = (0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 2**127, 2**128 - 1, 2**128,
              R - 1, R, R + 1, GLV_LAMBDA, R - GLV_LAMBDA, 2 * R + 5)


@settings(max_examples=40, deadline=None)
@given(
    st.one_of(st.none(), st.just(G1_GEN), st.binary(min_size=1, max_size=16).map(hash_to_curve)),
    st.one_of(st.sampled_from(G1_SCALARS), st.integers(0, 2**128), st.integers(0, R - 1), st.integers(0, 2**300)),
)
@example(None, 5)
@example(G1_GEN, GLV_LAMBDA)
@example(G1_GEN, R - GLV_LAMBDA)
def test_g1_mul_matches_double_and_add(pt, k):
    """GLV with width-4 NAF digits against the plain ladder, on random
    curve points, the generator and the identity; the split halves stay
    below 2^128."""
    assert g1_mul(pt, k) == _g1_mul_reference(pt, k)
    k1, k2 = bn254._glv_split(k % R)
    assert (k1 + k2 * GLV_LAMBDA - k) % R == 0
    assert abs(k1) < 2**128 and abs(k2) < 2**128


def test_g1_mul_on_named_scalars():
    pt = hash_to_curve(b"named scalars")
    for k in G1_SCALARS:
        assert g1_mul(pt, k) == _g1_mul_reference(pt, k)
    assert g1_mul(pt, R) is None and g1_mul(pt, GLV_LAMBDA) == (GLV_BETA * pt[0] % P, pt[1])


def test_g1_mul_splits_only_a_scalar_of_2_128_or_more(monkeypatch):
    """A k below 2^128, as a batch coefficient is, takes no GLV split;
    `test_g1_mul_matches_double_and_add` draws random ones."""
    pt, splits = hash_to_curve(b"short scalars"), []

    def split(k, _fn=bn254._glv_split):
        splits.append(k)
        return _fn(k)

    monkeypatch.setattr(bn254, "_glv_split", split)
    for k in (1, 2**127, 2**128 - 1, 2**128, R - 1):
        assert g1_mul(pt, k) == _g1_mul_reference(pt, k)
    assert splits == [2**128, R - 1]


def test_g2_base_mul_matches_g2_mul():
    q = g2_mul(G2_GEN, 0xC0FFEE)
    for k in (1, 2, 3, 0xDEADBEEF, R - 1, A % R):
        assert bn254.g2_base_mul(k) == g2_mul(G2_GEN, k)
    assert g2_mul(q, 0) is None and g2_mul(q, R) is None and g2_mul(None, 5) is None
    assert bn254.g2_base_mul(R) is None
    assert g2_mul(q, R + 5) == g2_mul(q, 5)


def test_g2_mul_by_r_is_the_identity_only_inside_the_subgroup(stray_twist_point):
    stray = stray_twist_point
    assert bn254.g2_is_on_curve(stray) and g2_mul(stray, R) is not None
    for q in (G2_GEN, g2_mul(G2_GEN, 0xC0FFEE), bn254.g2_base_mul(A)):
        assert g2_mul(q, R) is None


def test_g2_mul_rejects_a_negative_scalar():
    with pytest.raises(ValueError):
        g2_mul(G2_GEN, -1)


def test_window_bases_are_powers_of_sixteen_times_g2():
    assert bn254._G2_WINDOW_BASES == [g2_mul(G2_GEN, 16**i) for i in range(len(bn254._G2_WINDOW_BASES))]
    assert bn254._G2_WINDOW_BASES_NEG == [g2_neg(q) for q in bn254._G2_WINDOW_BASES]


EDGE_SCALARS = (
    0,
    1,
    8,
    9,
    R - 1,
    R,
    R + 5,
    sum(8 * 16**i for i in range(63)),  # every signed digit +8, no carry
    16**63 - 1,  # digits -1, 0, ..., 0, 1: the carry opens the last window
)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**256))
@example(0)
@example(1)
@example(8)
@example(9)
@example(R - 1)
@example(R)
@example(R + 5)
@example(EDGE_SCALARS[7])
@example(EDGE_SCALARS[8])
def test_g2_base_mul_signed_windows_match_affine_ladder(k):
    assert bn254.g2_base_mul(k) == g2_mul(G2_GEN, k % R)


@lru_cache(maxsize=None)
def _base_ladder(k):
    return g2_mul(G2_GEN, k % R)


@st.composite
def _scalar_batches(draw):
    # 0-70 scalars drawn with repeats from a pool of fresh scalars k, their
    # R - k, and the edge scalars, so one batch holds duplicates, opposite
    # points and doublings in the running sums
    fresh = draw(st.lists(st.integers(0, 2**256), max_size=4))
    pool = [*fresh, *(R - k % R for k in fresh), *EDGE_SCALARS]
    n = draw(st.integers(0, 70))
    return draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))


@settings(max_examples=15, deadline=None)
@given(_scalar_batches())
@example(list(EDGE_SCALARS))
@example([A, R - A % R, A, 8 * 16**5, 8 * 16**5])
def test_g2_base_mul_many_matches_affine_ladder_per_scalar(ks):
    assert bn254.g2_base_mul_many(ks) == [_base_ladder(k) for k in ks]


def test_g2_base_mul_alone_equals_inside_a_batch_of_64():
    rng = random.Random(64)
    ks = [rng.randrange(R) for _ in range(64)]
    assert bn254.g2_base_mul_many(ks) == [bn254.g2_base_mul(k) for k in ks]
    assert bn254.g2_base_mul_many([]) == []


def _fp2_sqrt_reference(a):
    # reference: the complex method, by two Fp2 pow chains
    if a == bn254.FP2_ZERO:
        return bn254.FP2_ZERO
    a1 = bn254.fp2_pow(a, (P - 3) // 4)
    alpha = bn254.fp2_mul(bn254.fp2_sqr(a1), a)
    x0 = bn254.fp2_mul(a1, a)
    if alpha == (P - 1, 0):
        cand = bn254.fp2_mul((0, 1), x0)
    else:
        b = bn254.fp2_pow(bn254.fp2_add(bn254.FP2_ONE, alpha), (P - 1) // 2)
        cand = bn254.fp2_mul(b, x0)
    return cand if bn254.fp2_sqr(cand) == a else None


fp2s = st.tuples(coords, coords)


@settings(max_examples=60, deadline=None)
@given(st.one_of(fp2s, fp2s.map(bn254.fp2_sqr)))
@example((0, 0))
@example((4, 0))  # a1 = 0, a0 a square in Fp
@example((P - 1, 0))  # a1 = 0, a0 = -1 a non-square: the root is i
@example((3, 0))  # a1 = 0, 3 a non-square mod P
@example((0, 1))
def test_fp2_sqrt_matches_pow_chain_reference(a):
    root, ref = bn254.fp2_sqrt(a), _fp2_sqrt_reference(a)
    assert (root is None) == (ref is None)
    if root is not None:
        assert bn254.fp2_sqr(root) == a
        assert root in (ref, bn254.fp2_neg(ref))


@settings(max_examples=10, deadline=None)
@given(st.integers(1, R - 1))
def test_g2_decode_restores_the_point_for_both_sign_bits(k):
    q = bn254.g2_base_mul(k)
    encodings = [g2_to_bytes(q), g2_to_bytes(g2_neg(q))]
    assert {e[0] for e in encodings} == {0x02, 0x03}
    assert [g2_from_bytes(e) for e in encodings] == [q, g2_neg(q)]


def _decoded(data):
    """g2_from_bytes's point, or the type and text of its ValueError."""
    try:
        return g2_from_bytes(data)
    except ValueError as e:
        return ("ValueError", str(e))


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=1, max_size=16))
def test_a_kept_keygen_point_decodes_as_the_full_decoder_does(stray_twist_point, seed):
    """With keygen's point kept and with the memo empty, g2_from_bytes gives
    the same point or the same ValueError on a key's encoding and on its
    tampered variants, and a hit returns the kept point itself. Encoding and
    decoding points keygen did not make leave the memo as it was."""
    memo = bn254._keygen_points
    memo.cache_clear()
    kp = bls.keygen(seed)
    enc = kp.public_bytes
    c0, c1 = int.from_bytes(enc[1:33], "big"), int.from_bytes(enc[33:], "big")
    variants = [
        enc,
        bytes([enc[0] ^ 1]) + enc[1:],  # sign bit flipped
        enc[:1] + (c0 + 1).to_bytes(32, "big") + enc[33:],  # x + 1
        enc[:-1],  # truncated
        bytes(bn254.G2_ENC_LEN),  # identity
        enc[:1] + (c0 + P).to_bytes(32, "big") + enc[33:],  # x.c0 >= P
        enc[:33] + (c1 + P).to_bytes(32, "big"),  # x.c1 >= P
    ]
    filled = [_decoded(v) for v in variants]
    assert filled[0] is kp.public
    strangers = [stray_twist_point, g2_neg(kp.public), g2_mul(G2_GEN, int.from_bytes(seed, "big"))]
    for pt in strangers:
        _decoded(g2_to_bytes(pt))
    assert memo._points == {enc: kp.public}
    memo.cache_clear()
    assert [_decoded(v) for v in variants] == filled
    for pt in strangers:
        _decoded(g2_to_bytes(pt))
    assert memo._points == {}


def test_the_keygen_memo_keeps_its_newest_keys_up_to_its_bound(monkeypatch):
    """Past `maxsize` the oldest key is dropped, and its encoding then takes
    the full decode."""
    memo = bn254._keygen_points
    memo.cache_clear()
    monkeypatch.setattr(memo, "maxsize", 3)
    points = [bn254.g2_base_mul(k) for k in range(1, 5)]
    memo.keep(points)
    assert list(memo._points.values()) == points[1:]
    assert memo.get(g2_to_bytes(points[0])) is None
    assert g2_from_bytes(g2_to_bytes(points[0])) == points[0]
    memo.cache_clear()
