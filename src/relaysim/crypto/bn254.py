"""BN254 (alt_bn128) field towers, curve groups, and the optimal ate pairing.

Pure-Python arithmetic tuned for simulation scale: field elements are ints
(Fp) and nested tuples (Fp2/Fp6/Fp12), points are affine tuples with None
as the identity. G1 is the prime-order curve y^2 = x^3 + 3 over Fp (cofactor
one), G2 the order-r subgroup of the sextic twist over Fp2. Signatures live
in G1, public keys in G2.

The Miller loop runs over a list of (G2, G1) pairs and squares once per
step for all of them, so a product of pairings shares its squarings as well
as its final exponentiation. It walks the NAF of 6U + 2, whose 21 non-zero
digits after the leading one take 21 addition steps where the binary digits
took 36; a digit -1 adds -Q, and the vertical lines this changes lie in Fp6
and vanish in the final exponentiation, so every pairing value is the one
the binary loop gives. Each G2 argument's line schedule is built once
per point with the running point on the twist and kept in a small LRU cache
keyed on the point's affine coordinates (Costello-Stebila 2010), and is
evaluated at its G1 argument as sparse line values (Beuchat et al. 2010).
Fp6 and Fp12 products and squarings work on the int coordinates and reduce
once per output coordinate (Aranha et al. 2011). The final exponentiation
squares in the cyclotomic subgroup (Granger-Scott 2010) and raises to U
over U's width-4 NAF digits: 13 multiplications by a table of a, a^3, a^5
and a^7, where the NAF took 23, inverting by conjugation.

G1 scalar multiplication g1_mul uses the GLV endomorphism (Gallant, Lambert
and Vanstone, CRYPTO 2001) phi(x, y) = (BETA x, y) = [LAMBDA](x, y): k is
split by a reduced lattice basis into two halves of about 128 bits (a k
below 2^128 is used whole), and one pass of Jacobian doublings adds the
width-4 NAF digits of both halves from the odd multiples P, 3P, 5P, 7P,
made affine with one inversion, and their images under phi. That is about
128 doublings and 52 additions, where double-and-add took 254 and 127. It
is exact on the curve, which is all of G1 (cofactor one).

The general G2 scalar multiplication g2_mul is affine double-and-add, with
no reduction of the scalar mod R. The fixed-base g2_base_mul_many, which
makes every public key, recodes each scalar into signed 4-bit windows and
sums bases [16^i]G2 by digit size (Brickell-Gordon-McCurley-Wilson,
EUROCRYPT 1992): about 68 additions per key, no doublings. It adds in
affine coordinates, a batch at a time: every addition of one step, across
the buckets of every scalar, shares one field inversion (Montgomery's
simultaneous inversion, Math. Comp. 1987), which leaves an addition about
half the int work of a Jacobian mixed one. The bases themselves are built
once, at import, by Jacobian doublings on six ints. Public-key aggregation sums
through the same batch adder. Key decompression takes its Fp2 square root
by the norm method for p = 3 mod 4 (Adj and Rodriguez-Henriquez, IEEE
Trans. Computers 2014), which moves the exponentiations into Fp, where
they are the builtin pow; a key that keygen made in this run takes none,
since keygen leaves its points in a memo g2_from_bytes reads first.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

# Curve parameters. p and r are the base-field and group orders generated by
# the BN construction from the seed U.
U = 4965661367192848881
P = 21888242871839275222246405745257275088696311157297823662689037894645226208583
R = 21888242871839275222246405745257275088548364400416034343698204186575808495617
ATE_LOOP_COUNT = 6 * U + 2

Fp2 = Tuple[int, int]
Fp6 = Tuple[Fp2, Fp2, Fp2]
Fp12 = Tuple[Fp6, Fp6]
G1Point = Optional[Tuple[int, int]]
G2Point = Optional[Tuple[Fp2, Fp2]]

B1 = 3  # G1: y^2 = x^3 + 3

# ---------------------------------------------------------------------------
# Fp2 = Fp[i] / (i^2 + 1)

FP2_ZERO: Fp2 = (0, 0)
FP2_ONE: Fp2 = (1, 0)
XI: Fp2 = (9, 1)  # sextic twist constant 9 + i


def fp2_add(a: Fp2, b: Fp2) -> Fp2:
    return ((a[0] + b[0]) % P, (a[1] + b[1]) % P)


def fp2_sub(a: Fp2, b: Fp2) -> Fp2:
    return ((a[0] - b[0]) % P, (a[1] - b[1]) % P)


def fp2_neg(a: Fp2) -> Fp2:
    return (-a[0] % P, -a[1] % P)


def fp2_mul(a: Fp2, b: Fp2) -> Fp2:
    a0, a1 = a
    b0, b1 = b
    t0 = a0 * b0
    t1 = a1 * b1
    t2 = (a0 + a1) * (b0 + b1)
    return ((t0 - t1) % P, (t2 - t0 - t1) % P)


def fp2_sqr(a: Fp2) -> Fp2:
    a0, a1 = a
    # (a0 + a1 i)^2 = (a0+a1)(a0-a1) + 2 a0 a1 i
    return ((a0 + a1) * (a0 - a1) % P, 2 * a0 * a1 % P)


def fp2_scalar(a: Fp2, k: int) -> Fp2:
    return (a[0] * k % P, a[1] * k % P)


def fp2_conj(a: Fp2) -> Fp2:
    return (a[0], -a[1] % P)


def fp2_inv(a: Fp2) -> Fp2:
    a0, a1 = a
    norm = (a0 * a0 + a1 * a1) % P
    inv = pow(norm, -1, P)
    return (a0 * inv % P, -a1 * inv % P)


def fp2_pow(a: Fp2, e: int) -> Fp2:
    result = FP2_ONE
    base = a
    while e:
        if e & 1:
            result = fp2_mul(result, base)
        base = fp2_sqr(base)
        e >>= 1
    return result


def fp2_mul_xi(a: Fp2) -> Fp2:
    # multiply by 9 + i
    a0, a1 = a
    return ((9 * a0 - a1) % P, (9 * a1 + a0) % P)


_SQRT_EXP = (P + 1) // 4  # t^_SQRT_EXP squares to t or, for a non-square t, to -t
_HALF = (P + 1) // 2


def fp2_sqrt(a: Fp2) -> Optional[Fp2]:
    """Square root in Fp2 by the norm method for p = 3 mod 4; None if a is
    not a square. Two exponentiations and one inversion in Fp, each the
    builtin pow."""
    a0, a1 = a
    if a1 == 0:
        # -1 is not a square mod p, so a0 or -a0 is: a0 = t^2 or a0 = (t i)^2
        t = pow(a0, _SQRT_EXP, P)
        return (t, 0) if t * t % P == a0 else (0, t)
    # (x0 + x1 i)^2 = a iff x0^2 - x1^2 = a0 and 2 x0 x1 = a1; then x0^2 is
    # one of (a0 +- g)/2, g^2 = a0^2 + a1^2 the norm, which must be a square
    n = (a0 * a0 + a1 * a1) % P
    g = pow(n, _SQRT_EXP, P)
    if g * g % P != n:
        return None
    # The two candidates multiply to -a1^2/4, a non-square, so exactly one is
    # a square. If d is not, t = d^_SQRT_EXP has t^2 = -d, and the other
    # candidate (a1^2/4)/t^2 is the square of a1/(2t).
    d = (a0 + g) * _HALF % P
    t = pow(d, _SQRT_EXP, P)
    if t * t % P == d:
        return (t, a1 * pow(2 * t, -1, P) % P)
    return (a1 * pow(2 * t, -1, P) % P, t)


# Twist curve constant: y^2 = x^3 + 3/(9+i).
B2: Fp2 = fp2_mul((3, 0), fp2_inv(XI))

# ---------------------------------------------------------------------------
# Fp6 = Fp2[v] / (v^3 - xi)

FP6_ZERO: Fp6 = (FP2_ZERO, FP2_ZERO, FP2_ZERO)
FP6_ONE: Fp6 = (FP2_ONE, FP2_ZERO, FP2_ZERO)


def fp6_sub(a: Fp6, b: Fp6) -> Fp6:
    return (fp2_sub(a[0], b[0]), fp2_sub(a[1], b[1]), fp2_sub(a[2], b[2]))


def fp6_neg(a: Fp6) -> Fp6:
    return (fp2_neg(a[0]), fp2_neg(a[1]), fp2_neg(a[2]))


def _fp6_mul_raw(a, b):
    """a * b for a = A0 + A1 v + A2 v^2 written as the six ints (A0.re, A0.im,
    A1.re, A1.im, A2.re, A2.im), b likewise; Karatsuba over Fp6 and over Fp2,
    18 int products. Inputs may be unreduced; so is the result, which the
    caller reduces once per output coordinate."""
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3, b4, b5 = b
    m, n = a0 * b0, a1 * b1
    t0r, t0i = m - n, (a0 + a1) * (b0 + b1) - m - n
    m, n = a2 * b2, a3 * b3
    t1r, t1i = m - n, (a2 + a3) * (b2 + b3) - m - n
    m, n = a4 * b4, a5 * b5
    t2r, t2i = m - n, (a4 + a5) * (b4 + b5) - m - n
    # T_i = A_i B_i; coefficient 0 is T0 + xi ((A1 + A2)(B1 + B2) - T1 - T2)
    x0, x1, y0, y1 = a2 + a4, a3 + a5, b2 + b4, b3 + b5
    m, n = x0 * y0, x1 * y1
    sr = m - n - t1r - t2r
    si = (x0 + x1) * (y0 + y1) - m - n - t1i - t2i
    c0, c1 = t0r + 9 * sr - si, t0i + 9 * si + sr
    # coefficient 1: (A0 + A1)(B0 + B1) - T0 - T1 + xi T2
    x0, x1, y0, y1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    m, n = x0 * y0, x1 * y1
    c2 = m - n - t0r - t1r + 9 * t2r - t2i
    c3 = (x0 + x1) * (y0 + y1) - m - n - t0i - t1i + 9 * t2i + t2r
    # coefficient 2: (A0 + A2)(B0 + B2) - T0 - T2 + T1
    x0, x1, y0, y1 = a0 + a4, a1 + a5, b0 + b4, b1 + b5
    m, n = x0 * y0, x1 * y1
    c4 = m - n - t0r - t2r + t1r
    c5 = (x0 + x1) * (y0 + y1) - m - n - t0i - t2i + t1i
    return c0, c1, c2, c3, c4, c5


def fp6_mul(a: Fp6, b: Fp6) -> Fp6:
    (a0, a1), (a2, a3), (a4, a5) = a
    (b0, b1), (b2, b3), (b4, b5) = b
    c0, c1, c2, c3, c4, c5 = _fp6_mul_raw((a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5))
    return ((c0 % P, c1 % P), (c2 % P, c3 % P), (c4 % P, c5 % P))


def fp6_sqr(a: Fp6) -> Fp6:
    return fp6_mul(a, a)


def fp6_scalar(a: Fp6, k: Fp2) -> Fp6:
    return (fp2_mul(a[0], k), fp2_mul(a[1], k), fp2_mul(a[2], k))


def fp6_mul_v(a: Fp6) -> Fp6:
    # multiply by v: (a0, a1, a2) -> (xi*a2, a0, a1)
    return (fp2_mul_xi(a[2]), a[0], a[1])


def fp6_inv(a: Fp6) -> Fp6:
    a0, a1, a2 = a
    c0 = fp2_sub(fp2_sqr(a0), fp2_mul_xi(fp2_mul(a1, a2)))
    c1 = fp2_sub(fp2_mul_xi(fp2_sqr(a2)), fp2_mul(a0, a1))
    c2 = fp2_sub(fp2_sqr(a1), fp2_mul(a0, a2))
    t = fp2_add(fp2_mul_xi(fp2_add(fp2_mul(a2, c1), fp2_mul(a1, c2))), fp2_mul(a0, c0))
    t_inv = fp2_inv(t)
    return (fp2_mul(c0, t_inv), fp2_mul(c1, t_inv), fp2_mul(c2, t_inv))


# ---------------------------------------------------------------------------
# Fp12 = Fp6[w] / (w^2 - v)

FP12_ONE: Fp12 = (FP6_ONE, FP6_ZERO)


def _fp12_karatsuba(t, u, s) -> Fp12:
    """(t + v u) + (s - t - u) w, reduced, from the unreduced Fp6 products
    t = a0 b0, u = a1 b1 and s = (a0 + a1)(b0 + b1) of a Karatsuba Fp12
    product (w^2 = v); v (u0, u1, u2) = (xi u2, u0, u1)."""
    t0, t1, t2, t3, t4, t5 = t
    u0, u1, u2, u3, u4, u5 = u
    s0, s1, s2, s3, s4, s5 = s
    return (
        ((t0 + 9 * u4 - u5) % P, (t1 + 9 * u5 + u4) % P),
        ((t2 + u0) % P, (t3 + u1) % P),
        ((t4 + u2) % P, (t5 + u3) % P),
    ), (
        ((s0 - t0 - u0) % P, (s1 - t1 - u1) % P),
        ((s2 - t2 - u2) % P, (s3 - t3 - u3) % P),
        ((s4 - t4 - u4) % P, (s5 - t5 - u5) % P),
    )


def fp12_mul(a: Fp12, b: Fp12) -> Fp12:
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    ((b0, b1), (b2, b3), (b4, b5)), ((b6, b7), (b8, b9), (b10, b11)) = b
    return _fp12_karatsuba(
        _fp6_mul_raw((a0, a1, a2, a3, a4, a5), (b0, b1, b2, b3, b4, b5)),
        _fp6_mul_raw((a6, a7, a8, a9, a10, a11), (b6, b7, b8, b9, b10, b11)),
        _fp6_mul_raw(
            (a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11),
            (b0 + b6, b1 + b7, b2 + b8, b3 + b9, b4 + b10, b5 + b11),
        ),
    )


def fp12_sqr(a: Fp12) -> Fp12:
    # (a0 + a1 w)^2 = ((a0 + a1)(a0 + v a1) - t - v t) + 2t w, t = a0 a1
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    t0, t1, t2, t3, t4, t5 = _fp6_mul_raw((a0, a1, a2, a3, a4, a5), (a6, a7, a8, a9, a10, a11))
    s0, s1, s2, s3, s4, s5 = _fp6_mul_raw(
        (a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11),
        (a0 + 9 * a10 - a11, a1 + 9 * a11 + a10, a2 + a6, a3 + a7, a4 + a8, a5 + a9),
    )
    return (
        ((s0 - t0 - 9 * t4 + t5) % P, (s1 - t1 - 9 * t5 - t4) % P),
        ((s2 - t2 - t0) % P, (s3 - t3 - t1) % P),
        ((s4 - t4 - t2) % P, (s5 - t5 - t3) % P),
    ), (
        (2 * t0 % P, 2 * t1 % P),
        (2 * t2 % P, 2 * t3 % P),
        (2 * t4 % P, 2 * t5 % P),
    )


def fp12_conj(a: Fp12) -> Fp12:
    # conjugation over Fp6 = Frobenius p^6
    return (a[0], fp6_neg(a[1]))


def fp12_inv(a: Fp12) -> Fp12:
    a0, a1 = a
    t = fp6_sub(fp6_sqr(a0), fp6_mul_v(fp6_sqr(a1)))
    t_inv = fp6_inv(t)
    return (fp6_mul(a0, t_inv), fp6_neg(fp6_mul(a1, t_inv)))


def fp12_pow(a: Fp12, e: int) -> Fp12:
    result = FP12_ONE
    base = a
    while e:
        if e & 1:
            result = fp12_mul(result, base)
        base = fp12_sqr(base)
        e >>= 1
    return result


# Frobenius coefficients, derived from xi at import time.
_G_V = fp2_pow(XI, (P - 1) // 3)   # v^p = gamma_v * v
_G_V2 = fp2_sqr(_G_V)              # v^(2p) factor
_G_W = fp2_pow(XI, (P - 1) // 6)   # w^p = gamma_w * w


def fp6_frobenius(a: Fp6) -> Fp6:
    return (fp2_conj(a[0]), fp2_mul(fp2_conj(a[1]), _G_V), fp2_mul(fp2_conj(a[2]), _G_V2))


def fp12_frobenius(a: Fp12) -> Fp12:
    c0 = fp6_frobenius(a[0])
    c1 = fp6_frobenius(a[1])
    return (c0, fp6_scalar(c1, _G_W))


def fp12_frobenius2(a: Fp12) -> Fp12:
    return fp12_frobenius(fp12_frobenius(a))


# ---------------------------------------------------------------------------
# Group arithmetic: affine tuples, Jacobian internals.


def g1_is_on_curve(pt: G1Point) -> bool:
    if pt is None:
        return True
    x, y = pt
    return 0 <= x < P and 0 <= y < P and (y * y - x * x * x - B1) % P == 0


def g1_neg(pt: G1Point) -> G1Point:
    if pt is None:
        return None
    return (pt[0], -pt[1] % P)


def g1_add(a: G1Point, b: G1Point) -> G1Point:
    if a is None:
        return b
    if b is None:
        return a
    x1, y1 = a
    x2, y2 = b
    if x1 == x2:
        if (y1 + y2) % P == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, P) % P
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, P) % P
    x3 = (lam * lam - x1 - x2) % P
    y3 = (lam * (x1 - x3) - y1) % P
    return (x3, y3)


def _g1_jac_double(X, Y, Z):
    if Y == 0:
        return (0, 1, 0)
    A = X * X % P
    B = Y * Y % P
    C = B * B % P
    D = 2 * ((X + B) * (X + B) - A - C) % P
    E = 3 * A % P
    F = E * E % P
    X3 = (F - 2 * D) % P
    Y3 = (E * (D - X3) - 8 * C) % P
    Z3 = 2 * Y * Z % P
    return (X3, Y3, Z3)


def _g1_jac_add_affine(X1, Y1, Z1, x2, y2):
    # mixed addition, (x2, y2) affine
    if Z1 == 0:
        return (x2, y2, 1)
    Z1Z1 = Z1 * Z1 % P
    U2 = x2 * Z1Z1 % P
    S2 = y2 * Z1 * Z1Z1 % P
    if U2 == X1 and S2 == Y1:
        return _g1_jac_double(X1, Y1, Z1)
    H = (U2 - X1) % P
    if H == 0 and (S2 - Y1) % P != 0:
        return (0, 1, 0)
    HH = H * H % P
    I = 4 * HH % P
    J = H * I % P
    rr = 2 * (S2 - Y1) % P
    V = X1 * I % P
    X3 = (rr * rr - J - 2 * V) % P
    Y3 = (rr * (V - X3) - 2 * Y1 * J) % P
    Z3 = 2 * Z1 * H % P
    return (X3, Y3, Z3)


def _g1_jac_to_affine(X, Y, Z) -> G1Point:
    if Z == 0:
        return None
    zi = pow(Z, -1, P)
    zi2 = zi * zi % P
    return (X * zi2 % P, Y * zi2 % P * zi % P)


# GLV (Gallant-Lambert-Vanstone, CRYPTO 2001): BETA is a cube root of unity
# in Fp and LAMBDA one in Fr such that phi(x, y) = (BETA x, y) = [LAMBDA](x, y)
# on G1. _GLV_A1.._GLV_B2 are a reduced basis (a1, b1), (a2, b2) of the
# lattice {(a, b) : a + b LAMBDA = 0 mod R}, with a1 b2 - a2 b1 = R; each
# entry is below 2^128 (they are 2U + 1, 6U^2 + 2U and 6U^2 + 4U + 1).
BETA = 2203960485148121921418603742825762020974279258880205651966
LAMBDA = 4407920970296243842393367215006156084916469457145843978461
_GLV_A1, _GLV_B1 = 2 * U + 1, -(6 * U * U + 2 * U)
_GLV_A2, _GLV_B2 = 6 * U * U + 4 * U + 1, 2 * U + 1


def _glv_split(k: int) -> Tuple[int, int]:
    """(k1, k2) with k1 + k2 LAMBDA = k mod R and |k1|, |k2| < 2^128, for
    0 <= k < R: (k, 0) minus the lattice vector that rounding its
    coordinates in the basis gives (Babai's rounding)."""
    c1 = (2 * _GLV_B2 * k + R) // (2 * R)  # round(b2 k / R)
    c2 = (-2 * _GLV_B1 * k + R) // (2 * R)  # round(-b1 k / R)
    return k - c1 * _GLV_A1 - c2 * _GLV_A2, -c1 * _GLV_B1 - c2 * _GLV_B2


def _wnaf(k: int, width: int) -> List[int]:
    """The width-`width` NAF of k, least significant digit first: odd
    digits below 2^(width - 1) in absolute value, each non-zero one followed
    by at least width - 1 zeros; negated for k < 0. Width 2 is the NAF."""
    sign, k = (-1, -k) if k < 0 else (1, k)
    mask, half = (1 << width) - 1, 1 << (width - 1)
    digits = []
    while k:
        d = 0
        if k & 1:
            d = k & mask
            if d > half:
                d -= mask + 1
            k -= d
        digits.append(sign * d)
        k >>= 1
    return digits


def _g1_odd_multiples(x: int, y: int) -> List[Tuple[int, int]]:
    """[P, 3P, 5P, 7P] in affine coordinates for P = (x, y) on the curve:
    3P = 2P + P, 5P = 4P + P and 7P = 8P - P in Jacobian coordinates, then
    made affine together with one inversion (Montgomery's trick)."""
    d2 = _g1_jac_double(x, y, 1)
    d4 = _g1_jac_double(*d2)
    jac = (_g1_jac_add_affine(*d2, x, y), _g1_jac_add_affine(*d4, x, y),
           _g1_jac_add_affine(*_g1_jac_double(*d4), x, -y % P))
    z3, z5, z7 = jac[0][2], jac[1][2], jac[2][2]
    inv = pow(z3 * z5 % P * z7 % P, -1, P)
    zinv = (inv * z5 % P * z7 % P, inv * z3 % P * z7 % P, inv * z3 % P * z5 % P)
    out = [(x, y)]
    for (X, Y, _), zi in zip(jac, zinv):
        zi2 = zi * zi % P
        out.append((X * zi2 % P, Y * zi2 % P * zi % P))
    return out


def g1_mul(pt: G1Point, k: int) -> G1Point:
    """[k]pt for pt on the curve, k reduced mod R. GLV splits k into two
    halves of about 128 bits, k = k1 + k2 LAMBDA mod R, and one pass of
    about 128 doublings adds the width-4 NAF digits of k1 from the odd
    multiples of pt and those of k2 from their images under phi, which
    cost one multiplication by BETA each. A k below 2^128, as a batch
    coefficient is, is already that short: it is its own k1 with k2 = 0,
    where a split could leave a second half of about 64 bits. The result
    is exact only on the curve, where phi is multiplication by LAMBDA: G1's
    cofactor is 1, so every curve point qualifies, and `bls` checks points
    on the curve before a batch multiplies them."""
    k %= R
    if pt is None or k == 0:
        return None
    k1, k2 = _glv_split(k) if k >> 128 else (k, 0)
    odd = _g1_odd_multiples(*pt)
    tables = []
    for points in (odd, [(BETA * x % P, y) for x, y in odd] if k2 else []):
        table: List[Optional[Tuple[int, int]]] = [None] * 16  # indexed by digit: -d reads table[16 - d]
        for d, (x, y) in zip((1, 3, 5, 7), points):
            table[d], table[-d] = (x, y), (x, P - y)
        tables.append(table)
    n1, n2 = _wnaf(k1, 4), _wnaf(k2, 4)
    n = max(len(n1), len(n2))
    n1 += [0] * (n - len(n1))
    n2 += [0] * (n - len(n2))
    t1, t2 = tables
    X, Y, Z = 0, 1, 0
    for i in range(n - 1, -1, -1):
        if Z:
            # dbl-2009-l, inline
            A = X * X % P
            B = Y * Y % P
            C = B * B % P
            D = 2 * ((X + B) * (X + B) - A - C) % P
            E = 3 * A
            Z = 2 * Y * Z % P
            X = (E * E - 2 * D) % P
            Y = (E * (D - X) - 8 * C) % P
        for d, table in ((n1[i], t1), (n2[i], t2)):
            if not d:
                continue
            x2, y2 = table[d]
            if not Z:
                X, Y, Z = x2, y2, 1
                continue
            # madd-2007-bl, inline; equal x coordinates (a doubling or a
            # point plus its negation) take the general addition
            ZZ = Z * Z % P
            H = (x2 * ZZ - X) % P
            if not H:
                X, Y, Z = _g1_jac_add_affine(X, Y, Z, x2, y2)
                continue
            rr = 2 * (y2 * Z * ZZ - Y) % P
            HH = H * H % P
            I = 4 * HH
            J = H * I % P
            V = X * I % P
            Z = 2 * Z * H % P
            X = (rr * rr - J - 2 * V) % P
            Y = (rr * (V - X) - 2 * Y * J) % P
    return _g1_jac_to_affine(X, Y, Z)


def g2_is_on_curve(pt: G2Point) -> bool:
    if pt is None:
        return True
    x, y = pt
    if not all(0 <= c < P for c in (*x, *y)):
        return False
    return fp2_sqr(y) == fp2_add(fp2_mul(fp2_sqr(x), x), B2)


def g2_neg(pt: G2Point) -> G2Point:
    if pt is None:
        return None
    return (pt[0], fp2_neg(pt[1]))


def _g2_add_slope(a: G2Point, b: G2Point) -> Tuple[G2Point, Optional[Fp2]]:
    """a + b, and the slope of the line through a and b (the tangent when
    a == b); the slope is None when that line is vertical or a summand is
    the identity."""
    if a is None:
        return b, None
    if b is None:
        return a, None
    x1, y1 = a
    x2, y2 = b
    if x1 == x2:
        if fp2_add(y1, y2) == FP2_ZERO:
            return None, None
        lam = fp2_mul(fp2_scalar(fp2_sqr(x1), 3), fp2_inv(fp2_scalar(y1, 2)))
    else:
        lam = fp2_mul(fp2_sub(y2, y1), fp2_inv(fp2_sub(x2, x1)))
    x3 = fp2_sub(fp2_sub(fp2_sqr(lam), x1), x2)
    y3 = fp2_sub(fp2_mul(lam, fp2_sub(x1, x3)), y1)
    return (x3, y3), lam


def g2_add(a: G2Point, b: G2Point) -> G2Point:
    return _g2_add_slope(a, b)[0]


# Jacobian G2 points are six reduced ints (X.re, X.im, Y.re, Y.im, Z.re, Z.im)
# for (X/Z^2, Y/Z^3), Z = 0 the identity. Their doubling builds the window
# bases below, at import; every Fp2 product in it is an inline Karatsuba on
# the ints, three int products, reduced once per output coordinate.
_G2_JAC_INF = (1, 0, 1, 0, 0, 0)


def _g2_jac_double(a):
    # dbl-2009-l, for the curve coefficient a = 0
    X0, X1, Y0, Y1, Z0, Z1 = a
    if not (Z0 or Z1) or not (Y0 or Y1):
        return _G2_JAC_INF
    A0, A1 = (X0 + X1) * (X0 - X1) % P, 2 * X0 * X1 % P  # A = X^2
    B0, B1 = (Y0 + Y1) * (Y0 - Y1) % P, 2 * Y0 * Y1 % P  # B = Y^2
    C0, C1 = (B0 + B1) * (B0 - B1) % P, 2 * B0 * B1 % P  # C = B^2
    s0, s1 = X0 + B0, X1 + B1  # D = 2 ((X + B)^2 - A - C)
    D0 = 2 * ((s0 + s1) * (s0 - s1) - A0 - C0) % P
    D1 = 2 * (2 * s0 * s1 - A1 - C1) % P
    E0, E1 = 3 * A0, 3 * A1  # X3 = E^2 - 2 D, E = 3 A
    X30 = ((E0 + E1) * (E0 - E1) - 2 * D0) % P
    X31 = (2 * E0 * E1 - 2 * D1) % P
    s0, s1 = D0 - X30, D1 - X31  # Y3 = E (D - X3) - 8 C
    m, n = E0 * s0, E1 * s1
    Y30 = (m - n - 8 * C0) % P
    Y31 = ((E0 + E1) * (s0 + s1) - m - n - 8 * C1) % P
    m, n = Y0 * Z0, Y1 * Z1  # Z3 = 2 Y Z
    return (X30, X31, Y30, Y31, 2 * (m - n) % P, 2 * ((Y0 + Y1) * (Z0 + Z1) - m - n) % P)


def _g2_jac_to_affine(a) -> G2Point:
    X0, X1, Y0, Y1, Z0, Z1 = a
    if not (Z0 or Z1):
        return None
    zi = fp2_inv((Z0, Z1))
    zi2 = fp2_sqr(zi)
    return (fp2_mul((X0, X1), zi2), fp2_mul(fp2_mul((Y0, Y1), zi2), zi))


def g2_mul(pt: G2Point, k: int) -> G2Point:
    """[k]pt for k >= 0 by affine double-and-add. k is not reduced mod R,
    so [R]pt is the identity only for pt in the order-R subgroup."""
    if k < 0:
        raise ValueError(f"negative scalar {k}")
    acc = None
    for bit in bin(k)[2:]:
        acc = g2_add(acc, acc)
        if bit == "1":
            acc = g2_add(acc, pt)
    return acc


# Generators. G2 coordinates are the standard alt_bn128 values.
G1_GEN: G1Point = (1, 2)
G2_GEN: G2Point = (
    (
        10857046999023057135944570762232829481370756359578518086990519993285655852781,
        11559732032986387107991004021392285783925812861821192530917403151452391805634,
    ),
    (
        8495653923123431417604973247489272438418190587263600148770280649306958101930,
        4082367875863433681332203403145435568316851327593401208105741076214120093531,
    ),
)

assert g1_is_on_curve(G1_GEN)
assert g2_is_on_curve(G2_GEN)


def _add_all(ps: Sequence[G2Point], qs: Sequence[G2Point]) -> List[G2Point]:
    """[g2_add(p, q) for p, q in zip(ps, qs)]. The lanes whose x coordinates
    differ share one inversion (Montgomery, Math. Comp. 1987): the prefix
    products of their Fp norms N(d) = d0^2 + d1^2, d = x2 - x1, are inverted
    once, and walking back from the last lane peels off each 1/N(d), so
    1/d = conj(d)/N(d). Equal x coordinates, a doubling or a point plus its
    negation, take g2_add."""
    out = list(ps)
    lanes = []  # the lanes that share the inversion
    before = []  # per such lane, the product of the norms of the lanes before it
    acc = 1
    for i, (p, q) in enumerate(zip(ps, qs)):
        if p is None:
            out[i] = q
        elif q is not None:
            d0, d1 = q[0][0] - p[0][0], q[0][1] - p[0][1]
            if d0 or d1:
                lanes.append(i)
                before.append(acc)
                acc = acc * (d0 * d0 + d1 * d1) % P
            else:
                out[i] = g2_add(p, q)
    inv = pow(acc, -1, P)
    for k in range(len(lanes) - 1, -1, -1):
        i = lanes[k]
        (x10, x11), (y10, y11) = ps[i]
        (x20, x21), (y20, y21) = qs[i]
        d0, d1 = x20 - x10, x21 - x11
        n_inv = inv * before[k] % P
        inv = inv * (d0 * d0 + d1 * d1) % P
        e0, e1 = y20 - y10, y21 - y11  # lam = e conj(d) / N(d)
        l0 = (e0 * d0 + e1 * d1) * n_inv % P
        l1 = (e1 * d0 - e0 * d1) * n_inv % P
        x30 = ((l0 + l1) * (l0 - l1) - x10 - x20) % P
        x31 = (2 * l0 * l1 - x11 - x21) % P
        s0, s1 = x10 - x30, x11 - x31
        out[i] = ((x30, x31), ((l0 * s0 - l1 * s1 - y10) % P, (l0 * s1 + l1 * s0 - y11) % P))
    return out


def g2_sum(points: Sequence[G2Point]) -> G2Point:
    """The sum of the points (None for an empty list), by pairwise halving:
    each round adds the first half to the second in one _add_all, so n
    points take ceil(log2 n) inversions."""
    pts = list(points)
    while len(pts) > 1:
        half = len(pts) // 2
        pts = _add_all(pts[:half], pts[half:2 * half]) + pts[2 * half:]
    return pts[0] if pts else None


# Fixed-base multiplication by signed 4-bit windows (Brickell-Gordon-
# McCurley-Wilson): k = sum d_i 16^i with d_i in [-7, 8] has at most
# bit_length // 4 + 1 digits, one affine base [16^i]G2 per digit position,
# kept with its negation for the negative digits.
_G2_WINDOW_BASES: List[G2Point] = [G2_GEN]
for _ in range(R.bit_length() // 4):
    (_x0, _x1), (_y0, _y1) = _G2_WINDOW_BASES[-1]
    _acc = (_x0, _x1, _y0, _y1, 1, 0)
    for _ in range(4):
        _acc = _g2_jac_double(_acc)
    _G2_WINDOW_BASES.append(_g2_jac_to_affine(_acc))
_G2_WINDOW_BASES_NEG = [g2_neg(q) for q in _G2_WINDOW_BASES]


def g2_base_mul_many(ks: Sequence[int]) -> List[G2Point]:
    """[[k]G2 for k in ks]. [k]G2 = sum over j = 8..1 of j * B_j, B_j the
    signed sum of the bases whose digit is +-j. The buckets B_j of every
    scalar are the lanes of one _add_all per step, which adds to each its
    next base. Then S_j = B_8 + ... + B_j runs down from j = 8 and T sums
    the S_j, so B_j is added j times: each step adds B_j to S and the
    previous S to T, for every scalar at once. Stepping the buckets a base
    at a time, not halving them as g2_sum does, keeps one partial sum per
    bucket alive rather than one per pair of bases."""
    buckets = []
    for k in ks:
        k %= R
        by_digit = [[] for _ in range(8)]  # by_digit[j - 1] holds B_j's bases
        i = 0
        while k:
            d = k & 15
            k >>= 4
            if d > 8:
                d -= 16
                k += 1
            if d > 0:
                by_digit[d - 1].append(_G2_WINDOW_BASES[i])
            elif d < 0:
                by_digit[-d - 1].append(_G2_WINDOW_BASES_NEG[i])
            i += 1
        buckets += by_digit
    b = [bases[0] if bases else None for bases in buckets]
    step = 1
    while lanes := [k for k, bases in enumerate(buckets) if len(bases) > step]:
        sums = _add_all([b[k] for k in lanes], [buckets[k][step] for k in lanes])
        for k, q in zip(lanes, sums):
            b[k] = q
        step += 1
    n = len(ks)
    s, t = b[7::8], [None] * n
    for j in range(6, -1, -1):
        st = _add_all(s + t, b[j::8] + s)
        s, t = st[:n], st[n:]
    return _add_all(t, s)


def g2_base_mul(k: int) -> G2Point:
    return g2_base_mul_many((k,))[0]


# ---------------------------------------------------------------------------
# Optimal ate pairing, split into a line schedule for Q and its evaluation at
# P. The schedule walks T over the Miller loop in affine coordinates on the
# twist over Fp2 and records, per step, the slope lam of the line through T
# and its addend, with c = lam x_T - y_T; or None when that line is vertical
# or a summand is the identity. Under the untwisting (x, y) -> (x w^2, y w^3)
# the line evaluated at P = (x_P, y_P) and negated is the sparse element
# y_P + (-lam x_P) w + c v w; the sign and the vertical lines lie in Fp6 and
# vanish in the final exponentiation. A schedule depends on Q alone
# (Costello-Stebila, fixed-argument pairings), so it is cached on Q's affine
# coordinates, never on an encoding: a cached schedule is a pure function of
# its key.

# The loop walks the NAF of 6U + 2, most significant digit first after the
# leading 1: 65 doubling steps and 21 addition steps, of T + q or T - q.
_ATE_NAF = _wnaf(ATE_LOOP_COUNT, 2)[-2::-1]
# per schedule entry, whether f is squared first: before each doubling step,
# not before an addition step or the two closing steps
_SQUARE_FIRST = tuple(square for d in _ATE_NAF for square in ((True, False) if d else (True,))) + (False, False)
_G_VW = fp2_mul(_G_V, _G_W)
Line = Optional[Tuple[Fp2, Fp2]]


@lru_cache(maxsize=16)
def _line_schedule(q: Tuple[Fp2, Fp2]) -> Tuple[Line, ...]:
    """The lines of the Miller loop on q (affine, not the identity): one
    (lam, lam x_T - y_T) or None per step, in loop order, then the steps
    adding pi(q) and -pi^2(q)."""
    lines: List[Line] = []
    t: G2Point = q
    neg_q = g2_neg(q)

    def step(r: G2Point) -> None:
        nonlocal t
        s, lam = _g2_add_slope(t, r)
        lines.append(None if lam is None else (lam, fp2_sub(fp2_mul(lam, t[0]), t[1])))
        t = s

    for d in _ATE_NAF:
        step(t)
        if d:
            step(q if d == 1 else neg_q)
    # Frobenius images of q on the twist: q1 = pi(q), nq2 = -pi^2(q)
    x, y = q
    q1 = (fp2_mul(fp2_conj(x), _G_V), fp2_mul(fp2_conj(y), _G_VW))
    step(q1)
    step(g2_neg((fp2_mul(fp2_conj(q1[0]), _G_V), fp2_mul(fp2_conj(q1[1]), _G_VW))))
    return tuple(lines)


def _fp6_mul_01_raw(a, b):
    """a * (B0 + B1 v) for a as in _fp6_mul_raw and b = (B0.re, B0.im,
    B1.re, B1.im), unreduced: five Fp2 products, 15 int products."""
    a0, a1, a2, a3, a4, a5 = a
    b0, b1, b2, b3 = b
    # K0 = A0 B0, K1 = A1 B1, E = A2 B1; the result is
    # (K0 + xi E, (A0 + A1)(B0 + B1) - K0 - K1, K1 + A2 B0)
    m, n = a0 * b0, a1 * b1
    k0r, k0i = m - n, (a0 + a1) * (b0 + b1) - m - n
    m, n = a2 * b2, a3 * b3
    k1r, k1i = m - n, (a2 + a3) * (b2 + b3) - m - n
    m, n = a4 * b2, a5 * b3
    er, ei = m - n, (a4 + a5) * (b2 + b3) - m - n
    x0, x1, y0, y1 = a0 + a2, a1 + a3, b0 + b2, b1 + b3
    m, n = x0 * y0, x1 * y1
    c2, c3 = m - n - k0r - k1r, (x0 + x1) * (y0 + y1) - m - n - k0i - k1i
    m, n = a4 * b0, a5 * b1
    c4, c5 = m - n + k1r, (a4 + a5) * (b0 + b1) - m - n + k1i
    return k0r + 9 * er - ei, k0i + 9 * ei + er, c2, c3, c4, c5


def _fp12_mul_by_line(f: Fp12, b0: int, b1: int, c0: int, c1: int, y_p: int) -> Fp12:
    """f * (y_P + b w + c v w) for b = (b0, b1), c = (c0, c1) in Fp2: Karatsuba
    over Fp6 with f0 y_P, f1 (b + c v) and (f0 + f1)(b + y_P + c v)."""
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = f
    return _fp12_karatsuba(
        (a0 * y_p, a1 * y_p, a2 * y_p, a3 * y_p, a4 * y_p, a5 * y_p),
        _fp6_mul_01_raw((a6, a7, a8, a9, a10, a11), (b0, b1, c0, c1)),
        _fp6_mul_01_raw((a0 + a6, a1 + a7, a2 + a8, a3 + a9, a4 + a10, a5 + a11), (b0 + y_p, b1, c0, c1)),
    )


def miller_loop(pairs: Sequence[Tuple[G2Point, G1Point]]) -> Fp12:
    """The product of the Miller loops on the (q, p) pairs, squaring once per step."""
    loops = [(_line_schedule(q), p) for q, p in pairs if q is not None and p is not None]
    if not loops:
        return FP12_ONE
    f = FP12_ONE
    for i, square in enumerate(_SQUARE_FIRST):
        if square:
            f = fp12_sqr(f)
        for lines, (x_p, y_p) in loops:
            line = lines[i]
            if line is not None:
                (l0, l1), (c0, c1) = line
                f = _fp12_mul_by_line(f, -l0 * x_p % P, -l1 * x_p % P, c0, c1, y_p)
    return f


def fp12_cyclotomic_sqr(a: Fp12) -> Fp12:
    """Granger-Scott squaring, valid for a in the cyclotomic subgroup (any
    value after the easy part of the final exponentiation). Over Fp4 =
    Fp2[s] / (s^2 - xi), s = w^3, the pairs (c0, c4), (c3, c2), (c1, c5) are
    the three Fp4 coefficients of a. Each squares as (x + y s)^2 =
    (x^2 + xi y^2) + ((x + y)^2 - x^2 - y^2) s, and each output coefficient
    is 3 t - 2 c or 3 t + 2 c of the matching square t and input c."""
    ((a0, a1), (a2, a3), (a4, a5)), ((a6, a7), (a8, a9), (a10, a11)) = a
    sq = []
    for x0, x1, y0, y1 in ((a0, a1, a8, a9), (a6, a7, a4, a5), (a2, a3, a10, a11)):
        xx0, xx1 = (x0 + x1) * (x0 - x1), 2 * x0 * x1
        yy0, yy1 = (y0 + y1) * (y0 - y1), 2 * y0 * y1
        s0, s1 = x0 + y0, x1 + y1
        sq += (
            xx0 + 9 * yy0 - yy1,
            xx1 + 9 * yy1 + yy0,
            (s0 + s1) * (s0 - s1) - xx0 - yy0,
            2 * s0 * s1 - xx1 - yy1,
        )
    t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, z0, z1 = sq
    t10, t11 = 9 * z0 - z1, 9 * z1 + z0  # xi times the s part of (c1 + c5 s)^2
    return (
        ((3 * t0 - 2 * a0) % P, (3 * t1 - 2 * a1) % P),
        ((3 * t4 - 2 * a2) % P, (3 * t5 - 2 * a3) % P),
        ((3 * t8 - 2 * a4) % P, (3 * t9 - 2 * a5) % P),
    ), (
        ((3 * t10 + 2 * a6) % P, (3 * t11 + 2 * a7) % P),
        ((3 * t2 + 2 * a8) % P, (3 * t3 + 2 * a9) % P),
        ((3 * t6 + 2 * a10) % P, (3 * t7 + 2 * a11) % P),
    )


_U_WNAF = _wnaf(U, 4)[-2::-1]  # most significant first; the leading digit is 1: start from a


def _cyclotomic_pow_u(a: Fp12) -> Fp12:
    """a^U for a in the cyclotomic subgroup, over the width-4 NAF digits of
    U: 13 multiplications by a table of a, a^3, a^5, a^7 (three more to
    build it), where the plain NAF took 23. Conjugation inverts."""
    a2 = fp12_cyclotomic_sqr(a)
    table = [None] * 16  # indexed by digit: -d reads table[16 - d]
    table[1] = a
    for d in (3, 5, 7):
        table[d] = fp12_mul(table[d - 2], a2)
    for d in (1, 3, 5, 7):
        table[-d] = fp12_conj(table[d])
    result = a
    for d in _U_WNAF:
        result = fp12_cyclotomic_sqr(result)
        if d:
            result = fp12_mul(result, table[d])
    return result


def final_exponentiation(f: Fp12) -> Fp12:
    # easy part: f^((p^6 - 1)(p^2 + 1)), after which m is cyclotomic
    t0 = fp12_mul(fp12_conj(f), fp12_inv(f))
    m = fp12_mul(fp12_frobenius2(t0), t0)
    # hard part (standard BN addition chain)
    fp1 = fp12_frobenius(m)
    fp2_ = fp12_frobenius2(m)
    fp3 = fp12_frobenius(fp2_)
    fu = _cyclotomic_pow_u(m)
    fu2 = _cyclotomic_pow_u(fu)
    fu3 = _cyclotomic_pow_u(fu2)
    y0 = fp12_mul(fp12_mul(fp1, fp2_), fp3)
    y1 = fp12_conj(m)
    y2 = fp12_frobenius2(fu2)
    y3 = fp12_conj(fp12_frobenius(fu))
    y4 = fp12_conj(fp12_mul(fu, fp12_frobenius(fu2)))
    y5 = fp12_conj(fu2)
    y6 = fp12_conj(fp12_mul(fu3, fp12_frobenius(fu3)))
    t0 = fp12_mul(fp12_mul(fp12_cyclotomic_sqr(y6), y4), y5)
    t1 = fp12_mul(fp12_mul(y3, y5), t0)
    t0 = fp12_mul(t0, y2)
    t1 = fp12_cyclotomic_sqr(fp12_mul(fp12_cyclotomic_sqr(t1), t0))
    t0 = fp12_mul(t1, y1)
    t1 = fp12_mul(t1, y0)
    t0 = fp12_cyclotomic_sqr(t0)
    return fp12_mul(t0, t1)


def pairing(p: G1Point, q: G2Point) -> Fp12:
    """e(p, q) for p in G1, q in G2."""
    return final_exponentiation(miller_loop([(q, p)]))


def pairing_product(pairs: List[Tuple[G1Point, G2Point]]) -> Fp12:
    """Product of pairings: one shared Miller loop, one final exponentiation."""
    return final_exponentiation(miller_loop([(q, p) for p, q in pairs]))


def pairing_check(pairs: List[Tuple[G1Point, G2Point]]) -> bool:
    """True iff the product of pairings equals one."""
    return pairing_product(pairs) == FP12_ONE


# ---------------------------------------------------------------------------
# Compressed point encodings (see docs/wire_format.md).
#
# G1: 33 bytes, tag 0x02/0x03 (y parity) + 32-byte big-endian x.
# G2: 65 bytes, tag 0x02/0x03 (parity of y.c0, or y.c1 when y.c0 = 0)
#     + x.c0 + x.c1, each 32 bytes big-endian.
# The identity is a single 0x00 tag padded to full width.

G1_ENC_LEN = 33
G2_ENC_LEN = 65


def _fp2_sign(a: Fp2) -> int:
    return (a[0] & 1) if a[0] != 0 else (a[1] & 1)


def g1_to_bytes(pt: G1Point) -> bytes:
    if pt is None:
        return b"\x00" * G1_ENC_LEN
    x, y = pt
    return bytes([0x02 | (y & 1)]) + x.to_bytes(32, "big")


def g1_from_bytes(data: bytes) -> G1Point:
    if len(data) != G1_ENC_LEN:
        raise ValueError("bad G1 encoding length")
    if data[0] == 0x00:
        if any(data[1:]):
            raise ValueError("bad G1 identity encoding")
        return None
    if data[0] not in (0x02, 0x03):
        raise ValueError("bad G1 tag")
    x = int.from_bytes(data[1:], "big")
    if x >= P:
        raise ValueError("G1 x not reduced")
    y2 = (x * x * x + B1) % P
    y = pow(y2, (P + 1) // 4, P)
    if y * y % P != y2:
        raise ValueError("G1 x not on curve")
    if (y & 1) != (data[0] & 1):
        y = P - y
    return (x, y)


def g2_to_bytes(pt: G2Point) -> bytes:
    if pt is None:
        return b"\x00" * G2_ENC_LEN
    x, y = pt
    return bytes([0x02 | _fp2_sign(y)]) + x[0].to_bytes(32, "big") + x[1].to_bytes(32, "big")


class _KeygenPoints:
    """Encoding -> point of each public key `bls.keygen_many` made, the
    oldest dropped past `maxsize`, so `g2_from_bytes` returns a key this
    run made without a square root. Each point is [sk]G2, in G2 by
    construction, and its encoding is made here from it; nothing else fills
    the memo, so an encoding of an off-curve or off-subgroup point always
    takes the full decode. `cache_clear` empties it with the other run memos."""

    maxsize = 1024

    def __init__(self):
        self._points: Dict[bytes, G2Point] = {}

    def keep(self, points: Sequence[G2Point]) -> None:
        """Keep keygen's [sk]G2 points; never a point from anywhere else."""
        for pt in points:
            self._points[g2_to_bytes(pt)] = pt
        while len(self._points) > self.maxsize:
            del self._points[next(iter(self._points))]

    def get(self, data: bytes) -> Optional[G2Point]:
        return self._points.get(data)

    def cache_clear(self) -> None:
        self._points.clear()


_keygen_points = _KeygenPoints()


def g2_from_bytes(data: bytes) -> G2Point:
    if len(data) != G2_ENC_LEN:
        raise ValueError("bad G2 encoding length")
    kept = _keygen_points.get(bytes(data))
    if kept is not None:
        return kept
    if data[0] == 0x00:
        if any(data[1:]):
            raise ValueError("bad G2 identity encoding")
        return None
    if data[0] not in (0x02, 0x03):
        raise ValueError("bad G2 tag")
    c0 = int.from_bytes(data[1:33], "big")
    c1 = int.from_bytes(data[33:], "big")
    if c0 >= P or c1 >= P:
        raise ValueError("G2 x not reduced")
    x: Fp2 = (c0, c1)
    y = fp2_sqrt(fp2_add(fp2_mul(fp2_sqr(x), x), B2))
    if y is None:
        raise ValueError("G2 x not on curve")
    if _fp2_sign(y) != (data[0] & 1):
        y = fp2_neg(y)
    return (x, y)
