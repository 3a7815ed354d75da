"""Integer-coefficient polynomial helpers on plain lists (internal).

A polynomial is an ascending list of ints with a nonzero last entry; the zero
polynomial is the empty list.  The verification harness uses these raw lists
for its vector checks, where ring-object overhead would dominate; the closed
forms are built on them (closedform.ClearedForms), and RationalFunction is
stored as them.  Matrix-sized products live in _moddet.  All routines are
exact, and only one divides one polynomial by another: reduce_over, which
reduces values over a denominator to the cofactors of their gcd, is the
package's one exact polynomial division, and what it leaves over a
denominator is inexact.
"""

from __future__ import annotations

from math import gcd, lcm

from ._moddet import pack, unpack


def pstrip(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def padd(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return pstrip(out)


def psub(a: list[int], b: list[int]) -> list[int]:
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return pstrip(out)


def pscale(a: list[int], k: int) -> list[int]:
    if k == 0:
        return []
    return [c * k for c in a]


def pmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def int_pair(coeffs) -> tuple[list[int], int]:
    """(integer list, positive scalar denominator) for mixed int/Fraction coefficients."""
    den = lcm(*(c.denominator for c in coeffs if type(c) is not int))
    if den == 1:
        return list(coeffs), 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def lowest_terms(coeffs, scale: int) -> list[tuple[int, int]]:
    """(numerator, denominator) of c / scale in lowest terms for each int c,
    scale positive."""
    if scale == 1:
        return [(c, 1) for c in coeffs]
    out = []
    for c in coeffs:
        g = gcd(c, scale)
        out.append((c // g, scale // g))
    return out


def primitive(coeffs: list[int]) -> list[int]:
    """Divide out the content; the sign is chosen to make the lead positive."""
    g = gcd(*coeffs) or 1
    if coeffs and coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _scaled(coeffs: list[int], k: int) -> tuple[int, ...]:
    return tuple(coeffs) if k == 1 else tuple(c * k for c in coeffs)


def reduce_over(values, den: list[int]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(n, d) for each integer list v in values: v / den in lowest terms, n and
    d integer tuples with no common polynomial factor and no common content,
    d's lead positive, and zero ((), (1,)).  d's lead is the common scale of
    the monic form: v / den = (n / d[-1]) / (d / d[-1]).

    n and d are the cofactors of h, the primitive positive-lead gcd of the
    primitive parts a' of v and b' of den: the heuristic gcd of Char, Geddes
    and Gonnet at B = 2^k.  h is pp of the balanced base-B digits of
    g = igcd(a'(B), b'(B)), and a cofactor the digits of a'(B) // h(B).
    Accepted when ||h||_1 ||cofactor||_inf < B/2 for both, h * cofactor = a':
    both have coefficients below B/2 and one value at B.  Every k has
    B/2 > 2M + 2 (M: the largest coefficient of a', b'), so h is the gcd: the
    gcd is h r, r(B) divides the digits' content c <= B/2, and a nonconstant
    r, its roots within 1 + M, has |r(B)| > B - 1 - M > c.  Else k doubles;
    that ends once B/2 exceeds ||gcd||_1 times the cofactors' coefficients
    and the gcd's times g / gcd(B), a divisor of the cofactors' resultant.
    b' and its value at each B are taken once, and b' / h once per h: an
    accepted h * (b' / h) = b' is an identity of polynomials, so it holds
    for every value with that h, at any B.
    """
    b = primitive(den)
    cb, b_max = den[-1] // b[-1], max(map(abs, b))
    at: dict[int, int] = {}
    cofactors: dict[tuple[int, ...], list[int]] = {}
    out = []
    for v in values:
        if not v:
            out.append(((), (1,)))
            continue
        a = primitive(v)
        ca, a_h, b_h = v[-1] // a[-1], a, b
        if len(a) > 1 and len(b) > 1:
            k = 2 * (2 * max(b_max, *map(abs, a)) + 2).bit_length()
            while True:
                if k not in at:
                    at[k] = pack(b, k)
                av, bv = pack(a, k), at[k]
                h = primitive(unpack(gcd(av, bv), k, 1 << k))
                if len(h) == 1:
                    break
                hv, limit, key = pack(h, k), ((1 << (k - 1)) - 1) // sum(map(abs, h)), tuple(h)
                try:
                    if key not in cofactors:
                        cofactors[key] = unpack(bv // hv, k, limit)
                    a_h, b_h = unpack(av // hv, k, limit), cofactors[key]
                    break
                except ArithmeticError:
                    k *= 2
        g = gcd(ca, cb) if cb > 0 else -gcd(ca, cb)
        out.append((_scaled(a_h, ca // g), _scaled(b_h, cb // g)))
    return out


def cleared(rf, scale: list[int]) -> list[int]:
    """Integer coefficients of rf * scale, when that product is integral; the
    tests clear rational functions with it.

    rf is a RationalFunction, scale an integer list; the product is reduced as
    a RationalFunction, and a denominator or a coefficient left over raises.
    """
    from .exactring import ONE, Polynomial, RationalFunction

    out = RationalFunction(rf.num * Polynomial(scale), rf.den)
    if out.den != ONE or any(type(c) is not int for c in out.num.coeffs):
        raise ArithmeticError("clearing denominators did not reach integer coefficients")
    return list(out.num.coeffs)


# bench/tracer.py traces the packed matmul and the adjugate of _moddet under
# these two names; ffgj_inverse names the fraction-free Gauss-Jordan that the
# adjugate no longer runs.  Nothing else in the package calls them through here
from ._moddet import adjugate as ffgj_inverse, matmul  # noqa: E402,F401
