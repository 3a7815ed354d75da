"""Integer-coefficient polynomial helpers on plain lists (internal).

A polynomial is an ascending list of ints with a nonzero last entry; the zero
polynomial is the empty list.  The verification harness uses these raw lists
for its vector checks, where ring-object overhead would dominate; the closed
forms are built on them (closedform.ClearedForms), and the ring types use
them for gcds.  Matrix-sized products live in _moddet.  All routines are
exact; inexact divisions raise instead of truncating.
"""

from __future__ import annotations

from math import gcd, lcm


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


def pdiv_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient a / b over the integers; raises ArithmeticError otherwise.

    When the quotient is known to have integer coefficients, every step of
    classical long division stays integral, so each leading-coefficient
    division is checked.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return []
    if b == [1]:
        return list(a)
    db = len(b) - 1
    if len(a) - 1 < db:
        raise ArithmeticError("inexact polynomial division")
    rem = list(a)
    lead = b[-1]
    quot = [0] * (len(a) - db)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + db], lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        quot[k] = c
        if c:
            for i, bc in enumerate(b):
                rem[k + i] -= c * bc
    if any(rem[:db]):
        raise ArithmeticError("inexact polynomial division")
    return quot


def int_pair(coeffs) -> tuple[list[int], int]:
    """(integer list, positive scalar denominator) for mixed int/Fraction coefficients."""
    den = lcm(*(c.denominator for c in coeffs if type(c) is not int))
    if den == 1:
        return list(coeffs), 1
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def content(coeffs: list[int]) -> int:
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    return g or 1


def primitive(coeffs: list[int]) -> list[int]:
    """Divide out the content; the sign is chosen to make the lead positive."""
    g = content(coeffs)
    if coeffs and coeffs[-1] < 0:
        g = -g
    return [c // g for c in coeffs]


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, over the integers."""
    da, db = len(a) - 1, len(b) - 1
    lead = b[-1]
    rem = list(a)
    for k in range(da - db, -1, -1):
        c = rem[k + db]
        for i in range(len(rem)):
            rem[i] *= lead
        if c:
            for i, bc in enumerate(b):
                rem[k + i] -= c * bc
        del rem[k + db :]
    return pstrip(rem)


def int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive positive-lead gcd of two nonzero integer coefficient lists
    (subresultant polynomial remainder sequence)."""
    if len(a) < len(b):
        a, b = b, a
    a, b = primitive(a), primitive(b)
    g, h = 1, 1
    while True:
        delta = (len(a) - 1) - (len(b) - 1)
        rem = _pseudo_rem(a, b)
        if not rem:
            return primitive(b)
        if len(rem) == 1:
            return [1]
        divisor = g * h**delta
        quotient = []
        for c in rem:
            q, r = divmod(c, divisor)
            if r:
                raise ArithmeticError("subresultant sequence division was not exact")
            quotient.append(q)
        a, b = b, quotient
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta > 0 else h


def cleared(rf, scale: list[int]) -> list[int]:
    """Integer coefficients of rf * scale, when that product is integral; the
    tests clear rational functions with it.

    rf is a rational function num/den whose coefficients are ints or
    Fractions; scale is an integer list that den divides over the rationals.
    """
    num_int, a = int_pair(rf.num.coeffs)
    if not num_int:
        return []
    den_int, b = int_pair(rf.den.coeffs)
    # (num/a)/(den/b) * scale = (num * b * scale) / (a * den); the final result
    # is integral, so the polynomial division and the scalar division are exact
    t = pdiv_exact(pscale(pmul(num_int, scale), b), den_int)
    out = []
    for c in t:
        q, r = divmod(c, a)
        if r:
            raise ArithmeticError("clearing denominators did not reach integer coefficients")
        out.append(q)
    return out


# bench/tracer.py traces the packed matmul and the adjugate of _moddet under
# these two names; nothing else in the package calls them through here
from ._moddet import adjugate as ffgj_inverse, matmul  # noqa: E402,F401
