"""Exact scalar arithmetic: rationals, polynomials in q, and rational functions in q.

Everything here is exact; no floating point is used anywhere in the package.
Rational scalars are plain ``int`` or ``fractions.Fraction`` values (integral
results are demoted to ``int``).  Polynomials are dense ascending coefficient
tuples; rational functions are kept in canonical form (gcd-reduced, monic
denominator) so that equality is structural.  Canonicalisation reduces
integer lists to their gcd's cofactors (_fastpoly.gcd_cofactors), then
divides each coefficient by one collected scalar.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Union

from . import _fastpoly

Rational = Union[int, Fraction]


class InexactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


class PoleError(ZeroDivisionError):
    """Raised when a rational function is evaluated at a root of its denominator."""


def _demote(value: Rational) -> Rational:
    """Return ``value`` as an int when it is integral."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


def parse_rational(text: str) -> Rational:
    """Parse an exact rational literal ``p`` or ``p/q``, each part optionally
    signed ASCII digits (``int`` alone would take ``1_0`` and other scripts)."""
    match = re.fullmatch(r"([+-]?[0-9]+)(?:/([+-]?[0-9]+))?", text.strip())
    if match is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num, den = match.groups()
    return int(num) if den is None else _demote(Fraction(int(num), int(den)))


def rational_to_json(value: Rational) -> list[str]:
    return [str(value.numerator), str(value.denominator)]


class Polynomial:
    """A univariate polynomial in q with exact rational coefficients.

    Coefficients are stored ascending (index i multiplies q**i) with the
    leading coefficient nonzero; the zero polynomial is the empty tuple and
    has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        normalized = [c if type(c) is int else _demote(c) for c in coeffs]
        while normalized and normalized[-1] == 0:
            normalized.pop()
        object.__setattr__(self, "coeffs", tuple(normalized))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- ring arithmetic ------------------------------------------------

    @staticmethod
    def _coerce(other) -> "Polynomial":
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial((other,))
        return NotImplemented

    def __add__(self, other):
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(_fastpoly.padd(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(_fastpoly.pmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    def __truediv__(self, other) -> "RationalFunction":
        return RationalFunction(self, other)

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Exact quotient self / other: the numerator of the reduced
        RationalFunction self / other; raises if that has a denominator."""
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            raise TypeError("exact_div expects a polynomial or rational scalar")
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quotient = RationalFunction(self, other)
        if quotient.den != ONE:
            raise InexactDivisionError(f"({self}) is not divisible by ({other})")
        return quotient.num

    def eval_at(self, q0: Rational) -> Rational:
        """Exact Horner evaluation at q0 = p/r: Horner in p over the coefficients scaled by
        powers of r gives r^deg times the value, so int coefficients need one division."""
        p, r = q0.numerator, q0.denominator
        acc, scale = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * p + c * scale
            scale *= r
        return _demote(acc if r == 1 else Fraction(acc * r, scale))

    # -- comparisons and rendering ---------------------------------------

    def __eq__(self, other):
        other = Polynomial._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                term = str(mag)
            else:
                var = "q" if i == 1 else f"q^{i}"
                if mag == 1:
                    term = var
                elif isinstance(mag, Fraction):
                    term = f"({mag}){var}"
                else:
                    term = f"{mag}{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def to_json(self) -> list[list[str]]:
        return [rational_to_json(c) for c in self.coeffs]


ZERO = Polynomial()
ONE = Polynomial((1,))
Q = Polynomial((0, 1))


def q_integer(alpha: int) -> Polynomial:
    """The polynomial 1 + q + ... + q**(alpha-1); alpha = 0 gives zero."""
    if alpha < 0:
        raise ValueError("q_integer requires a nonnegative argument")
    return Polynomial((1,) * alpha)


# -- rational functions ----------------------------------------------------


class RationalFunction:
    """An element of the field of rational functions in q, in canonical form.

    Invariants: the denominator is nonzero and monic, gcd(num, den) = 1 (the
    parts are scaled cofactors of the integer gcd), and zero is stored as
    0/1.  Equality and hashing are therefore structural.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = Polynomial._coerce(num)
        den = Polynomial._coerce(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            num, den = ZERO, ONE
        else:
            # reduce on integer coefficient lists to the gcd's cofactors, then
            # apply the collected scalar and make the denominator monic
            num_int, num_den = _fastpoly.int_pair(num.coeffs)
            den_int, den_den = _fastpoly.int_pair(den.coeffs)
            _, num_int, den_int = _fastpoly.gcd_cofactors(num_int, den_int)
            lead = den_int[-1]
            num_int, down = [c * den_den for c in num_int], num_den * lead
            num = Polynomial(num_int if down == 1 else [Fraction(c, down) for c in num_int])
            den = Polynomial(den_int if lead == 1 else [Fraction(c, lead) for c in den_int])
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    @staticmethod
    def _coerce(other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, (Polynomial, int, Fraction)):
            return RationalFunction(other)
        return NotImplemented

    def __add__(self, other):
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction(self.den, self.num)

    def __truediv__(self, other):
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return RationalFunction._coerce(other) * self.inv()

    def eval_at(self, q0: Rational) -> Rational:
        den_val = self.den.eval_at(q0)
        if den_val == 0:
            raise PoleError(f"denominator {self.den} vanishes at q = {q0}")
        num_val = self.num.eval_at(q0)
        return _demote(Fraction(num_val) / Fraction(den_val))

    def __eq__(self, other):
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


RF_ZERO = RationalFunction(ZERO)
RF_ONE = RationalFunction(ONE)
