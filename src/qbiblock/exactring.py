"""Exact scalar arithmetic: rationals, polynomials in q, and rational functions in q.

Everything here is exact; no floating point is used anywhere in the package.
Rational scalars are plain ``int`` or ``fractions.Fraction`` values (integral
results are demoted to ``int``).  Polynomials are dense ascending coefficient
tuples; rational functions are kept in canonical form (gcd-reduced, monic
denominator) so that equality is structural.  That form is stored as two
integer tuples, the reduced numerator and denominator scaled by the
denominator's lead (_fastpoly.reduce_over), and rendered and evaluated from
them; the num and den polynomials are built only when asked for.
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


# The _json_text renderers give the compact, key-sorted JSON text of a value's
# to_json(), as json.dumps(value.to_json(), sort_keys=True, separators=(",", ":"))
# does, straight from the integers: a value's strings are decimal integers,
# which JSON prints as they are.


def _rational_json_text(value: Rational) -> str:
    """The JSON text of rational_to_json(value)."""
    return '["%d","%d"]' % (value.numerator, value.denominator)


def _scaled_json(coeffs, scale: int) -> list[list[str]]:
    """[numerator, denominator] strings of c / scale for each int c, in lowest terms."""
    return [[str(top), str(bottom)] for top, bottom in _fastpoly.lowest_terms(coeffs, scale)]


def _scaled_json_texts(coeffs, scale: int) -> list[str]:
    """The JSON text of each pair of _scaled_json(coeffs, scale)."""
    return list(map('["%d","%d"]'.__mod__, _fastpoly.lowest_terms(coeffs, scale)))


def _scaled_text(coeffs, scale: int) -> str:
    """The polynomial with coefficients c / scale, ints c, as text: ascending
    terms, a coefficient that is not an integer in parentheses before its q."""
    parts: list[str] = []
    for i, (top, bottom) in enumerate(_fastpoly.lowest_terms(coeffs, scale)):
        if top == 0:
            continue
        mag = str(abs(top)) if bottom == 1 else f"{abs(top)}/{bottom}"
        if i == 0:
            term = mag
        else:
            var = "q" if i == 1 else f"q^{i}"
            if bottom != 1:
                term = f"({mag}){var}"
            else:
                term = var if mag == "1" else f"{mag}{var}"
        if not parts:
            parts.append(term if top > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if top > 0 else f"- {term}")
    return " ".join(parts) or "0"


def _horner(coeffs, p: int, r: int) -> tuple[Rational, int]:
    """(acc, r^len(coeffs)), acc = r^(len(coeffs) - 1) times the value at p/r:
    Horner in p over the coefficients scaled by powers of r."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * scale
        scale *= r
    return acc, scale


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
        r = q0.denominator
        acc, scale = _horner(self.coeffs, q0.numerator, r)
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
        return _scaled_text(*_fastpoly.int_pair(self.coeffs))

    def to_json(self) -> list[list[str]]:
        return _scaled_json(*_fastpoly.int_pair(self.coeffs))

    def _json_text(self) -> str:
        return "[%s]" % ",".join(_scaled_json_texts(*_fastpoly.int_pair(self.coeffs)))


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

    Invariants: the denominator is nonzero and monic, gcd(num, den) = 1, and
    zero is 0/1, so equality and hashing are structural.  The form is stored
    as (n, d), integer tuples with no common factor, polynomial or scalar,
    and d's lead positive: num = n / d[-1] and den = d / d[-1].
    """

    __slots__ = ("_pair",)

    def __init__(self, num, den=ONE):
        num = Polynomial._coerce(num)
        den = Polynomial._coerce(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        num_int, num_den = _fastpoly.int_pair(num.coeffs)
        den_int, den_den = _fastpoly.int_pair(den.coeffs)
        (pair,) = _fastpoly.reduce_over(
            [_fastpoly.pscale(num_int, den_den)], _fastpoly.pscale(den_int, num_den)
        )
        object.__setattr__(self, "_pair", pair)

    @classmethod
    def _of(cls, pair) -> "RationalFunction":
        """The RationalFunction stored as pair, a form of _fastpoly.reduce_over."""
        rf = object.__new__(cls)
        object.__setattr__(rf, "_pair", pair)
        return rf

    @classmethod
    def _over(cls, values, den: list[int]) -> list["RationalFunction"]:
        """value / den for each integer list in values, reduced together."""
        return list(map(cls._of, _fastpoly.reduce_over(values, den)))

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def num(self) -> Polynomial:
        n, d = self._pair
        return Polynomial(n if d[-1] == 1 else [Fraction(c, d[-1]) for c in n])

    @property
    def den(self) -> Polynomial:
        d = self._pair[1]
        return Polynomial(d if d[-1] == 1 else [Fraction(c, d[-1]) for c in d])

    @property
    def is_zero(self) -> bool:
        return not self._pair[0]

    def __bool__(self) -> bool:
        return bool(self._pair[0])

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
        (n1, d1), (n2, d2) = self._pair, other._pair
        num = _fastpoly.padd(_fastpoly.pmul(n1, d2), _fastpoly.pmul(n2, d1))
        return RationalFunction._over([num], _fastpoly.pmul(d1, d2))[0]

    __radd__ = __add__

    def __neg__(self):
        n, d = self._pair
        return RationalFunction._of((tuple(-c for c in n), d))

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
        (n1, d1), (n2, d2) = self._pair, other._pair
        return RationalFunction._over([_fastpoly.pmul(n1, n2)], _fastpoly.pmul(d1, d2))[0]

    __rmul__ = __mul__

    def inv(self) -> "RationalFunction":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        n, d = self._pair
        return RationalFunction._over([list(d)], list(n))[0]

    def __truediv__(self, other):
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return RationalFunction._coerce(other) * self.inv()

    def eval_at(self, q0: Rational) -> Rational:
        """n(q0) / d(q0), from Horner on the integers n and d at q0 = p/r."""
        p, r = q0.numerator, q0.denominator
        n, d = self._pair
        (num, num_scale), (den, den_scale) = _horner(n, p, r), _horner(d, p, r)
        if den == 0:
            raise PoleError(f"denominator {self.den} vanishes at q = {q0}")
        return _demote(Fraction(num * den_scale, den * num_scale))

    def __eq__(self, other):
        other = RationalFunction._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._pair == other._pair

    def __hash__(self):
        return hash(self._pair)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        n, d = self._pair
        if len(d) == 1:
            return _scaled_text(n, d[0])
        return f"({_scaled_text(n, d[-1])})/({_scaled_text(d, d[-1])})"

    def to_json(self) -> dict:
        n, d = self._pair
        return {"num": _scaled_json(n, d[-1]), "den": _scaled_json(d, d[-1])}

    def _json_text(self) -> str:
        """From one _scaled_json_texts pass over d and n, which share the scale d[-1]."""
        n, d = self._pair
        texts = _scaled_json_texts((*d, *n), d[-1])
        return '{"den":[%s],"num":[%s]}' % (",".join(texts[: len(d)]), ",".join(texts[len(d):]))


RF_ZERO = RationalFunction(ZERO)
RF_ONE = RationalFunction(ONE)
