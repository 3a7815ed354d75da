from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from math import lcm

import pytest

from helpers import exact_quotient, pseudo_divmod, subresultant_gcd
from qbiblock import _fastpoly
from qbiblock.exactring import (
    ONE,
    Q,
    ZERO,
    InexactDivisionError,
    PoleError,
    Polynomial,
    RationalFunction,
    parse_rational,
    q_integer,
)


def test_q_integer_base_cases():
    assert q_integer(0) == ZERO
    assert q_integer(1) == ONE
    assert q_integer(3) == Polynomial((1, 1, 1))


def test_q_integer_rejects_negative():
    with pytest.raises(ValueError):
        q_integer(-1)


def test_q_integer_addition_identity():
    # [a+b] = [a] + q^a [b] = q^b [a] + [b]
    for a in range(21):
        for b in range(21):
            lhs = q_integer(a + b)
            assert lhs == q_integer(a) + Q**a * q_integer(b)
            assert lhs == Q**b * q_integer(a) + q_integer(b)


def test_ring_arithmetic_examples():
    assert (Q + 1) * (Q - 1) == Q**2 - 1
    assert (Q**2 - 1).exact_div(Q + 1) == Q - 1
    assert RationalFunction(Q + 1).inv() == RationalFunction(ONE, Q + 1)


def test_exact_div_errors():
    with pytest.raises(InexactDivisionError):
        (Q**2 + 1).exact_div(Q + 1)
    with pytest.raises(InexactDivisionError):
        ONE.exact_div(Q)
    with pytest.raises(ZeroDivisionError):
        Q.exact_div(ZERO)


@pytest.mark.parametrize("other", ["x", None, 1.5, [1, 2]])
def test_exact_div_rejects_a_non_polynomial(other):
    with pytest.raises(TypeError, match="exact_div expects a polynomial or rational scalar"):
        Q.exact_div(other)


def test_polynomial_normalization():
    assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))
    assert Polynomial((Fraction(4, 2),)) == Polynomial((2,))
    assert Polynomial(()).degree == -1
    assert Polynomial((0, 0)).is_zero


def test_eval_examples():
    assert (1 + Q + Q**2).eval_at(1) == 3
    assert RationalFunction(ONE, Q + 1).eval_at(2) == Fraction(1, 3)
    # (q+1)^2 (q+3) (q-1) at q=1: factors evaluate to 4, 4, 0
    p = (Q + 1) ** 2 * (Q + 3) * (Q - 1)
    assert p.eval_at(1) == 0
    with pytest.raises(PoleError):
        RationalFunction(ONE, Q + 1).eval_at(-1)


def test_eval_is_ring_homomorphism():
    rng = random.Random(20240917)
    for _ in range(50):
        p = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))])
        r = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(0, 6))])
        q0 = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        assert (p * r).eval_at(q0) == p.eval_at(q0) * r.eval_at(q0)
        assert (p + r).eval_at(q0) == p.eval_at(q0) + r.eval_at(q0)


def test_integer_horner_matches_fraction_horner():
    rng = random.Random(20261018)
    for _ in range(200):
        coeffs = [rng.randint(-10**30, 10**30) for _ in range(rng.randint(0, 12))]
        q0 = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        expected = Fraction(0)
        for c in reversed(coeffs):
            expected = expected * q0 + c
        got = Polynomial(coeffs).eval_at(q0)
        assert got == expected
        assert type(got) is (int if expected.denominator == 1 else Fraction)


def test_gcd_examples():
    gcd = lambda a, b: _fastpoly.gcd_cofactors(a, b)[0]
    assert gcd([-1, 0, 1], [1, 1]) == [1, 1]
    assert gcd([2, 2], [4, 4]) == [1, 1]
    assert gcd([1, 1], [2, 1]) == [1]
    # a negative content must not flip the positive leading coefficient
    assert gcd([2, -4], [-6, 12]) == [-1, 2]
    assert _fastpoly.gcd_cofactors([2, -4], [-6, 12]) == ([-1, 2], [-2], [6])


def test_gcd_rejects_a_spurious_factor_at_the_first_base():
    # the first base is B = 2^22 for coefficients up to 1000; these coprime
    # quadratics share the factor 2446649 > B/2 of their values at B, whose
    # digits read as q - 1747655, and only the cofactor bound rejects it
    a, b = [-999, 1000, 1], [701, 965, 1]
    assert _fastpoly.gcd_cofactors(a, b) == ([1], a, b)
    f = [3, -2, 5]
    h, a_h, b_h = _fastpoly.gcd_cofactors(_fastpoly.pmul(a, f), _fastpoly.pmul(b, f))
    assert (h, a_h, b_h) == (f, a, b)


def test_gcd_of_random_products():
    rng = random.Random(5551)
    for _ in range(40):
        f = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1]
        a = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [1]
        b = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [1]
        fa, fb = _fastpoly.pmul(f, a), _fastpoly.pmul(f, b)
        g, _, _ = _fastpoly.gcd_cofactors(fa, fb)
        # f is monic and divides both products, so it must divide the
        # primitive gcd; the gcd must divide both products
        exact_quotient(g, f)
        exact_quotient(fa, g)
        exact_quotient(fb, g)


def random_gcd_case(rng: random.Random) -> tuple[list[int], list[int]]:
    """Two nonzero integer lists for the gcd sweep: a planted common factor
    (or none), cofactors with coefficients of 1 to 60 bits, and by turns
    scaled by a signed content, shifted by a power of q, or constant."""
    bits = rng.choice((1, 2, 4, 16, 60))

    def poly(degree):
        lead = rng.choice((-1, 1)) * rng.randint(1, 2**bits)
        return [rng.randint(-(2**bits), 2**bits) for _ in range(degree)] + [lead]

    common = poly(rng.randint(1, 4)) if rng.random() < 0.7 else [1]
    pair = []
    for _ in range(2):
        value = _fastpoly.pmul(common, poly(rng.randint(0, 5)))
        if rng.random() < 0.2:
            value = [0] * rng.randint(1, 3) + value
        if rng.random() < 0.3:
            value = _fastpoly.pscale(value, rng.choice((-1, 2, -6, 15)))
        if rng.random() < 0.05:
            value = [rng.choice((-4, -1, 1, 3))]
        pair.append(value)
    return pair[0], pair[1]


def test_gcd_cofactors_match_the_subresultant_reference():
    rng = random.Random(20261019)
    for _ in range(400):
        a, b = random_gcd_case(rng)
        h, a_h, b_h = _fastpoly.gcd_cofactors(a, b)
        assert h == subresultant_gcd(a, b), (a, b)
        assert _fastpoly.pmul(h, a_h) == a and _fastpoly.pmul(h, b_h) == b, (a, b)


def test_gcd_cofactors_match_sympy():
    sympy = pytest.importorskip("sympy")
    q = sympy.symbols("q")
    rng = random.Random(4477)
    for _ in range(60):
        a, b = random_gcd_case(rng)
        as_poly = lambda c: sympy.Poly(list(reversed(c)), q, domain="ZZ")
        # sympy's gcd carries the gcd of the contents; compare primitive parts
        _, want = sympy.gcd(as_poly(a), as_poly(b)).primitive()
        if want.LC() < 0:
            want = -want
        h, _, _ = _fastpoly.gcd_cofactors(a, b)
        assert as_poly(h) == want, (a, b)


def test_rational_function_canonical_form():
    r = RationalFunction((Q + 1) * (Q - 1), (Q + 1) * (Q + 2))
    assert r == RationalFunction(Q - 1, Q + 2)
    assert r.den.coeffs[-1] == 1
    # denominator made monic, fractions pushed into the numerator
    s = RationalFunction(ONE, Polynomial((-1, -1)))
    assert s.den == Q + 1
    assert s.num == Polynomial((-1,))
    assert RationalFunction(ZERO, Q + 5) == RationalFunction(ZERO)


def test_rational_function_normalization_idempotent_and_cross_multiplication():
    rng = random.Random(90125)
    for _ in range(40):
        num = Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(0, 4))])
        den = Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))] + [rng.randint(1, 3)])
        g = Polynomial([rng.randint(-2, 2) for _ in range(rng.randint(0, 2))] + [1])
        r = RationalFunction(num, den)
        again = RationalFunction(r.num, r.den)
        assert again.num == r.num and again.den == r.den
        assert RationalFunction(num * g, den * g) == r
        # a/b == c/d iff ad == cb
        other = RationalFunction(num + 1, den)
        assert (r == other) == (r.num * other.den == other.num * r.den)


def test_rational_function_field_arithmetic():
    a = RationalFunction(ONE, Q + 1)
    b = RationalFunction(Q, Q - 1)
    assert a + b == RationalFunction(Q - 1 + Q * (Q + 1), (Q + 1) * (Q - 1))
    assert a * b == RationalFunction(Q, (Q + 1) * (Q - 1))
    assert (a / b) * b == a
    assert a - a == RationalFunction(ZERO)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ZERO).inv()
    with pytest.raises(ZeroDivisionError):
        RationalFunction(ONE, ZERO)


def test_text_rendering():
    assert str(ZERO) == "0"
    assert str(Polynomial((-1,))) == "-1"
    assert str(Polynomial((2, 2))) == "2 + 2q"
    assert str(1 + Q + Q**2) == "1 + q + q^2"
    assert str(Polynomial((-1, 1))) == "-1 + q"
    assert str(Polynomial((0, 0, Fraction(3, 2)))) == "(3/2)q^2"
    assert str(RationalFunction(ONE, Q + 1)) == "(1)/(1 + q)"
    assert str(RationalFunction(ZERO, Q + 1)) == "0"
    assert str(RationalFunction(Q - 1)) == "-1 + q"


def test_json_rendering():
    assert (1 + 2 * Q).to_json() == [["1", "1"], ["2", "1"]]
    assert Polynomial((Fraction(1, 2),)).to_json() == [["1", "2"]]
    r = RationalFunction(ONE, Q + 1)
    assert r.to_json() == {"num": [["1", "1"]], "den": [["1", "1"], ["1", "1"]]}


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-1") == -1
    assert parse_rational("2/5") == Fraction(2, 5)
    assert parse_rational("4/2") == 2
    assert parse_rational(" 2 ") == 2
    assert parse_rational("+3") == 3
    assert parse_rational("3/-4") == Fraction(-3, 4)
    assert parse_rational("-0") == 0
    # only ASCII digits and signs: int() alone would read these as 10, 3 and 5
    for text in ("1.5", "1_0", "\u0663", "2/\u0665", "", "/", "1/", "3/4/5", "+-1", "1 /2", "0x10"):
        with pytest.raises(ValueError):
            parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


def test_pow():
    assert (Q + 1) ** 0 == ONE
    assert (Q + 1) ** 3 == Polynomial((1, 3, 3, 1))
    with pytest.raises(ValueError):
        Q**-1


def test_rational_function_ring_axioms_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    poly = st.lists(coeff, max_size=4).map(Polynomial)
    rf = st.builds(RationalFunction, poly, poly.filter(bool))

    def json_bytes(value):
        return json.dumps(value.to_json())

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(
        a=rf, b=rf, c=rf, q0=st.fractions(min_value=-4, max_value=4, max_denominator=7)
    )
    def prop(a, b, c, q0):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        # canonical form: the order of the operations never shows in the bytes
        assert json_bytes((a + b) + c) == json_bytes(c + (b + a))
        assert json_bytes((a * b) * c) == json_bytes(b * (c * a))
        assert json_bytes(a * c + b * c) == json_bytes((b + a) * c)
        # evaluation is a ring homomorphism away from the poles of a and b
        hypothesis.assume(a.den.eval_at(q0) != 0 and b.den.eval_at(q0) != 0)
        assert (a + b).eval_at(q0) == a.eval_at(q0) + b.eval_at(q0)
        assert (a * b).eval_at(q0) == a.eval_at(q0) * b.eval_at(q0)
        assert (a - b).eval_at(q0) == a.eval_at(q0) - b.eval_at(q0)

    prop()


def test_rational_function_sum_bytes_are_order_free_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.integers(-3, 3)
    poly = st.lists(coeff, max_size=3).map(Polynomial)
    terms = st.lists(st.builds(RationalFunction, poly, poly.filter(bool)), min_size=1, max_size=6)

    @hypothesis.settings(max_examples=40, deadline=None)
    @hypothesis.given(values=terms, data=st.data())
    def prop(values, data):
        shuffled = data.draw(st.permutations(values))
        forward = sum(values, RationalFunction(ZERO))
        backward = sum(shuffled, RationalFunction(ZERO))
        assert json.dumps(forward.to_json()) == json.dumps(backward.to_json())
        assert str(forward) == str(backward)

    prop()


def mixed_coefficients(st):
    """ints, and Fractions that may be integral (Fraction(2, 1)) or not."""
    return st.one_of(
        st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=4)
    )


def stored_as_canonical_types(p: Polynomial) -> bool:
    return all(
        type(c) is (int if Fraction(c).denominator == 1 else Fraction) for c in p.coeffs
    )


def reference_int_pair(coeffs) -> tuple[list[int], int]:
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    return [int(Fraction(c) * den) for c in coeffs], den


def reference_quotient(a: Polynomial, b: Polynomial) -> Polynomial | None:
    """a / b from the pseudo-division of the integer parts, or None when b
    does not divide a."""
    num, alpha = reference_int_pair(a.coeffs)
    den, beta = reference_int_pair(b.coeffs)
    quot, rem = pseudo_divmod(num, den)
    if rem:
        return None
    scale = Fraction(beta, alpha * den[-1] ** max(len(num) - len(den) + 1, 0))
    return Polynomial(t * scale for t in quot)


def division_case(c, b, m, planted, clearing):
    """(a, b, scale): a = b c when planted, else c; scale is m, or when
    clearing, m times the integer lists of b and of a's denominators, which
    clears a / b."""
    a = b * c if planted else c
    m = _fastpoly.pstrip(list(m))
    if clearing:
        m = _fastpoly.pmul(reference_int_pair(b.coeffs)[0], m)
        m = _fastpoly.pscale(m, reference_int_pair(a.coeffs)[1])
    return a, b, m


def random_division_case(rng: random.Random):
    def coefficient():
        if rng.random() < 0.5:
            return rng.randint(-5, 5)
        return Fraction(rng.randint(-12, 12), rng.randint(1, 4))

    def poly(lo):
        while True:
            coeffs = [coefficient() for _ in range(rng.randint(lo, 4))]
            if lo == 0 or any(coeffs):
                return Polynomial(coeffs)

    m = [rng.randint(-5, 5) for _ in range(rng.randint(0, 3))]
    return division_case(poly(0), poly(1), m, rng.random() < 0.5, rng.random() < 0.5)


def check_exact_division(a: Polynomial, b: Polynomial, scale: list[int]):
    want = reference_quotient(a, b)
    if want is None:
        with pytest.raises(InexactDivisionError, match=re.escape(f"({a}) is not divisible by ({b})")):
            a.exact_div(b)
    else:
        assert a.exact_div(b) == want
        assert stored_as_canonical_types(a.exact_div(b))
    # (a / b) scale, reduced or not, has one value
    want = reference_quotient(a * Polynomial(scale), b)
    if want is None or any(type(c) is not int for c in want.coeffs):
        with pytest.raises(ArithmeticError, match="clearing denominators did not reach integer coefficients"):
            _fastpoly.cleared(RationalFunction(a, b), scale)
    else:
        assert _fastpoly.cleared(RationalFunction(a, b), scale) == list(want.coeffs)


def test_exact_division_matches_pseudo_division_reference():
    # hypothesis where it is installed, else a fixed seeded sweep
    try:
        import hypothesis
    except ImportError:
        rng = random.Random(2828)
        for _ in range(400):
            check_exact_division(*random_division_case(rng))
        return
    st = hypothesis.strategies
    poly = st.lists(mixed_coefficients(st), max_size=4).map(Polynomial)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(
        c=poly,
        b=poly.filter(bool),
        m=st.lists(st.integers(-5, 5), max_size=3),
        planted=st.booleans(),
        clearing=st.booleans(),
    )
    def prop(c, b, m, planted, clearing):
        check_exact_division(*division_case(c, b, m, planted, clearing))

    prop()


def test_polynomial_ring_axioms_and_coefficient_types_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    raw = st.lists(mixed_coefficients(st), max_size=5)
    poly = raw.map(Polynomial)

    @hypothesis.settings(max_examples=80, deadline=None)
    @hypothesis.given(a=poly, b=poly, c=poly, coeffs=raw)
    def prop(a, b, c, coeffs):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        # integral coefficients are stored as int, the others as Fraction
        built = Polynomial(coeffs)
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        assert list(built.coeffs) == trimmed
        for value in (built, a + b, a - b, a * b, a * Fraction(1, 3), a * 2):
            assert stored_as_canonical_types(value), value
        assert _fastpoly.int_pair(built.coeffs) == reference_int_pair(built.coeffs)
        assert _fastpoly.int_pair(a.coeffs) == reference_int_pair(a.coeffs)

    prop()


def reference_canonical_json(num: Polynomial, den: Polynomial) -> dict:
    """RationalFunction's canonical form, computed with Fraction arithmetic
    throughout: reduce by the subresultant gcd, fold both coefficient denominators
    and the denominator's lead into one Fraction, divide by the lead."""
    if num.is_zero:
        return {"num": [], "den": [["1", "1"]]}
    num_int, num_den = reference_int_pair(num.coeffs)
    den_int, den_den = reference_int_pair(den.coeffs)
    if len(num_int) > 1 or len(den_int) > 1:
        g = subresultant_gcd(num_int, den_int)
        if len(g) > 1:
            num_int = exact_quotient(num_int, g)
            den_int = exact_quotient(den_int, g)
    scalar = Fraction(den_den, num_den) / den_int[-1]
    lead = den_int[-1]

    def rendered(values):
        return [[str(v.numerator), str(v.denominator)] for v in values]

    return {
        "num": rendered(c * scalar for c in num_int),
        "den": rendered(Fraction(c, lead) for c in den_int),
    }


def test_rational_function_canonical_form_matches_fraction_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    poly = st.lists(mixed_coefficients(st), max_size=5).map(Polynomial)

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(num=poly, den=poly.filter(bool))
    def prop(num, den):
        r = RationalFunction(num, den)
        want = json.dumps(reference_canonical_json(num, den))
        assert json.dumps(r.to_json()) == want
        assert stored_as_canonical_types(r.num) and stored_as_canonical_types(r.den)

    prop()
