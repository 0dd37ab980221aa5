"""Unit tests for the quotient-ring arithmetic and weight specifications."""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import reduce
from typing import Sequence

import pytest
from hypothesis import example, given, strategies as st

from corpora import FINITE_ORDER, power_is_one
from gapsums import (
    LambdaSpec,
    NumberRing,
    RATIONAL_RING,
    ReducibleModulusError,
    RingElement,
    RingMismatchError,
    as_element,
    cyclotomic,
    is_power_unity,
    numeric_eval,
)
from gapsums import ArithProgression, Generators, apery_general, oracle, polys, sylvester, weighted_sums_ap
from gapsums.numberfield import (
    _ring_roots,
    _traces,
    element_from_json,
    element_to_json,
    format_poly,
    order,
)
from gapsums.sylvester import weighted_sums

CBRT2 = NumberRing([-2, 0, 0, 1])  # theta^3 = 2
GAUSS = NumberRing([1, 0, 1])  # theta^2 = -1
ZETA5 = NumberRing(cyclotomic(5))
GOLDEN = NumberRing([-1, -1, 1])  # theta^2 = theta + 1

TEST_RINGS = [CBRT2, GAUSS, ZETA5, GOLDEN]


def test_ring_create_validation():
    with pytest.raises(ValueError):
        NumberRing([1])  # degree 0
    with pytest.raises(ValueError):
        NumberRing([-2, 0, 0, 3])  # not monic
    assert NumberRing([0, 1]).degree == 1
    assert CBRT2.degree == 3


def test_degree_one_ring_is_rational():
    assert RATIONAL_RING.degree == 1
    x = RATIONAL_RING.from_rational(Fraction(3, 7))
    assert x.is_rational and x.rational_value() == Fraction(3, 7)


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)
    assert cyclotomic(5) == (1, 1, 1, 1, 1)
    assert cyclotomic(8) == (1, 0, 0, 0, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, c in enumerate(p):
        for j, e in enumerate(q):
            out[i + j] += c * e
    return out


def test_cyclotomic_polynomials_multiply_to_x_n_minus_1():
    # x^n - 1 is the product of Phi_d over the divisors d of n
    for n in range(1, 301):
        product = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                product = _poly_mul(product, cyclotomic(d))
        assert product == [-1] + [0] * (n - 1) + [1], n


def test_basic_products():
    theta = CBRT2.generator
    assert theta * theta ** 2 == 2
    z = ZETA5.generator
    assert z ** 4 * z == 1
    w = GAUSS.element([4, 3])
    assert w * w == GAUSS.element([7, 24])


def test_powers():
    z = ZETA5.generator
    assert z ** 12 == z ** 2
    assert as_element(-1) ** 14 == 1
    assert CBRT2.generator ** 6 == 4
    assert CBRT2.generator ** 0 == 1


def test_negative_powers():
    theta = CBRT2.generator
    assert theta ** -1 == theta.inverse()
    assert theta ** -2 * theta ** 2 == 1


def test_inverses():
    assert as_element(2).inverse() == Fraction(1, 2)
    theta = CBRT2.generator
    assert theta.inverse() == theta ** 2 / 2
    z = ZETA5.generator
    assert z.inverse() == ZETA5.element([-1, -1, -1, -1])
    assert z.inverse() == z ** 4


def test_inverse_of_zero():
    with pytest.raises(ZeroDivisionError):
        CBRT2.zero.inverse()


def test_degree_one_inverse_is_den_over_num(monkeypatch):
    # a rational's inverse is den/num: no polynomial Euclid runs, and the
    # result is in lowest terms with a positive denominator
    def no_euclid(*args):
        raise AssertionError("polynomial gcd called for a degree-1 element")

    monkeypatch.setattr("gapsums.polys.gcd", no_euclid)
    rng = random.Random(11)
    for ring in (RATIONAL_RING, NumberRing([-3, 1]), NumberRing([5, 1])):
        values = [1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2), Fraction(-6, 4), Fraction(7, 9)]
        values += [Fraction(rng.randint(-10**12, 10**12) or 1, rng.randint(1, 10**9)) for _ in range(40)]
        for value in values:
            inv = ring.from_rational(value).inverse()
            assert inv == ring.from_rational(1 / Fraction(value))
            assert inv.ring is ring and inv.den > 0
            assert math.gcd(inv.den, *inv.num) == 1
            assert inv * value == 1
        with pytest.raises(ZeroDivisionError):
            ring.zero.inverse()


def test_reducible_modulus_surfaces_factor():
    ring = NumberRing([-1, 0, 1])  # x^2 - 1, reducible
    with pytest.raises(ReducibleModulusError) as info:
        ring.element([1, 1]).inverse()  # theta + 1 is a zero divisor
    assert info.value.factor == (1, 1)  # monic x + 1


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatchError):
        CBRT2.generator + GAUSS.generator


def test_elements_are_built_by_their_ring():
    with pytest.raises(TypeError):
        RingElement(GAUSS, (4, 3))
    thirds = NumberRing([Fraction(1, 3), Fraction(-2, 5), 1])  # a modulus with denominators
    for x in [
        GAUSS.element([4, 3]),
        CBRT2.element([Fraction(-1, 2), 0, Fraction(7, 3)]),
        thirds.element([Fraction(5, 6), Fraction(-1, 9)]),
        thirds.zero,
        as_element(Fraction(-5, 3)),
    ]:
        assert eval(repr(x), {"Fraction": Fraction, "NumberRing": NumberRing}) == x


def test_is_power_unity():
    z = ZETA5.generator
    assert is_power_unity(z, 5)
    assert not is_power_unity(z, 12)
    assert not is_power_unity(as_element(-1), 3)
    assert is_power_unity(as_element(-1), 2)
    with pytest.raises(ValueError):
        is_power_unity(z, 0)


@pytest.mark.parametrize("order", [5, 8, 12])
def test_unity_detection_in_cyclotomic_rings(order):
    z = NumberRing(cyclotomic(order)).generator
    for m in range(1, 4 * order + 1):
        assert is_power_unity(z, m) == (m % order == 0)


def _brute_order(x, limit: int = 400):
    """The least c <= limit with x^c = 1, one product at a time, or None."""
    power = x
    for c in range(1, limit + 1):
        if power == 1:
            return c
        power = power * x
    return None


def _product_ring(*moduli):
    """Q[theta]/(f g ...): a reducible modulus, the product of ``moduli``."""
    poly = [1]
    for f in moduli:
        out = [0] * (len(poly) + len(f) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(f):
                out[i + j] += a * b
        poly = out
    return NumberRing(poly)


ORDER_CASES = {
    "2": None,
    "-1": 2,
    "-1/2": None,
    "root(3,2)": None,
    "zeta(5)": 5,
    "elem(minpoly=[1,0,1];coeffs=[4,3])": None,
    "zeta(3)": 3,
    "zeta(12)": 12,
    "elem(minpoly=[1,1,1];coeffs=[0,1])": 3,
    "elem(minpoly=[1,0,1];coeffs=[0,1])": 4,
    "elem(minpoly=[1,1,1];coeffs=[0,-1])": 6,  # -zeta(3)
    "elem(minpoly=[4,0,1];coeffs=[0,1/2])": 4,  # i as theta/2, with a denominator
    "elem(minpoly=[1,1,1,1,1];coeffs=[2,1])": None,  # 2 + zeta(5)
    "elem(minpoly=[-1,-1,1];coeffs=[0,1])": None,  # the golden ratio: a unit, norm -1
    "elem(minpoly=[0,0,1];coeffs=[1,1])": None,  # 1 + nilpotent: norm 1, trace 2
    "root(2,1)": 2,  # theta^2 = 1 is reducible, and theta is not -1
    "root(4,-1)": 8,
    "elem(minpoly=[-1,0,1];coeffs=[-1,1])": None,  # theta - 1, a zero divisor
}


@pytest.mark.parametrize("spec", ORDER_CASES)
def test_order_against_brute_force(spec):
    x = LambdaSpec.parse(spec).element()
    assert order(x) == _brute_order(x) == ORDER_CASES[spec]
    assert order(-x) == _brute_order(-x)
    if order(x) is not None:
        assert [m for m in range(1, 3 * order(x) + 1) if power_is_one(x, m)] == list(
            range(order(x), 3 * order(x) + 1, order(x))
        )


def _prime_factors(c: int) -> list[int]:
    return [p for p in range(2, c + 1) if c % p == 0 and all(p % q for q in range(2, p))]


@pytest.mark.parametrize("spec, c", {"zeta(97)": 97, "zeta(360)": 360, **FINITE_ORDER}.items())
def test_order_is_the_least_power_to_one(spec, c):
    # x^c = 1, and no x^(c/p) for a prime p | c: no proper divisor of c is an order
    x = LambdaSpec.parse(spec).element()
    assert order(x) == c
    assert power_is_one(x, c)
    assert not any(power_is_one(x, c // p) for p in _prime_factors(c))


def test_order_in_a_reducible_product_ring():
    # (zeta5, zeta7) in Q[theta]/(Phi_5 Phi_7), degree 10: phi(35) = 24 > 10
    theta = _product_ring(cyclotomic(5), cyclotomic(7)).generator
    assert theta.ring.degree == 10
    assert order(theta) == _brute_order(theta) == 35
    assert order(theta ** 5) == 7 and order(theta ** 7) == 5


@pytest.mark.parametrize("degree", [30, 60])
def test_order_refuses_infinite_order_before_the_powers_grow(degree):
    # N_n has about 1.4 n bits: theta^(N_n) would hold 2^(N_n / n) for
    # root(n, 2), refused by its norm, and about as many bits for the unit
    # theta^n = theta + 1, whose largest root is about 2^(1/n), refused by a
    # trace on the way
    assert order(LambdaSpec.root(degree, 2).element()) is None
    assert order(NumberRing([-1, -1] + [0] * (degree - 2) + [1]).generator) is None


@given(st.integers(1, 30), st.integers(0, 29), st.booleans())
def test_order_of_signed_cyclotomic_powers(m, k, negate):
    x = NumberRing(cyclotomic(m)).generator ** (k % m)
    assert order(-x if negate else x) == _brute_order(-x if negate else x)


@given(st.sampled_from(TEST_RINGS), st.lists(st.integers(-2, 2), min_size=4, max_size=4))
def test_order_of_small_elements(ring, coeffs):
    x = ring.element(coeffs[: ring.degree])
    assert order(x) == _brute_order(x)  # None for 0 too


def _random_element(rng: random.Random, ring: NumberRing):
    return ring.element(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(ring.degree)]
    )


def test_ring_axioms_on_random_triples():
    rng = random.Random(20260810)
    for ring in TEST_RINGS:
        one = ring.one
        for _ in range(200):
            x, y, z = (_random_element(rng, ring) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * one == x
            assert x + ring.zero == x
            assert x * y == y * x


def test_pow_additivity():
    rng = random.Random(77)
    for ring in TEST_RINGS:
        for _ in range(25):
            x = _random_element(rng, ring)
            a, b = rng.randint(0, 64), rng.randint(0, 64)
            assert x ** (a + b) == x ** a * x ** b


def test_inverse_roundtrip_on_random_elements():
    rng = random.Random(4242)
    for ring in TEST_RINGS:
        count = 0
        while count < 100:
            x = _random_element(rng, ring)
            if x.is_zero:
                continue
            assert x * x.inverse() == 1
            count += 1


@given(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
def test_distributivity_property_gauss(xc, yc, zc):
    x, y, z = (GAUSS.element(c) for c in (xc, yc, zc))
    assert x * (y + z) == x * y + x * z


# --- the integer-numerator representation, against a Fraction reference ----

NONINTEGRAL = NumberRing([Fraction(1, 3), Fraction(-2, 5), 0, 1])  # theta^3 = 2/5 theta - 1/3
PROPERTY_RINGS = [RATIONAL_RING, CBRT2, GAUSS, ZETA5, NONINTEGRAL]

_rationals = st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**4))
_scalars = st.one_of(st.integers(-10**12, 10**12), _rationals)


def _vectors(ring):
    return st.lists(_rationals, min_size=ring.degree, max_size=ring.degree)


def _ring_and_vectors(count):
    return st.sampled_from(PROPERTY_RINGS).flatmap(
        lambda ring: st.tuples(st.just(ring), *[_vectors(ring)] * count)
    )


def _schoolbook_mul(minpoly, x, y):
    n = len(minpoly) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for deg in range(2 * n - 2, n - 1, -1):
        c = prod.pop()
        for t in range(n):
            prod[deg - n + t] -= c * minpoly[t]
    return tuple(prod)


def _assert_canonical(x):
    assert all(type(c) is int for c in x.num) and type(x.den) is int
    assert len(x.num) == x.ring.degree
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1


@given(_ring_and_vectors(2))
def test_arithmetic_matches_fraction_reference(case):
    ring, xc, yc = case
    x, y = ring.element(xc), ring.element(yc)
    assert x.coeffs == tuple(xc)
    results = {
        "+": (x + y, tuple(a + b for a, b in zip(xc, yc))),
        "-": (x - y, tuple(a - b for a, b in zip(xc, yc))),
        "*": (x * y, _schoolbook_mul(ring.minpoly, xc, yc)),
        "neg": (-x, tuple(-a for a in xc)),
    }
    for op, (got, want) in results.items():
        _assert_canonical(got)
        assert got.coeffs == want, op


@given(_ring_and_vectors(1), _scalars)
def test_scalar_arithmetic_matches_fraction_reference(case, k):
    ring, xc = case
    x = ring.element(xc)
    scaled = tuple(a * k for a in xc)
    shifted = (xc[0] + k, *xc[1:])
    cases = [
        (x * k, scaled),
        (k * x, scaled),
        (x + k, shifted),
        (k + x, shifted),
        (x - k, (xc[0] - k, *xc[1:])),
        (k - x, (k - xc[0], *(-a for a in xc[1:]))),
    ]
    for got, want in cases:
        _assert_canonical(got)
        assert got.coeffs == want


@given(_ring_and_vectors(1))
def test_inverse_matches_fraction_reference(case):
    ring, xc = case
    x = ring.element(xc)
    if x.is_zero:
        return
    inv = x.inverse()
    _assert_canonical(inv)
    assert x * inv == 1
    assert _schoolbook_mul(ring.minpoly, xc, inv.coeffs) == (1,) + (0,) * (ring.degree - 1)


@given(_ring_and_vectors(2), st.integers(1, 10**6))
def test_stored_form_is_canonical_and_hash_follows_equality(case, k):
    ring, xc, yc = case
    x, y = ring.element(xc), ring.element(yc)
    zero = x - x
    assert zero.num == (0,) * ring.degree and zero.den == 1
    assert zero == ring.zero and hash(zero) == hash(ring.zero)
    # the same value reached along other paths has the same fields and hash
    for twin in [x + y - y, (x * k) * Fraction(1, k), NumberRing(ring.minpoly).element(xc)]:
        _assert_canonical(twin)
        assert twin == x
        assert (twin.num, twin.den) == (x.num, x.den)
        assert hash(twin) == hash(x)
    if x.is_rational:
        assert x == x.rational_value()


@given(_ring_and_vectors(1))
def test_json_roundtrip_property(case):
    ring, xc = case
    x = ring.element(xc)
    again = element_from_json(element_to_json(x))
    assert again == x and again.ring == ring


@given(_ring_and_vectors(1), st.integers(-3, 12))
def test_power_matches_repeated_multiplication(case, n):
    ring, xc = case
    x = ring.element(xc)
    if n < 0 and x.is_zero:
        return
    want = (Fraction(1),) + (Fraction(0),) * (ring.degree - 1)
    product = ring.one
    for _ in range(abs(n)):
        want = _schoolbook_mul(ring.minpoly, want, xc)
        product = product * x
    got = x ** n
    _assert_canonical(got)
    if n >= 0:
        assert got.coeffs == want and got == product
    else:
        assert got * ring.element(want) == 1 and got == product.inverse()


def test_power_makes_no_product_with_one(monkeypatch):
    from gapsums.numberfield import RingElement

    products = []
    honest = RingElement.__mul__

    def counted(x, y):
        if isinstance(y, RingElement):
            products.append((x, y))
        return honest(x, y)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    for ring in PROPERTY_RINGS:
        x = ring.element([Fraction(3, 2)] + [Fraction(-1, 3)] * (ring.degree - 1))
        for n in range(1, 70):
            products.clear()
            x ** n
            if ring.degree == 1:  # a rational powers its numerator and denominator
                assert not products
                continue
            # square-and-multiply: one squaring per bit below the top, one
            # product per further set bit
            assert len(products) == n.bit_length() - 1 + bin(n).count("1") - 1
            assert all(a != ring.one and b != ring.one for a, b in products)


@pytest.mark.parametrize("lam", [-1, 2, Fraction(-1, 2), Fraction(2, 3)])
def test_degree_one_powers_are_repeated_products_in_lowest_terms(lam):
    x = RATIONAL_RING.from_rational(lam)
    for e in range(-3, 21):
        got = x ** e
        want = RATIONAL_RING.one
        for _ in range(abs(e)):
            want = want * x
        if e < 0:
            want = want.inverse()
        assert got == want and got.rational_value() == Fraction(lam) ** e
        assert got.den > 0 and math.gcd(got.num[0], got.den) == 1


# --- numeric previews -------------------------------------------------------


def test_per_ring_caches_stay_bounded():
    # a long-running process meets ever new weight rings: each per-ring
    # cache keeps 256 of them, and a ring pushed out computes the same again
    table = apery_general(Generators([5, 7]))

    def quadratic(k):  # theta^2 = -k, a ring of its own for every k
        return LambdaSpec.parse(f"elem(minpoly=[{k},0,1];coeffs=[0,1])").element()

    def answers(lam):
        return weighted_sums(table, (1, 2), lam), numeric_eval(lam)

    first = [quadratic(2), quadratic(3), LambdaSpec.zeta(7).element()]
    before = [answers(lam) for lam in first]
    for k in range(2, 302):
        answers(quadratic(k))
    for n in range(2, 259):  # Q[theta]/Phi_n
        LambdaSpec.zeta(n)
    for cache in (_traces, _ring_roots, cyclotomic):
        assert cache.cache_info().currsize <= 256, cache
    assert [answers(lam) for lam in first] == before


def test_numeric_eval_principal_real_root():
    value = numeric_eval(CBRT2.generator, complex(2 ** (1 / 3)))
    assert abs(value - 2 ** (1 / 3)) < 1e-12


def test_numeric_eval_zeta():
    value = numeric_eval(ZETA5.generator, cmath.exp(2j * cmath.pi / 5))
    assert abs(value - cmath.exp(2j * cmath.pi / 5)) < 1e-12


def test_numeric_eval_root_index():
    # roots of x^2 + 1 ordered by (re, im): index 0 is -i, index 1 is +i
    w = GAUSS.element([4, 3])
    assert abs(numeric_eval(w, 1) - (4 + 3j)) < 1e-12
    assert abs(numeric_eval(w, 0) - (4 - 3j)) < 1e-12
    with pytest.raises(ValueError):
        numeric_eval(w, 2)


def test_numeric_eval_rational_is_exact_float():
    assert numeric_eval(as_element(Fraction(-1, 2))) == complex(-0.5, 0)


def test_numeric_eval_refuses_what_it_cannot_show():
    # a rational has one root, index 0, as a ring of degree n has n
    for x in (as_element(Fraction(-1, 2)), GAUSS.element([4, 3])):
        for index in (-1, x.ring.degree, 9):
            with pytest.raises(ValueError, match=f"root index {index} out of range"):
                numeric_eval(x, index)
    assert numeric_eval(as_element(Fraction(-1, 2)), 0) == complex(-0.5, 0)
    for x in (as_element(10 ** 400), GAUSS.element([1, Fraction(-(10 ** 400), 3)])):
        with pytest.raises(ValueError, match="out of floating-point range"):
            numeric_eval(x, 0)


_wide = st.builds(Fraction, st.integers(-(10 ** 330), 10 ** 330), st.integers(1, 10 ** 330))


@given(
    st.sampled_from([RATIONAL_RING, GAUSS, CBRT2]).flatmap(
        lambda ring: st.tuples(
            st.just(ring),
            st.lists(st.one_of(_rationals, _wide), min_size=ring.degree, max_size=ring.degree),
            st.integers(0, ring.degree - 1),
        )
    )
)
@example((RATIONAL_RING, [Fraction(10 ** 320, 3)], 0))
@example((GAUSS, [Fraction(1, 3), Fraction(10 ** 309, 7)], 1))
def test_numeric_eval_reads_the_numerators_as_the_fractions_read(case):
    # c/den for each numerator c rounds as float(Fraction(c, den)) does, and
    # overflows where it does
    ring, coords, root = case
    x = ring.element(coords)
    try:
        if ring.degree == 1:
            want = complex(float(x.coeffs[0]), 0.0)
        else:
            at = _ring_roots(ring.minpoly)[root]
            want = reduce(lambda acc, c: acc * at + float(c), reversed(x.coeffs), 0j)
    except OverflowError:
        with pytest.raises(ValueError, match="out of floating-point range"):
            numeric_eval(x, root)
    else:
        assert repr(numeric_eval(x, root)) == repr(want)  # repr: nan and -0.0 compare too


def _mpmath_roots(minpoly: tuple[Fraction, ...]) -> tuple[complex, ...]:
    """The roots of a modulus as mpmath's Durand-Kerner iteration finds them,
    60 digits and 200 guard bits, each rounded to complex floats and ordered
    as the preview orders them: the reference for the package's own finder."""
    import mpmath  # a test dependency only, as numpy is the bench's

    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(minpoly)]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
    return tuple(sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag)))


def _reference_moduli() -> list[tuple[Fraction, ...]]:
    """Phi_3 ... Phi_30; x^n - r for n = 2..6 over the r of _weights(), 10^-45
    to 10^65 in size; 100 random integer and rational moduli of degree <= 8;
    and two with repeated roots, (x - 1)^2 and (x^2 + 1)^2."""
    rng = random.Random(25)
    moduli = [cyclotomic(n) for n in range(3, 31)]
    for n in range(2, 7):
        for scale in range(-45, 66, 10):
            p, q = rng.choice([-9, -7, -2, -1, 1, 3, 8, 9]), rng.randint(1, 4)
            r = Fraction(p * 10 ** max(scale, 0), q * 10 ** max(-scale, 0))
            moduli.append([-r] + [0] * (n - 1) + [1])
    for _ in range(50):
        moduli.append([rng.randint(-20, 20) for _ in range(rng.randint(2, 8))] + [1])
        moduli.append([Fraction(rng.randint(-50, 50), rng.randint(1, 30)) for _ in range(rng.randint(2, 8))] + [1])
    moduli += [(1, -2, 1), (1, 0, 2, 0, 1)]
    return [tuple(map(Fraction, m)) for m in moduli]


def test_ring_roots_are_mpmaths_to_the_bit():
    # every root rounds to the float that mpmath's 60-digit root rounds to
    # (repr: a zero's sign compares too)
    for minpoly in _reference_moduli():
        assert repr(_ring_roots(minpoly)) == repr(_mpmath_roots(minpoly)), minpoly


@pytest.mark.parametrize(
    "minpoly, roots",
    [
        # mpmath reads a root below its tolerance, 10^-61, as 0
        ((Fraction(-1, 10 ** 300), 0, 1), (-1e-150 + 0j, 1e-150 + 0j)),
        # a root below the floats reads 0.0, unsigned, as in mpmath
        ((Fraction(-1, 10 ** 800), 0, 1), (0j, 0j)),
        # mpmath's iteration does not converge in 200 steps on these two
        ((-(10 ** 400), 0, 1), (-1e200 + 0j, 1e200 + 0j)),
        ((-1, 3, -3, 1), (1 + 0j, 1 + 0j, 1 + 0j)),
    ],
    ids=["tiny", "below-floats", "huge", "triple"],
)
def test_ring_roots_past_mpmath(minpoly, roots):
    assert repr(_ring_roots(tuple(map(Fraction, minpoly)))) == repr(roots)


def test_a_dense_degree_120_modulus_previews():
    # random.Random(1), coefficients in +-20: from a fixed starting circle of
    # radius 1/2 the root finder did not converge at degree 120
    rng = random.Random(1)
    minpoly = tuple(Fraction(rng.randint(-20, 20)) for _ in range(120)) + (Fraction(1),)
    roots = _ring_roots(minpoly)
    assert len(set(roots)) == 120
    # Vieta: the roots add up to -f_119 and, at even degree, multiply to f_0
    assert cmath.isclose(sum(roots), -minpoly[119], rel_tol=1e-9, abs_tol=1e-9)
    assert cmath.isclose(reduce(lambda x, y: x * y, roots), minpoly[0], rel_tol=1e-9)
    theta = LambdaSpec.custom(minpoly, [0, 1]).element()
    assert [numeric_eval(theta, k) for k in (0, 60, 119)] == [roots[0], roots[60], roots[119]]


def _fraction_gcd(p, q):
    """Monic gcd over Q[x] by Euclid's algorithm over Fractions ([] when both
    are zero): the reference for polys.gcd."""
    r0, r1 = polys.trim([Fraction(c) for c in p]), polys.trim([Fraction(c) for c in q])
    while r1:
        r0, r1 = r1, polys.divmod_exact(r0, r1)[1]
    return [c / r0[-1] for c in r0]


_int_polys = st.lists(st.integers(-30, 30), max_size=7)
_rational_polys = st.lists(st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9)), max_size=7)


@given(st.sampled_from([_int_polys, _rational_polys]).flatmap(lambda polys: st.tuples(polys, polys, polys)))
@example(([], [], []))
@example(([0, 0], [7], [0]))
@example(([1, 2, 1], [-1, 0, 1], [2, 3, 1]))  # (x + 1)^2 times (x - 1)(x + 1) and (x + 1)(x + 2)
def test_gcd_matches_the_fraction_euclid(case):
    # every pair also with a planted common factor, and against zero and a constant
    common, p, q = case
    pairs = [(p, q), (_poly_mul(common, p), _poly_mul(common, q)), (common, []), ([], q), ([5], q)]
    for a, b in pairs:
        got = polys.gcd(a, b)
        assert got == _fraction_gcd(a, b), (a, b)
        assert all(type(c) is Fraction for c in got)


# --- weight specifications --------------------------------------------------


def test_parse_rational_forms():
    assert LambdaSpec.parse("7").element() == 7
    assert LambdaSpec.parse(" -1 / 2 ").element() == Fraction(-1, 2)
    assert LambdaSpec.parse("-1").element() == -1


def test_parse_root_and_zeta_and_elem():
    lam = LambdaSpec.parse("root(3, 2)").element()
    assert lam.ring == CBRT2 and lam == CBRT2.generator
    z = LambdaSpec.parse("zeta(5)").element()
    assert z.ring == ZETA5
    w = LambdaSpec.parse("elem(minpoly=[1, 0, 1]; coeffs=[4, 3])").element()
    assert w == GAUSS.element([4, 3])


def test_parse_normalizes_degree_one_inputs():
    assert LambdaSpec.parse("zeta(2)").element() == as_element(-1)
    assert LambdaSpec.parse("root(1, 5/3)").element() == Fraction(5, 3)
    assert LambdaSpec.parse("elem(minpoly=[-3,1];coeffs=[5])").element() == 5
    # 1 + 2*3 + 5*3^2: the coordinates are reduced modulo x - 3
    assert LambdaSpec.parse("elem(minpoly=[-3,1];coeffs=[1,2,5])").element() == 52


def test_parse_rejects_degenerate_weights():
    for bad in ["0", "1", "2/2", "zeta(1)", "root(4, 0)", "elem(minpoly=[1,0,1];coeffs=[1,0])"]:
        with pytest.raises(ValueError):
            LambdaSpec.parse(bad)
    # a nontrivial rational collapse is fine
    assert LambdaSpec.parse("elem(minpoly=[-3,1];coeffs=[1/3])").element() == Fraction(1, 3)


def test_parse_rejects_malformed_text():
    for bad in ["0.5", "root(3)", "zeta()", "elem(minpoly=[1];coeffs=[1])", "sqrt(2)", "1/0"]:
        with pytest.raises(ValueError):
            LambdaSpec.parse(bad)


def test_spec_text_roundtrip():
    for text in ["7", "-1/2", "root(3,2)", "zeta(5)", "elem(minpoly=[1,0,1];coeffs=[4,3])"]:
        spec = LambdaSpec.parse(text)
        again = LambdaSpec.parse(str(spec))
        assert again.element() == spec.element()


def test_embeddings_from_specs():
    # root(n, r) previews at its principal root, zeta(n) at e^{2 pi i/n}
    assert LambdaSpec.parse("root(3,2)").preview == pytest.approx(2 ** (1 / 3))
    assert LambdaSpec.parse("root(2,-3)").preview == pytest.approx(3 ** 0.5 * 1j)
    assert LambdaSpec.parse("zeta(5)").preview == cmath.exp(2j * cmath.pi / 5)
    assert LambdaSpec.parse("7").preview == 0


_SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _weights(draw):
    """(text, element, root) for a weight of any of the four kinds: the
    element built without LambdaSpec (None for root(n, 0), whose theta is
    not zero but which is refused), and the root that a preview must pick
    (None where the element is rational or the preview is root index 0)."""
    kind = draw(st.sampled_from(["rational", "root", "zeta", "elem"]))
    if kind == "zeta":
        n = draw(st.integers(1, 12))
        modulus = cyclotomic(n)
        if len(modulus) == 2:
            return f"zeta({n})", as_element(-modulus[0]), None
        return f"zeta({n})", NumberRing(modulus).generator, cmath.exp(2j * cmath.pi / n)
    if kind == "elem":
        minpoly = draw(st.lists(_SMALL_RATIONALS, min_size=1, max_size=3)) + [1]
        coeffs = draw(st.lists(_SMALL_RATIONALS, max_size=4))
        elem = NumberRing(minpoly).element(coeffs)
        if elem.ring.degree == 1:
            elem = as_element(elem.coeffs[0])
        listed = [",".join(map(str, minpoly)), ", ".join(map(str, coeffs))]
        return "elem(minpoly=[{}]; coeffs=[{}])".format(*listed), elem, None
    p, q = draw(st.integers(-9, 9)), draw(st.integers(1, 4))  # text not in lowest terms
    if kind == "rational":
        return f" {p}/{q}", as_element(Fraction(p, q)), None
    scale = draw(st.integers(-45, 65))  # roots far from 1 in both directions
    p, q = p * 10 ** max(scale, 0), q * 10 ** max(-scale, 0)
    r = Fraction(p, q)
    n = draw(st.integers(1, 6))
    text = f"root({n}, {p}/{q})"
    if r == 0:
        return text, None, None
    if n == 1:
        return text, as_element(r), None
    principal = abs(r) ** (1 / n) * (1 if r > 0 else cmath.exp(1j * cmath.pi / n))
    return text, NumberRing([-r] + [0] * (n - 1) + [1]).generator, principal


@given(_weights())
@example(("root(3,2)", CBRT2.generator, 2 ** (1 / 3)))
@example(("root(2,-3)", NumberRing([3, 0, 1]).generator, 3 ** 0.5 * 1j))
@example(("zeta(5)", ZETA5.generator, cmath.exp(2j * cmath.pi / 5)))
@example((f"root(2,{10 ** 33})", NumberRing([-10 ** 33, 0, 1]).generator, 10 ** 16.5))
@example((f"root(3,{-10 ** 60})", NumberRing([10 ** 60, 0, 0, 1]).generator,
          1e20 * cmath.exp(1j * cmath.pi / 3)))
@example((f"root(2,1/{10 ** 40})", NumberRing([Fraction(-1, 10 ** 40), 0, 1]).generator, 1e-20))
@example(("zeta(1)", as_element(1), None))
@example(("root(4,0)", None, None))
@example(("elem(minpoly=[1,0,1];coeffs=[1,0])", GAUSS.one, None))
@example(("elem(minpoly=[-1,1];coeffs=[0,1])", as_element(1), None))  # theta = 1
def test_weight_description_is_built_once(weight):
    text, elem, root = weight
    if elem is None or elem.is_zero or elem == elem.ring.one:
        refused = 1 if elem is not None and not elem.is_zero else 0
        with pytest.raises(ValueError, match=f"^weight {refused} is not allowed"):
            LambdaSpec.parse(text)
        return
    spec = LambdaSpec.parse(text)
    assert spec.element() == elem  # a ring of degree 1 collapses to the rationals
    again = LambdaSpec.parse(str(spec))
    assert (str(again), again.element(), again.preview) == (str(spec), elem, spec.preview)
    if root is None:
        assert spec.preview == 0 or elem.ring.degree == 1
    else:  # the principal root of root(n, r), e^{2 pi i/n} for zeta(n)
        assert abs(numeric_eval(elem, spec.preview) - root) < 1e-9 * abs(root)


def test_element_json_roundtrip():
    for lam in [LambdaSpec.parse(t).element() for t in ["-1/2", "root(3,2)", "zeta(5)"]]:
        value = (lam + 3) * lam - Fraction(1, 7)
        data = element_to_json(value)
        assert element_from_json(data) == value


def test_long_coefficient_vectors_reduce():
    assert CBRT2.element([0, 0, 0, 1]) == 2  # theta^3
    assert CBRT2.element([1, 0, 0, 0, 0, 0, 1]) == 5  # 1 + theta^6 = 1 + 4
    # theta^4 = theta * theta^3 = 2/5 theta^2 - 1/3 theta
    x = NONINTEGRAL.element([Fraction(1, 2), 0, 0, 0, 1])
    assert x.coeffs == (Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5))
    assert NONINTEGRAL.generator ** 4 == x - Fraction(1, 2)


def test_reflected_scalar_arithmetic():
    theta = CBRT2.generator
    assert 3 - theta == -(theta - 3)
    assert Fraction(1, 2) + theta == theta + Fraction(1, 2)
    assert (6 / (theta + 1)) * (theta + 1) == 6
    with pytest.raises(ZeroDivisionError):
        theta / 0


def test_rational_value_requires_rational():
    with pytest.raises(ValueError):
        CBRT2.generator.rational_value()


def test_string_rendering():
    assert str(CBRT2.generator ** 2 - 1) == "-1 + θ^2"
    assert str(GAUSS.element([0, Fraction(-1, 2)])) == "-1/2*θ"
    assert str(CBRT2.zero) == "0"
    assert "Q[θ]" in str(CBRT2)


def _format_poly(coeffs: Sequence[Fraction], var: str = "θ") -> str:
    # the Fraction-based formatter that format_poly replaced, kept as the reference
    parts: list[str] = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            term = str(c)
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            power = var if i == 1 else f"{var}^{i}"
            term = f"{mag}{power}"
            if c < 0:
                term = "-" + term
            if parts and not term.startswith("-"):
                term = "+" + term
        parts.append(term)
    if not parts:
        return "0"
    text = parts[0]
    for p in parts[1:]:
        text += f" {p[0]} {p[1:]}" if p[0] in "+-" else f" + {p}"
    return text


_HUGE = Fraction(-(3 ** 6000), 7 ** 100)  # 2,863 digits over 85, under the int-to-str cap
_coordinates = st.one_of(
    st.sampled_from([0, 1, -1]),
    st.integers(-99, 99),
    st.builds(Fraction, st.integers(-99, 99), st.integers(2, 99)),
    st.just(_HUGE),
)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(*[st.lists(_coordinates, min_size=n, max_size=n)] * 2)
    )
)
@example(([-2, 0, 0], [0, 0, -1]))  # only the top coordinate, -1
@example(([0, 0], [0, 0]))  # zero
@example(([1, -1, 1, -1, 1, -1], [Fraction(1, 2), -1, 1, 0, _HUGE, -_HUGE]))
def test_format_poly_reads_the_exact_strings(case):
    # one formatter reads the coordinates' decimal strings, whoever made them
    modulus, coords = case
    ring = NumberRing([*modulus, 1])
    x = ring.element(coords)
    want = _format_poly(x.coeffs)
    assert str(x) == want
    assert format_poly(element_to_json(x)["coeffs"]) == want  # the CLI's display
    assert str(ring) == f"Q[θ]/({_format_poly(ring.minpoly)})"


# --- inversion by norm and adjugate -----------------------------------------

HALF = NumberRing([Fraction(1, 2), 0, 1])  # theta^2 = -1/2, a non-integral modulus
QUARTER = NumberRing([Fraction(1, 4), 0, 1])  # theta^2 = -1/4: integral at T = 2, not 4
EIGHTH = NumberRing([Fraction(-1, 8), 0, 0, 1])  # theta^3 = 1/8: integral at T = 2, not 8
ROOT5_32 = NumberRing([Fraction(-1, 32), 0, 0, 0, 0, 1])  # theta^5 = 1/32, has the factor x - 1/2
NORM_RINGS = [RATIONAL_RING, CBRT2, GAUSS, ZETA5, HALF, ROOT5_32, NONINTEGRAL]


def _norm_ring_and_vector():
    small = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
    return st.sampled_from(NORM_RINGS).flatmap(
        lambda ring: st.tuples(
            st.just(ring),
            st.lists(st.one_of(small, _rationals), min_size=ring.degree, max_size=ring.degree),
        )
    )


def _determinant(rows):
    """Determinant of a square matrix of Fractions by Gaussian elimination."""
    rows = [list(r) for r in rows]
    n, det = len(rows), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, n):
            f = rows[r][col] / rows[col][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return det


@given(_norm_ring_and_vector())
def test_inverse_by_norm_property(case):
    ring, xc = case
    x = ring.element(xc)
    if x.is_zero:
        return
    # the norm is the determinant of multiplication by x, read column by column
    basis = [ring.element([Fraction(int(i == j)) for i in range(ring.degree)]) for j in range(ring.degree)]
    columns = [(x * b).coeffs for b in basis]
    norm = _determinant(list(zip(*columns)))
    if norm == 0:
        with pytest.raises(ReducibleModulusError) as info:
            x.inverse()
        factor = info.value.factor
        assert len(factor) > 1 and factor[-1] == 1
        assert not polys.divmod_exact(ring.minpoly, factor)[1]
        assert not polys.divmod_exact(xc, factor)[1]
        return
    adj, n = x.adjugate()
    assert n == norm and x * adj == norm
    inv = x.inverse()
    _assert_canonical(inv)
    assert x * inv == 1 and inv * x == 1


def test_inverse_in_degree_two_and_up_runs_no_euclid(monkeypatch):
    # the Euclid over the rationals only names the factor of a reducible
    # modulus; an invertible element never reaches it
    def no_euclid(*args):
        raise AssertionError("polynomial gcd called for an invertible element")

    monkeypatch.setattr("gapsums.polys.gcd", no_euclid)
    rng = random.Random(5)
    for ring in (CBRT2, GAUSS, ZETA5, GOLDEN, HALF, ROOT5_32, NONINTEGRAL):
        for _ in range(30):
            x = ring.element([Fraction(rng.randint(-99, 99), rng.randint(1, 30)) for _ in range(ring.degree)])
            if not x.is_zero:
                assert x * x.inverse() == 1
    # theta - 1/2 is a zero divisor modulo x^5 - 1/32
    with pytest.raises(AssertionError, match="polynomial gcd"):
        ROOT5_32.element([Fraction(-1, 2), 1]).inverse()


# --- every ring over an integral modulus ------------------------------------
#
# A ring stores its elements in the basis of T theta; the references below
# compute in the basis of theta with Fractions, so they share nothing with
# the change of basis.


def _theta_reduced(minpoly, p):
    """The theta-coordinates of the polynomial ``p`` modulo ``minpoly``."""
    rem = polys.divmod_exact(p, minpoly)[1]
    return tuple(rem) + (Fraction(0),) * (len(minpoly) - 1 - len(rem))


@st.composite
def _rational_ring_and_vectors(draw):
    """HALF, QUARTER, EIGHTH, ROOT5_32, NONINTEGRAL or a random monic
    rational modulus of degree <= 5, with two theta-coordinate vectors."""
    small = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
    if draw(st.booleans()):
        ring = draw(st.sampled_from([HALF, QUARTER, EIGHTH, ROOT5_32, NONINTEGRAL]))
    else:
        n = draw(st.integers(1, 5))
        ring = NumberRing(draw(st.lists(small, min_size=n, max_size=n)) + [1])
    vectors = st.lists(st.one_of(small, _rationals), min_size=ring.degree, max_size=ring.degree)
    return ring, draw(vectors), draw(vectors)


@given(_rational_ring_and_vectors())
@example((HALF, [Fraction(1, 3), Fraction(5, 7)], [0, 1]))
@example((ROOT5_32, [Fraction(-1, 2), 1, 0, 0, 0], [1, 2, 3, 4, 5]))  # a zero divisor
@example((QUARTER, [4, 3], [Fraction(-1, 3), Fraction(7, 2)]))
@example((EIGHTH, [Fraction(1, 5), -2, 3], [0, Fraction(1, 4), 9]))
def test_rational_moduli_match_theta_coordinates(case):
    ring, xc, yc = case
    x, y = ring.element(xc), ring.element(yc)
    assert x.coeffs == _theta_reduced(ring.minpoly, xc)
    assert ring.element(x.coeffs) == x
    assert (x + y).coeffs == _theta_reduced(ring.minpoly, [a + b for a, b in zip(xc, yc)])
    assert (x * y).coeffs == _theta_reduced(ring.minpoly, _poly_mul(xc, yc))
    assert (x.numerator * y.numerator).den == 1  # integral times integral is integral
    if x.is_zero:
        return
    try:
        inv = x.inverse()
    except ReducibleModulusError as err:
        assert len(err.factor) > 1 and err.factor[-1] == 1
        assert not polys.divmod_exact(ring.minpoly, err.factor)[1]
        assert not polys.divmod_exact(xc, err.factor)[1]
        return
    assert _theta_reduced(ring.minpoly, _poly_mul(xc, inv.coeffs)) == ring.one.coeffs


@pytest.mark.parametrize("spec, ring, modulus", [
    ("root(3,1/8)", EIGHTH, (-1, 0, 0, 1)),
    ("elem(minpoly=[1/4,0,1];coeffs=[4,3])", QUARTER, (1, 0, 1)),
])
def test_a_ring_takes_the_least_scale(spec, ring, modulus):
    # T^n f(x/T) is integral at T = 2 for both moduli, where the lcm of the
    # denominators is 8 and 4; test_rational_moduli_match_theta_coordinates
    # holds their arithmetic to the theta-coordinates
    lam = LambdaSpec.parse(spec).element()
    assert lam.ring == ring and ring._scale == 2 and ring._modulus == modulus


# root(3, 3/2) and root(3, 1/2) run the moment kernel; elem(...) is i, of
# order 4, which runs the class sums, and the unity-a branch where 4 | a
NONINTEGRAL_WEIGHTS = ["root(3,3/2)", "root(3,1/2)", "elem(minpoly=[1/4,0,1];coeffs=[0,2])"]


@pytest.mark.parametrize("spec", NONINTEGRAL_WEIGHTS)
def test_paths_agree_over_nonintegral_moduli(spec, monkeypatch):
    lam = LambdaSpec.parse(spec).element()
    c = order(lam)
    assert c == (4 if spec.startswith("elem") else None)
    class_sums = []
    honest = sylvester._class_moments
    monkeypatch.setattr(sylvester, "_class_moments", lambda *args: class_sums.append(1) or honest(*args))
    # a = 12 and 8 with 4 | a; a = 10, 9 and 7 without, and d = 4 on the last progression
    progressions = [ArithProgression(12, 5, 3), ArithProgression(10, 3, 4), ArithProgression(9, 4, 3)]
    sets = [ap.generators() for ap in progressions] + [Generators([8, 11, 13]), Generators([7, 10, 12])]
    mus = (1, 2, 3)
    for gens in sets:
        del class_sums[:]
        values, branch = weighted_sums(apery_general(gens), mus, lam)
        assert branch == ("unity-a" if c and gens.modulus % c == 0 else "general"), gens
        assert bool(class_sums) == (c is not None), gens
        gs = oracle.gap_set(gens)
        assert values == {mu: oracle.weighted_sum(gs, mu, lam) for mu in mus}, gens
    for ap in progressions:
        closed, _ = weighted_sums_ap(ap, mus, lam)
        assert closed == weighted_sums(apery_general(ap.generators()), mus, lam)[0], ap
