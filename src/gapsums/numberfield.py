"""Exact arithmetic in quotient rings Q[theta]/(f), f monic with rational
coefficients.

This is where weight values live: plain rationals, real radicals such as the
cube root of 2, roots of unity, and Gaussian-style elements like 4 + 3i.  All
ring arithmetic is exact; a floating-point complex preview is available
through :func:`numeric_eval` but never feeds back into exact computation.
The roots of a modulus of degree >= 2 that such a preview needs are found
with the standard library: Aberth-Ehrlich iteration in complex floats, then
Newton's method in 192-bit Gaussian integers, rounded once to floats.

Every ring computes over an integral modulus: an element is stored in the
power basis of theta' = T theta, T the lcm of the denominators of f, a root
of the monic integral T^n f(x/T) (Cohen, *A Course in Computational
Algebraic Number Theory*, section 3.1), as an integer numerator vector over
one common denominator, kept in lowest terms (section 4.2).  Sums and
products run on Python ints with a single gcd per result, skipped when the
denominator is 1; reduction stays in the integers, and degree-1 products
are a single integer product.

Inversion is 1/z = adj(z)/N(z) in every ring (adj(z) = 1 for a rational),
with the norm N(z) and the adjugate adj(z) of z's multiplication matrix read
off its characteristic polynomial (Faddeev-LeVerrier, with traces taken from
the power sums of the roots of the integral modulus): a handful of integer
ring products and one gcd.  Moduli are not factored up front: an element of
norm 0 is a zero divisor, and inverting it raises a
:class:`ReducibleModulusError` naming the factor of the modulus it shares
(the one place the exact arithmetic runs a polynomial Euclid).
"""
from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count
from math import exp, frexp, gcd, isqrt, lcm, ldexp, log, prod
from operator import mul, sub
from typing import Iterable, Sequence

from . import polys

__all__ = [
    "LambdaSpec",
    "NumberRing",
    "RATIONAL_RING",
    "ReducibleModulusError",
    "RingElement",
    "RingMismatchError",
    "as_element",
    "cyclotomic",
    "element_from_json",
    "element_to_json",
    "format_poly",
    "is_power_unity",
    "numeric_eval",
    "order",
]

Rational = int | Fraction


class RingMismatchError(ValueError):
    """Two elements from different rings were combined."""


class ReducibleModulusError(ArithmeticError):
    """An inversion exposed a nontrivial factor of the ring modulus."""

    def __init__(self, factor: Sequence[Fraction]):
        self.factor = tuple(factor)
        super().__init__(
            "modulus is reducible: found factor with ascending coefficients "
            f"[{', '.join(str(c) for c in self.factor)}]"
        )


class NumberRing:
    """The quotient ring Q[theta]/(f).

    ``minpoly`` is the full ascending coefficient vector of f including the
    leading 1, so ``NumberRing([-2, 0, 0, 1])`` is Q[theta]/(theta^3 - 2).
    A degree-1 ring is canonically the rationals.

    Elements are stored in the power basis of theta' = T theta (T =
    ``_scale``, :func:`_least_scale`, so 1 for an integral f), a root of the
    monic integral ``_modulus`` T^n f(x/T): reduction never leaves the
    integers.
    """

    __slots__ = ("minpoly", "_scale", "_modulus", "_tail")

    def __init__(self, minpoly: Iterable[Rational]):
        coeffs = tuple(Fraction(c) for c in minpoly)
        if len(coeffs) < 2:
            raise ValueError("ring modulus must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("ring modulus must be monic")
        self.minpoly = coeffs
        n = len(coeffs) - 1
        self._scale = scale = _least_scale(coeffs)
        self._modulus = tuple(int(c * scale ** (n - i)) for i, c in enumerate(coeffs))
        self._tail = tuple((t, -c) for t, c in enumerate(self._modulus[:-1]) if c)

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    @property
    def zero(self) -> RingElement:
        return _element(self, (0,) * self.degree, 1)

    @property
    def one(self) -> RingElement:
        return _element(self, (1,) + (0,) * (self.degree - 1), 1)

    @property
    def generator(self) -> RingElement:
        """The class of theta (reduced, so a constant in a degree-1 ring)."""
        return self.element([0, 1])

    def element(self, coeffs: Iterable[Rational]) -> RingElement:
        """Build an element from its coordinates in the power basis of theta,
        reducing if needed; c theta^j is stored as (c / T^j) theta'^j."""
        if self._scale != 1:
            coeffs = [Fraction(c) / self._scale ** j for j, c in enumerate(coeffs)]
        num, den = _common_denominator(coeffs)
        if len(num) > self.degree:
            self._reduce(num)
        num.extend([0] * (self.degree - len(num)))
        return _canonical(self, num, den)

    def from_rational(self, value: Rational) -> RingElement:
        if isinstance(value, int):
            return _element(self, (value,) + (0,) * (self.degree - 1), 1)
        value = Fraction(value)
        return _element(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)

    def _reduce(self, vec: list[int]) -> None:
        """Reduce the integer vector ``vec`` (coordinates in theta') modulo the
        integral modulus in place, down to ``degree`` entries."""
        n = self.degree
        for deg in range(len(vec) - 1, n - 1, -1):
            c = vec[deg]
            if c:
                base = deg - n
                for t, m in self._tail:
                    vec[base + t] += c * m
        del vec[n:]

    def multiply(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        """The product of two integer coordinate vectors in the basis of
        theta', reduced: the numerator of a product of ring elements."""
        if len(x) == 1:
            return (x[0] * y[0],)
        prod = [0] * (2 * len(x) - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y, i):
                    if b:
                        prod[j] += a * b
        self._reduce(prod)
        return tuple(prod)

    def matrix(self, x: Sequence[int]) -> tuple[tuple[int, ...], ...]:
        """The rows of the integer matrix of multiplication by the coordinate
        vector ``x``: column j holds x theta'^j, so row i dotted with the
        coordinates of y is coordinate i of x y."""
        columns, column = [], list(x)
        for _ in range(self.degree):
            columns.append(column)
            top, column = column[-1], [0, *column[:-1]]  # times theta', then
            if top:  # theta'^n = -sum_t f_t theta'^t for the integral modulus f
                for t, m in self._tail:
                    column[t] += top * m
        return tuple(zip(*columns))

    def from_numerator(self, num: Sequence[int]) -> RingElement:
        """The element with integer coordinates ``num`` in the basis of
        theta' (as :attr:`RingElement.numerator` reads them back)."""
        return _element(self, tuple(num), 1)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NumberRing) and self.minpoly == other.minpoly

    def __hash__(self) -> int:
        return hash(self.minpoly)

    def __repr__(self) -> str:
        return f"NumberRing([{_literals(self.minpoly)}])"

    def __str__(self) -> str:
        return f"Q[θ]/({format_poly(map(str, self.minpoly))})"


def _least_scale(coeffs: Sequence[Fraction]) -> int:
    """T = lcm_i T_i, T_i the least integer with den(c_i) | T_i^(n - i), so
    that T^n f(x/T) = sum_i c_i T^(n - i) x^i is integral: each prime p < 1024
    of den(c_i), to the power e, goes into T_i to the power ceil(e / (n - i)).
    A cofactor of larger primes goes in whole, so T never exceeds the lcm of
    the denominators: x^3 - 1/8 takes T = 2, where the lcm is 8."""
    n, scale = len(coeffs) - 1, 1
    for i, c in enumerate(coeffs[:-1]):
        den, least = c.denominator, 1
        for p in range(2, 1024):
            if den == 1:
                break
            e = 0
            while den % p == 0:
                den, e = den // p, e + 1
            least *= p ** -(-e // (n - i))
        scale = lcm(scale, least * den)
    return scale


def _literals(values: Iterable[Fraction]) -> str:
    """Rationals as Python literals, ints or Fractions, for a repr that evaluates back."""
    return ", ".join(repr(c.numerator if c.denominator == 1 else c) for c in values)


def _common_denominator(values: Iterable[Rational]) -> tuple[list[int], int]:
    """Integers ``num`` and ``den > 0`` with ``values == num / den``, in lowest
    terms (``den`` is the lcm of the denominators)."""
    fracs = [c if isinstance(c, int) else Fraction(c) for c in values]
    den = lcm(*(c.denominator for c in fracs))
    if den == 1:
        return [int(c) for c in fracs], 1
    return [c.numerator * (den // c.denominator) for c in fracs], den


def _element(ring: NumberRing, num: tuple[int, ...], den: int) -> RingElement:
    """Wrap an already canonical numerator tuple and denominator."""
    x = object.__new__(RingElement)
    x.ring = ring
    x.num = num
    x.den = den
    return x


def _canonical(ring: NumberRing, num: Sequence[int], den: int) -> RingElement:
    """Wrap ``num / den`` (``den > 0``) after dividing out their common gcd."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _element(ring, tuple(num), den)


class RingElement:
    """An element of a :class:`NumberRing`.

    Stored as an integer numerator vector ``num`` over one common
    denominator ``den``, in lowest terms: ``den > 0`` and
    ``gcd(den, *num) == 1``, so zero is ``(0, ..., 0) / 1`` and equal
    elements have equal fields.  ``num / den`` are the coordinates in the
    basis of theta' = T theta (:class:`NumberRing`), and ``coeffs`` those in
    the basis of theta, as Fractions on demand.  Elements are built by their
    ring (:meth:`NumberRing.element`).

    Immutable and hashable; arithmetic operators accept ints and Fractions on
    either side and promote them to constants of the same ring.
    """

    __slots__ = ("ring", "num", "den")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates in the power basis of theta."""
        den = self.den
        return tuple(Fraction(c, den) for c in self._theta_num)

    @property
    def _theta_num(self) -> Sequence[int]:
        """``den`` times the coordinates in the basis of theta: num_j T^j."""
        scale = self.ring._scale
        return self.num if scale == 1 else [c * scale ** j for j, c in enumerate(self.num)]

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatchError(
                    f"cannot combine elements of {self.ring} and {other.ring}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.from_rational(other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, int):
            # num/den + k = (num + k*den)/den, still in lowest terms
            num = list(self.num)
            num[0] += other * self.den
            return _element(self.ring, tuple(num), self.den)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        dx, dy = self.den, other.den
        if dx == dy:
            return _canonical(self.ring, [a + b for a, b in zip(self.num, other.num)], dx)
        g = gcd(dx, dy)
        fx, fy = dy // g, dx // g
        return _canonical(
            self.ring, [a * fx + b * fy for a, b in zip(self.num, other.num)], dx * fx
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, RingElement)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _element(self.ring, tuple(-a for a in self.num), self.den)

    def __mul__(self, other):
        if not isinstance(other, RingElement):
            if isinstance(other, int):
                if self.den == 1:
                    return _element(self.ring, tuple(a * other for a in self.num), 1)
                return _canonical(self.ring, [a * other for a in self.num], self.den)
            if isinstance(other, Fraction):
                return _canonical(
                    self.ring, [a * other.numerator for a in self.num], self.den * other.denominator
                )
            return NotImplemented
        self._coerce(other)  # raises RingMismatchError across rings
        return _canonical(self.ring, self.ring.multiply(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
        return NotImplemented

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if len(self.num) == 1:  # a rational: coprime powers stay in lowest terms
            return _element(self.ring, (self.num[0] ** exponent,), self.den ** exponent)
        if not exponent:
            return self.ring.one
        base = self
        while not exponent & 1:
            base = base * base
            exponent >>= 1
        result = base  # the lowest set bit; no product with one
        exponent >>= 1
        while exponent:
            base = base * base
            if exponent & 1:
                result = result * base
            exponent >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, RingElement):
            return self.num == other.num and self.den == other.den and self.ring == other.ring
        if isinstance(other, (int, Fraction)):
            return (
                self.is_rational
                and self.num[0] == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ring.minpoly, self.num, self.den))

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    @property
    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    @property
    def numerator(self) -> "RingElement":
        """The integer vector ``num`` as an element: self * den, unreduced."""
        return _element(self.ring, self.num, 1)

    def adjugate(self) -> tuple["RingElement", Rational]:
        """(adj, N) with self * adj == N: N is the norm of self, the
        determinant of multiplication by self, and adj its adjugate matrix
        read back as an element.

        Faddeev-LeVerrier on the numerator z (Cohen, section 4.2): from m_1 = 1,
        c_{n-k} = -Tr(z m_k)/k and m_{k+1} = z m_k + c_{n-k} give the
        characteristic polynomial sum_k c_k x^k of z, and z m_n = -c_0 by
        Cayley-Hamilton, which is checked.  z is integral over the integral
        modulus, so every c_k is an integer and the n - 1 products z m_k stay
        integral: no step reduces a fraction.

        Raises ZeroDivisionError for zero, and ReducibleModulusError naming
        gcd(z, f) when N = 0: z is then a zero divisor, which cannot happen
        over an irreducible modulus f.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        ring, den = self.ring, self.den
        n = ring.degree
        if n == 1:
            adj, norm = ring.one, self.num[0]
        else:
            traces = _traces(ring._modulus)
            z = self.numerator
            p, c = z, _trace_step(z, traces, 1)
            for k in range(2, n + 1):
                m = p + c
                p = z * m
                c = _trace_step(p, traces, k)
            if p != -c:
                raise ArithmeticError("characteristic polynomial check failed: internal fault")
            if not c:
                raise ReducibleModulusError(polys.gcd(self._theta_num, ring.minpoly))
            adj, norm = (m, -c) if n % 2 else (-m, c)
        if den == 1:
            return adj, norm
        return adj * Fraction(1, den ** (n - 1)), Fraction(norm, den ** n)

    def inverse(self) -> "RingElement":
        """Multiplicative inverse, den * adj(z) / N(z) for the numerator z, with
        one reduction; raises as :meth:`adjugate` does."""
        adj, norm = self.numerator.adjugate()
        return adj * Fraction(self.den, norm)

    def __repr__(self) -> str:
        return f"{self.ring!r}.element([{_literals(self.coeffs)}])"

    def __str__(self) -> str:
        return format_poly(map(str, self.coeffs))


@lru_cache(maxsize=256)
def _traces(modulus: tuple[int, ...]) -> tuple[int, ...]:
    """Tr(theta'^j) for j < n: the power sums of the roots of the integral
    ``modulus``, by Newton's identities."""
    n = len(modulus) - 1
    sums = [n]
    for k in range(1, n):
        sums.append(-k * modulus[n - k] - sum(modulus[n - i] * sums[k - i] for i in range(1, k)))
    return tuple(sums)


def _trace_step(x: RingElement, traces: Sequence[int], k: int) -> Rational:
    """-Tr(x)/k, as an int when it is one."""
    value = Fraction(-sum(map(mul, x.num, traces)), k * x.den)
    return value.numerator if value.denominator == 1 else value


def format_poly(coeffs: Iterable[str]) -> str:
    """The polynomial in θ whose power-basis coordinates are the exact decimal
    strings ``coeffs`` (``str`` of ints or Fractions), lowest power first;
    the sign is read from a leading "-", and a unit coefficient is left out."""
    text = ""
    for i, c in enumerate(coeffs):
        if c == "0":
            continue
        sign, mag = ("-", c[1:]) if c.startswith("-") else ("+", c)
        if i:
            power = "θ" if i == 1 else f"θ^{i}"
            mag = power if mag == "1" else f"{mag}*{power}"
        if text:
            text += f" {sign} {mag}"
        else:
            text = mag if sign == "+" else f"-{mag}"
    return text or "0"


RATIONAL_RING = NumberRing((0, 1))  # f(x) = x: the rationals


def as_element(value) -> RingElement:
    """Promote ints and Fractions into the canonical rational ring."""
    if isinstance(value, RingElement):
        return value
    if isinstance(value, (int, Fraction)):
        return RATIONAL_RING.from_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a ring element")


def is_power_unity(x: RingElement, e: int) -> bool:
    """True exactly when x^e = 1 in the ring: the order of x divides e."""
    if e < 1:
        raise ValueError("exponent must be positive")
    c = order(x)
    return c is not None and e % c == 0


@lru_cache(maxsize=256)
def order(x) -> int | None:
    """The least c >= 1 with x^c = 1, or None when no power of x is one.

    x^c = 1 makes the minimal polynomial of x a product of distinct Phi_m with
    sum phi(m) <= n, the ring's degree, so c divides N_n = lcm{m : phi(m) <= n}:
    x^(N_n) = 1 decides, and :func:`_order_dividing` splits N_n to find c.
    Such an x has norm +-1 and its powers integer traces of size <= n (sums of
    n roots of unity), so the raising to N_n stops early for most others."""
    x = as_element(x)
    n, traces = x.ring.degree, _traces(x.ring._modulus)
    try:
        if abs(x.adjugate()[1]) != 1:
            return None
    except (ZeroDivisionError, ReducibleModulusError):  # 0 and zero divisors
        return None
    parts = []  # (p, e) for N_n: p^e divides N_n while phi(p^e) <= n
    for p in (p for p in range(2, n + 2) if all(p % q for q in range(2, isqrt(p) + 1))):
        parts.append((p, next(e for e in count(1) if p ** e * (p - 1) > n)))
    power = x
    for p, e in parts:
        for _ in range(e):
            power = power ** p
            if abs(_trace_step(power, traces, 1)) not in range(n + 1):  # an integer, at most n
                return None
    if power != 1:
        return None
    return _order_dividing(x, parts)


def _order_dividing(x: RingElement, parts: Sequence[tuple[int, int]]) -> int:
    """The order of x when x^N = 1, N the product of p^e over ``parts``, pairs
    (p, e) of distinct primes p: each half of the parts is found from x raised
    by the other half's product, down to one prime, whose power is raised by
    p until it is one."""
    if x == 1:
        return 1
    if len(parts) == 1:
        (p, _), c = parts[0], 1
        while x != 1:
            x, c = x ** p, c * p
        return c
    low, high = parts[: len(parts) // 2], parts[len(parts) // 2 :]
    return _order_dividing(x ** prod(p ** e for p, e in high), low) * _order_dividing(
        x ** prod(p ** e for p, e in low), high
    )


@lru_cache(maxsize=256)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of Phi_n = prod_{d | n} (x^d - 1)^mu(n/d),
    one integer pass per factor: those with mu = +1 first, then divisions."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    factors = [(n, 1)]  # (n/e, mu(e)) over the squarefree divisors e of n
    for p in range(2, n + 1):
        if n % p == 0 and all(p % q for q in range(2, isqrt(p) + 1)):
            factors += [(d // p, -sign) for d, sign in factors]
    poly = [1]
    for d in (d for d, sign in factors if sign > 0):  # times x^d - 1
        poly = list(map(sub, [0] * d + poly, poly + [0] * d))
    for d in (d for d, sign in factors if sign < 0):  # over x^d - 1, exactly
        quot = [0] * d  # quot[i] = quot[i - d] - poly[i], after d zeros
        for c in poly[:-d]:
            quot.append(quot[-d] - c)
        assert quot[-d:] == poly[-d:]  # no remainder
        poly = quot[d:]
    return tuple(poly)


# ---------------------------------------------------------------------------
# numeric preview


_PREC = 192  # bits to which Newton's method refines each root, at its own scale


@lru_cache(maxsize=256)
def _ring_roots(minpoly: tuple[Fraction, ...]) -> tuple[complex, ...]:
    """The roots of the modulus with multiplicity, ordered by real part, then
    imaginary part.  Each is refined to _PREC bits and rounded once to complex
    floats; a component below 2^(-_PREC/2) of the other is noise and reads 0.
    Raises OverflowError past the floats, ValueError when no root is found.

    The roots at 0 are taken off first.  Then f has the roots of its
    squarefree part g = f / gcd(f, f') and those of gcd(f, f').  The roots of
    g are separated in floats (:func:`_aberth`), with g scaled by x = 2^s y
    so that no coefficient exceeds 1, and refined in integers (:func:`_newton`)."""
    zeros = next(i for i, c in enumerate(minpoly) if c)
    found = [0j] * zeros
    f = list(minpoly[zeros:])
    try:
        while len(f) > 1:
            h = polys.gcd(f, polys.derivative(f))
            g = polys.divmod_exact(f, h)[0]
            n = len(g) - 1
            # |g_k| < 2^bits, so s = max ceil(bits / (n - k)) gives 2^s >= |g_k|^(1/(n-k))
            s = max(-((c.numerator.bit_length() - c.denominator.bit_length() + 1) // (k - n))
                    for k, c in enumerate(g[:-1]) if c)
            ys = _aberth([float(c * Fraction(2) ** (s * (k - n))) for k, c in enumerate(g)][::-1])
            num, _ = _common_denominator(g)
            found += [_newton(num, s, y) for y in ys]
            f = h
    except ZeroDivisionError:  # a float or a Newton step divided by 0
        raise ValueError("root refinement did not converge") from None
    found.sort(key=lambda z: (z.real, z.imag))
    return tuple(found)


def _aberth(scaled: Sequence[float]) -> list[complex]:
    """The roots y of a monic squarefree polynomial with coefficients
    ``scaled``, highest first, each to about 30 bits, by Aberth-Ehrlich
    iteration.  No coefficient exceeds 1, so every root has |y| <= 2
    (Fujiwara's bound).  The estimates start on the circle of radius
    |g_0|^(1/n), the geometric mean of the root moduli: on a fixed circle,
    radius 1/2, a dense modulus of degree 120 did not converge in 100 sweeps.
    The roots of a cyclotomic modulus share one modulus, so they lie on that
    circle.  An estimate stays where it is once its step is below 2^-30 of
    it."""
    n = len(scaled) - 1
    radius = abs(scaled[-1]) ** (1 / n)
    ys = [cmath.rect(radius, (2 * cmath.pi * k + 1) / n) for k in range(n)]
    live = range(n)
    for _ in range(100):
        moving = []
        for k in live:
            y = ys[k]
            p, dp = 1.0, 0.0
            for c in scaled[1:]:
                dp = dp * y + p
                p = p * y + c
            if p:
                ratio = p / dp
                step = ratio / (1 - ratio * sum([1 / (y - z) for z in ys[:k] + ys[k + 1:]]))
                ys[k] = y - step
                if abs(step) > abs(y) * 2.0 ** -30:
                    moving.append(k)
        if not (live := moving):
            return ys
    raise ValueError("root refinement did not converge")


def _newton(num: Sequence[int], s: int, y: complex) -> complex:
    """The root of the integer polynomial g = ``num`` (ascending) next to
    x = 2^s y, to _PREC bits.  With x = 2^e w, |w| in [1/2, 1), Newton's
    method refines w as the Gaussian integer a + bi = 2^_PREC w, on the
    coefficients of g(2^e w) made integral.  Five steps take a 30-bit
    estimate past _PREC bits; the last step must be below 2^(-_PREC/2)."""
    shift = frexp(abs(y))[1]
    e, n = s + shift, len(num) - 1
    lift = _PREC - min(0, e * n + _PREC)  # the least shift e*k + lift is 0
    coeffs = [c << e * k + lift for k, c in enumerate(num)][::-1]
    a, b = int(ldexp(y.real, _PREC - shift)), int(ldexp(y.imag, _PREC - shift))
    for _ in range(5):
        p_a, p_b, d_a, d_b = coeffs[0], 0, 0, 0
        for c in coeffs[1:]:  # g(w) and g'(w) by Horner, in multiples of 2^-_PREC
            d_a, d_b = (d_a * a - d_b * b >> _PREC) + p_a, (d_a * b + d_b * a >> _PREC) + p_b
            p_a, p_b = (p_a * a - p_b * b >> _PREC) + c, p_a * b + p_b * a >> _PREC
        den = d_a * d_a + d_b * d_b
        step_a, step_b = (p_a * d_a + p_b * d_b << _PREC) // den, (p_b * d_a - p_a * d_b << _PREC) // den
        a, b = a - step_a, b - step_b
    if max(abs(step_a), abs(step_b)) >> _PREC // 2:
        raise ValueError("root refinement did not converge")
    if abs(a) < abs(b) >> _PREC // 2:
        a = 0
    elif abs(b) < abs(a) >> _PREC // 2:
        b = 0
    return complex(_ldexp_int(a, e - _PREC), _ldexp_int(b, e - _PREC))


def _ldexp_int(m: int, e: int) -> float:
    """m * 2^e rounded once to a float; below the floats, 0.0 and never -0.0."""
    return float(m << e) if e >= 0 else m / (1 << -e) or 0.0


def numeric_eval(x: RingElement, root: int | complex = 0) -> complex:
    """Approximate complex value of x at one root of the modulus.

    Diagnostic only; the result never feeds back into exact arithmetic.
    ``root`` is an index into the roots, ordered by real part, then imaginary
    part, or a point whose nearest root is taken (a weight's
    :attr:`LambdaSpec.preview` is either).  A rational is its own value, at
    its one root, index 0.  Raises ValueError past the roots or the floats.
    """
    x = as_element(x)
    if isinstance(root, int) and not 0 <= root < x.ring.degree:
        raise ValueError(f"root index {root} out of range")
    try:
        if x.ring.degree == 1:  # int true division rounds as float(Fraction(c, den)) does
            return complex(x.num[0] / x.den, 0.0)
        roots = _ring_roots(x.ring.minpoly)
        at = roots[root] if isinstance(root, int) else min(roots, key=lambda z: abs(z - root))
        return reduce(lambda acc, c: acc * at + c / x.den, reversed(x._theta_num), 0j)  # Horner
    except OverflowError:
        raise ValueError("numeric preview out of floating-point range") from None


# ---------------------------------------------------------------------------
# weight descriptions


_RAT = r"[+-]?\d+(?:/\d+)?"


@dataclass(frozen=True)
class LambdaSpec:
    """A weight value, described once: its canonical ``text`` (``str(spec)``),
    its exact element ``elem`` (:meth:`element`; a ring of degree 1 collapses
    to the rationals), and the ``preview`` root at which :func:`numeric_eval`
    shows values of its ring, a root index or a point.

    Built by one of four constructors:

    * :meth:`rational`: the value itself;
    * :meth:`root`: theta with theta^order = value (ring x^order - value),
      previewed at the principal root: the real one, or |value|^(1/order)
      e^{i pi/order} for a negative value;
    * :meth:`zeta`: a primitive order-th root of unity (cyclotomic modulus),
      previewed at e^{2 pi i/order};
    * :meth:`custom`: explicit power-basis coordinates over an explicit
      modulus, previewed at root index 0.

    The text grammar accepted by :meth:`parse` (whitespace-insensitive,
    exact rational literals only)::

        p/q | root(n, p/q) | zeta(n) | elem(minpoly=[c0, ..., 1]; coeffs=[b0, ...])

    A weight whose element is 0 or 1 is refused when it is built, and so is
    root(n, 0), whose theta is nilpotent rather than zero.
    """

    text: str
    elem: RingElement
    preview: int | complex = 0

    def __post_init__(self):
        if self.elem.is_zero:
            raise ValueError("weight 0 is not allowed")
        if self.elem == self.elem.ring.one:
            raise ValueError("weight 1 is not allowed (it degenerates to the unweighted sum)")

    @classmethod
    def rational(cls, value: Rational) -> "LambdaSpec":
        value = Fraction(value)
        return cls(str(value), RATIONAL_RING.from_rational(value))

    @classmethod
    def root(cls, order: int, value: Rational) -> "LambdaSpec":
        value = Fraction(value)
        if order < 1:
            raise ValueError("root order must be positive")
        if value == 0:
            raise ValueError("weight 0 is not allowed")
        # the principal root's length |value|^(1/order) is taken by logarithms,
        # since value may lie beyond float range; past e^709, the float limit,
        # the roots preview as inf whichever is picked
        log_length = (log(abs(value.numerator)) - log(value.denominator)) / order
        point = exp(min(log_length, 709.0)) * cmath.exp(1j * cmath.pi / order if value < 0 else 0)
        ring = NumberRing([-value] + [0] * (order - 1) + [1])
        return cls(f"root({order},{value})", _weight_element(ring, [0, 1]), point)

    @classmethod
    def zeta(cls, order: int) -> "LambdaSpec":
        if order < 1:
            raise ValueError("zeta order must be positive")
        elem = _weight_element(NumberRing(cyclotomic(order)), [0, 1])
        return cls(f"zeta({order})", elem, cmath.exp(2j * cmath.pi / order))

    @classmethod
    def custom(cls, minpoly: Iterable[Rational], coeffs: Iterable[Rational]) -> "LambdaSpec":
        minpoly, coeffs = [Fraction(c) for c in minpoly], [Fraction(c) for c in coeffs]
        text = f"elem(minpoly=[{','.join(map(str, minpoly))}];coeffs=[{','.join(map(str, coeffs))}])"
        return cls(text, _weight_element(NumberRing(minpoly), coeffs))

    @classmethod
    def parse(cls, text: str) -> "LambdaSpec":
        """Parse the weight grammar; raises ValueError on malformed input."""
        compact = re.sub(r"\s+", "", text)
        if re.fullmatch(_RAT, compact):
            return cls.rational(_parse_rational(compact))
        m = re.fullmatch(rf"root\((\d+),({_RAT})\)", compact)
        if m:
            return cls.root(int(m.group(1)), _parse_rational(m.group(2)))
        m = re.fullmatch(r"zeta\((\d+)\)", compact)
        if m:
            return cls.zeta(int(m.group(1)))
        m = re.fullmatch(r"elem\(minpoly=\[([^\]]*)\];coeffs=\[([^\]]*)\]\)", compact)
        if m:
            return cls.custom(_parse_rational_list(m.group(1)), _parse_rational_list(m.group(2)))
        raise ValueError(f"cannot parse weight specification {text!r}")

    def element(self) -> RingElement:
        """The weight as an exact ring element."""
        return self.elem

    def __str__(self) -> str:
        return self.text


def _weight_element(ring: NumberRing, coeffs: Sequence[Rational]) -> RingElement:
    """The element with power-basis coordinates ``coeffs``, in the rationals
    when ``ring`` has degree 1."""
    elem = ring.element(coeffs)
    return RATIONAL_RING.from_rational(elem.coeffs[0]) if ring.degree == 1 else elem


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def _parse_rational_list(text: str) -> list[Fraction]:
    if not text:
        return []
    return [_parse_rational(item) for item in text.split(",")]


# ---------------------------------------------------------------------------
# JSON round-tripping (used by the CLI output contract)


def element_to_json(x: RingElement) -> dict:
    """Serialize with rationals as strings so exactness survives the trip."""
    return {
        "ring": {"minpoly": [str(c) for c in x.ring.minpoly]},
        "coeffs": [str(c) for c in x.coeffs],
    }


def element_from_json(data: dict) -> RingElement:
    ring = NumberRing([Fraction(c) for c in data["ring"]["minpoly"]])
    return ring.element([Fraction(c) for c in data["coeffs"]])
