"""Exact arithmetic in quotient rings Q[theta]/(f), f monic with rational
coefficients.

This is where weight values live: plain rationals, real radicals such as the
cube root of 2, roots of unity, and Gaussian-style elements like 4 + 3i.  All
ring arithmetic is exact; a floating-point complex preview is available
through :func:`numeric_eval` but never feeds back into exact computation.
``mpmath`` is imported only when such a preview needs the roots of a modulus
of degree >= 2.

An element is an integer numerator vector over one common denominator, kept
in lowest terms (Cohen, *A Course in Computational Algebraic Number Theory*,
section 4.2).  Sums and products run on Python ints with a single gcd per
result, skipped when the denominator is 1; reduction by an integral modulus
stays in the integers, and degree-1 products are a single integer product.

Inversion of a rational is den/num; in a ring of degree >= 2 it is
1/z = adj(z)/N(z), with the norm N(z) and the adjugate adj(z) of z's
multiplication matrix read off its characteristic polynomial
(Faddeev-LeVerrier, with traces taken from the power sums of the roots of
the modulus).  Over an integral modulus that is a handful of integer ring
products and one gcd.  Moduli are not factored up front: an element of norm
0 is a zero divisor, and inverting it raises a
:class:`ReducibleModulusError` naming the factor of the modulus it shares
(the one place a Euclid over the rationals runs).
"""
from __future__ import annotations

import cmath
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count
from math import exp, gcd, isqrt, lcm, log, prod
from operator import mul
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

    The reduction rule theta^n = (t_0 + t_1 theta + ... + t_{n-1} theta^{n-1}) / T
    is kept as integers ``t`` over one positive denominator ``T`` (the lcm of
    the modulus denominators), so ``T == 1`` for every integral modulus and
    reduction never leaves the integers.
    """

    __slots__ = ("minpoly", "_tail", "_tail_den")

    def __init__(self, minpoly: Iterable[Rational]):
        coeffs = tuple(Fraction(c) for c in minpoly)
        if len(coeffs) < 2:
            raise ValueError("ring modulus must have degree >= 1")
        if coeffs[-1] != 1:
            raise ValueError("ring modulus must be monic")
        self.minpoly = coeffs
        tail, self._tail_den = _common_denominator([-c for c in coeffs[:-1]])
        self._tail = tuple((t, c) for t, c in enumerate(tail) if c)

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
        if self.degree == 1:
            return self.element([-self.minpoly[0]])
        return self.element([0, 1])

    def element(self, coeffs: Iterable[Rational]) -> RingElement:
        """Build an element from power-basis coordinates, reducing if needed."""
        num, den = _common_denominator(coeffs)
        if len(num) > self.degree:
            den *= self._reduce(num)
        num.extend([0] * (self.degree - len(num)))
        return _canonical(self, num, den)

    def from_rational(self, value: Rational) -> RingElement:
        if isinstance(value, int):
            return _element(self, (value,) + (0,) * (self.degree - 1), 1)
        value = Fraction(value)
        return _element(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)

    def _reduce(self, vec: list[int]) -> int:
        """Reduce the integer vector ``vec`` modulo f in place, down to
        ``degree`` entries; returns the factor by which the common
        denominator grows (a power of T, so 1 for integral moduli)."""
        n = self.degree
        tail_den = self._tail_den
        scale = 1
        for deg in range(len(vec) - 1, n - 1, -1):
            c = vec[deg]
            if c:
                if tail_den != 1:
                    for i in range(deg):
                        vec[i] *= tail_den
                    scale *= tail_den
                base = deg - n
                for t, m in self._tail:
                    vec[base + t] += c * m
        del vec[n:]
        return scale

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NumberRing) and self.minpoly == other.minpoly

    def __hash__(self) -> int:
        return hash(self.minpoly)

    def __repr__(self) -> str:
        return f"NumberRing([{', '.join(str(c) for c in self.minpoly)}])"

    def __str__(self) -> str:
        return f"Q[θ]/({_format_poly(self.minpoly)})"


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
    """An element of a :class:`NumberRing` in the power basis 1, theta, ...

    Stored as an integer numerator vector ``num`` over one common
    denominator ``den``, in lowest terms: ``den > 0`` and
    ``gcd(den, *num) == 1``, so zero is ``(0, ..., 0) / 1`` and equal
    elements have equal fields.  ``coeffs`` gives the coordinates as
    Fractions on demand.

    Immutable and hashable; arithmetic operators accept ints and Fractions on
    either side and promote them to constants of the same ring.
    """

    __slots__ = ("ring", "num", "den")

    def __init__(self, ring: NumberRing, coeffs: Sequence[Rational]):
        if len(coeffs) != ring.degree:
            raise ValueError("coefficient vector length must equal ring degree")
        num, den = _common_denominator(coeffs)
        self.ring = ring
        self.num = tuple(num)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

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
        ring = self.ring
        den = self.den * other.den
        x, y = self.num, other.num
        if len(x) == 1:
            return _canonical(ring, (x[0] * y[0],), den)
        prod = [0] * (2 * len(x) - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y, i):
                    if b:
                        prod[j] += a * b
        den *= ring._reduce(prod)
        return _canonical(ring, prod, den)

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
        Cayley-Hamilton, which is checked.  Over an integral modulus every
        c_k is an integer and the n - 1 products z m_k stay integral, so no
        step reduces a fraction.

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
            traces = _traces(ring.minpoly)
            z = self.numerator
            p, c = z, _trace_step(z, traces, 1)
            for k in range(2, n + 1):
                m = p + c
                p = z * m
                c = _trace_step(p, traces, k)
            if p != -c:
                raise ArithmeticError("characteristic polynomial check failed: internal fault")
            if not c:
                raise ReducibleModulusError(polys.gcd(self.num, ring.minpoly))
            adj, norm = (m, -c) if n % 2 else (-m, c)
        if den == 1:
            return adj, norm
        return adj * Fraction(1, den ** (n - 1)), Fraction(norm, den ** n)

    def inverse(self) -> "RingElement":
        """Multiplicative inverse: den/num for an element of a degree-1 ring
        (a rational), else den * adj(z) / N(z) for the numerator z, with one
        reduction; raises as :meth:`adjugate` does.
        """
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if self.ring.degree == 1:
            num = self.num[0]
            return _element(self.ring, (self.den if num > 0 else -self.den,), abs(num))
        adj, norm = self.numerator.adjugate()
        return adj * Fraction(self.den, norm)

    def __repr__(self) -> str:
        return f"RingElement({self.ring!r}, {tuple(str(c) for c in self.coeffs)})"

    def __str__(self) -> str:
        return _format_poly(self.coeffs)


@lru_cache(maxsize=None)
def _traces(minpoly: tuple[Fraction, ...]) -> tuple[Rational, ...]:
    """Tr(theta^j) for j < n: the power sums of the roots of the modulus, by
    Newton's identities; ints for an integral modulus."""
    n = len(minpoly) - 1
    coeffs = [int(c) if c.denominator == 1 else c for c in minpoly]  # int products are fast
    sums = [n]
    for k in range(1, n):
        sums.append(-k * coeffs[n - k] - sum(coeffs[n - i] * sums[k - i] for i in range(1, k)))
    return tuple(int(s) if s.denominator == 1 else s for s in sums)


def _trace_step(x: RingElement, traces: Sequence[Rational], k: int) -> Rational:
    """-Tr(x)/k, as an int when it is one."""
    value = Fraction(-sum(map(mul, x.num, traces)), k * x.den)
    return value.numerator if value.denominator == 1 else value


def _format_poly(coeffs: Sequence[Fraction], var: str = "θ") -> str:
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


RATIONAL_RING = NumberRing((0, 1))  # f(x) = x: the rationals


def as_element(value) -> RingElement:
    """Promote ints and Fractions into the canonical rational ring."""
    if isinstance(value, RingElement):
        return value
    if isinstance(value, (int, Fraction)):
        return RATIONAL_RING.from_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a ring element")


def is_power_unity(x: RingElement, e: int) -> bool:
    """True exactly when x^e = 1 in the ring."""
    if e < 1:
        raise ValueError("exponent must be positive")
    x = as_element(x)
    return x ** e == x.ring.one


@lru_cache(maxsize=256)
def order(x) -> int | None:
    """The least c >= 1 with x^c = 1, or None when no power of x is one.

    x^c = 1 makes the minimal polynomial of x a product of distinct Phi_m with
    sum phi(m) <= n, the ring's degree, so c divides N_n = lcm{m : phi(m) <= n}:
    x^(N_n) = 1 decides, and :func:`_order_dividing` splits N_n to find c.
    Such an x has norm +-1 and its powers integer traces of size <= n (sums of
    n roots of unity), so the raising to N_n stops early for most others."""
    x = as_element(x)
    n, traces = x.ring.degree, _traces(x.ring.minpoly)
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


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial.

    Computed by exact division of x^n - 1 by all lower-order cyclotomic
    polynomials of divisor index.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    poly: list[Fraction] = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    for d in range(1, n):
        if n % d == 0:
            quot, rem = polys.divmod_exact(poly, cyclotomic(d))
            assert not rem
            poly = quot
    assert all(c.denominator == 1 for c in poly)
    return tuple(int(c) for c in poly)


# ---------------------------------------------------------------------------
# numeric preview


@lru_cache(maxsize=None)
def _ring_roots(minpoly: tuple[Fraction, ...]) -> tuple[complex, ...]:
    import mpmath  # loaded only for numeric previews of degree >= 2 rings

    degree = len(minpoly) - 1
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(minpoly)]
        try:
            roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        except mpmath.libmp.NoConvergence as exc:  # pragma: no cover - defensive
            raise ValueError("root refinement did not converge") from exc
    found = [complex(r) for r in roots]
    found.sort(key=lambda z: (z.real, z.imag))
    if len(found) != degree:  # pragma: no cover - defensive
        raise ValueError("root refinement did not converge")
    return tuple(found)


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
        if x.ring.degree == 1:
            return complex(float(x.coeffs[0]), 0.0)
        roots = _ring_roots(x.ring.minpoly)
        at = roots[root] if isinstance(root, int) else min(roots, key=lambda z: abs(z - root))
        return reduce(lambda acc, c: acc * at + float(c), reversed(x.coeffs), 0j)  # Horner
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
