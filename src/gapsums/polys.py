"""Dense univariate polynomial helpers.

Polynomials are sequences of coefficients in ascending degree order.  The
arithmetic helpers are generic: coefficients may be ints, Fractions, or any
values supporting +, -, * (ring elements included, for evaluation).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

__all__ = [
    "derivative",
    "divmod_exact",
    "eval_sparse",
    "gcd",
    "trim",
]


def trim(p: Sequence) -> list:
    """Drop trailing zero coefficients."""
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return list(p[:n])


def derivative(p: Sequence) -> list:
    return trim([i * c for i, c in enumerate(p)][1:])


def eval_sparse(p: Sequence, x):
    """Evaluate by walking the nonzero terms in ascending degree.

    Power gaps are bridged with x ** delta, so sparse high-degree polynomials
    cost O(terms * log degree) multiplications instead of O(degree).
    """
    acc = 0
    power = None
    last = 0
    for e, c in enumerate(p):
        if not c:
            continue
        power = x ** e if power is None else power * x ** (e - last)
        last = e
        acc = acc + c * power
    return acc


def divmod_exact(p: Sequence, q: Sequence) -> tuple[list, list]:
    """Polynomial division over the rationals: returns (quotient, remainder)."""
    q = trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    rem = trim(rem)
    lead = Fraction(q[-1])
    quot = [Fraction(0)] * max(0, len(rem) - len(q) + 1)
    while len(rem) >= len(q):
        c = rem[-1] / lead
        d = len(rem) - len(q)
        quot[d] = c
        for i, qc in enumerate(q):
            rem[i + d] -= c * qc
        rem = trim(rem)
    return quot, rem


def gcd(p: Sequence, q: Sequence) -> list:
    """Monic gcd over Q[x] ([] when both are zero), by a primitive remainder
    sequence on integer vectors: each remainder is an integer multiple of the
    rational one with content 1, so no Fraction is formed before the result."""
    r0, r1 = _primitive(p), _primitive(q)
    while r1:
        rem, lead = r0, r1[-1]
        while len(rem) >= len(r1):  # rem <- (lead rem - c x^d r1) / g, g = gcd(c, lead)
            c, d = rem[-1], len(rem) - len(r1)
            g = math.gcd(c, lead)
            rem = trim([x * (lead // g) - y * (c // g) for x, y in zip(rem, [0] * d + r1)])
        r0, r1 = r1, _primitive(rem)
    return [Fraction(c, r0[-1]) for c in r0]


def _primitive(p: Sequence) -> list[int]:
    """``p`` times a rational, trimmed: integers with no common factor."""
    den = math.lcm(*(Fraction(c).denominator for c in p))
    num = trim([int(c * den) for c in p])
    g = math.gcd(*num) or 1
    return [c // g for c in num]
