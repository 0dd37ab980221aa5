"""Dense univariate polynomial helpers.

Polynomials are sequences of coefficients in ascending degree order.  The
arithmetic helpers are generic: coefficients may be ints, Fractions, or any
values supporting +, -, * (ring elements included, for evaluation).
"""
from __future__ import annotations

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
    """Monic gcd over Q[x] by Euclid's algorithm ([] when both are zero)."""
    r0, r1 = trim([Fraction(c) for c in p]), trim([Fraction(c) for c in q])
    while r1:
        r0, r1 = r1, divmod_exact(r0, r1)[1]
    return [c / r0[-1] for c in r0]
