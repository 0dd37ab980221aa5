"""Closed forms for generators in arithmetic progression a, a+d, ..., a+(k-1)d.

The residue table has a known row structure, defined once by
:meth:`ArithProgression.rows`: with a-1 = q(k-1)+r, row s holds the entries
s*a + j*d for a run of k-1 consecutive j (r in the last row).  The Frobenius
number, the genus and the power sums are closed forms in q, k and the
exponent, with no entry listed.  The weighted sums read the closed-form table
(:func:`gapsums.apery.apery_arith`), one term per table entry (so O(a) time
and memory, whatever the size of the entries), through the residue-table
engine, :func:`gapsums.sylvester.weighted_sums`, in all three regimes of the
weight w: "general", "unity-a" when w^a = 1, and "unity-d" when w^d = 1, a
tag only: there, as for any weight of finite order, the moments are class
sums.

Since gcd(a, d) = 1, w^a = 1 = w^d would force w = 1, which is excluded.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .apery import ArithProgression, apery_arith
from .exact import bernoulli, binomial
from .numberfield import RingElement, as_element
from .sylvester import WeightedSum, WeightedSums, _unity, weighted_moments, weighted_sums
# bench/tracing.py wraps arithprog.moment_from_polynomial and
# arithprog.weighted_sum_from_moments, so the names stay importable
from .sylvester import moment_from_polynomial, weighted_sum_from_moments  # noqa: F401

__all__ = [
    "frobenius_ap",
    "genus_ap",
    "power_sum_ap",
    "weighted_moment_ap",
    "weighted_moment_unity_d",
    "weighted_sum_ap",
    "weighted_sums_ap",
]


def frobenius_ap(ap: ArithProgression) -> int:
    """Largest gap: floor((a-2)/(k-1)) * a + (a-1) * d."""
    return (ap.a - 2) // (ap.k - 1) * ap.a + (ap.a - 1) * ap.d


def genus_ap(ap: ArithProgression) -> int:
    """Number of gaps: ((a-1)(q+d) + r(q+1)) / 2."""
    value = Fraction((ap.a - 1) * (ap.q + ap.d) + ap.r * (ap.q + 1), 2)
    if value.denominator != 1:
        raise ArithmeticError("non-integral genus: invalid (a, d, k) decomposition")
    return int(value)


def power_sum_ap(ap: ArithProgression, mu: int) -> int:
    """mu-th power sum of the gaps, as an explicit triple sum.

    Expanding the table rows by the binomial theorem and summing each row
    with Bernoulli polynomials gives

        s_mu = (1/(mu+1)) sum_{k,l,j} C(mu+1,k) C(mu+1-k,l) C(l+1,j)
                 * B_k B_j a^{mu-l} d^l / (l+1)
                 * [ (q+1)^{mu+1-k-l} a^{l+1-j} - 1
                     - sum_{i=1}^{q} ((i+1)^{mu+1-k-l} - i^{mu+1-k-l})
                                     (i(k-1)+1)^{l+1-j} ]
               + (B_{mu+1}/(mu+1)) (a^{mu+1} - 1).
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    a, d, k, q = ap.a, ap.d, ap.k, ap.q
    total = Fraction(0)
    for kappa in range(mu + 1):
        b_kappa = bernoulli(kappa)
        if not b_kappa:
            continue
        for l in range(mu + 2 - kappa):
            e = mu + 1 - kappa - l
            for j in range(l + 1):
                b_j = bernoulli(j)
                if not b_j:
                    continue
                coeff = (
                    Fraction(binomial(mu + 1, kappa) * binomial(mu + 1 - kappa, l) * binomial(l + 1, j))
                    * b_kappa
                    * b_j
                    * Fraction(a) ** (mu - l)
                    * Fraction(d) ** l
                    / (l + 1)
                )
                bracket = (q + 1) ** e * a ** (l + 1 - j) - 1
                bracket -= sum(
                    ((i + 1) ** e - i ** e) * (i * (k - 1) + 1) ** (l + 1 - j)
                    for i in range(1, q + 1)
                )
                total += coeff * bracket
    total = total / (mu + 1) + bernoulli(mu + 1) / (mu + 1) * (a ** (mu + 1) - 1)
    if total.denominator != 1:
        raise ArithmeticError("non-integral power sum: internal fault")
    return int(total)


def weighted_moment_ap(ap: ArithProgression, nu: int, lam) -> RingElement:
    """sum_i m_i^nu lam^{m_i} over the closed-form table, along both routes
    of :func:`gapsums.sylvester.weighted_moments`, for every nonzero weight."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    return weighted_moments(sorted(apery_arith(ap).m), nu, lam)[nu]


def weighted_moment_unity_d(ap: ArithProgression, nu: int, lam) -> RingElement:
    """:func:`weighted_moment_ap` for a weight with lam^d = 1, refused otherwise."""
    if not _unity(as_element(lam), ap.d):
        raise ValueError("this route requires the weight to satisfy lam^d = 1")
    return weighted_moment_ap(ap, nu, lam)


def weighted_sums_ap(ap: ArithProgression, mus: Iterable[int], lam) -> WeightedSums:
    """Weighted gap sums for every mu in ``mus`` by closed form: the
    closed-form table through :func:`gapsums.sylvester.weighted_sums`, with
    the branch "unity-d" when lam^d = 1.  Equals the residue-table engine on
    the same generators; weights 0 and 1 are rejected."""
    values, branch = weighted_sums(apery_arith(ap), mus, lam)
    return WeightedSums(values, "unity-d" if _unity(as_element(lam), ap.d) else branch)


def weighted_sum_ap(ap: ArithProgression, mu: int, lam) -> WeightedSum:
    """Weighted gap sum by closed form: the one-mu case of :func:`weighted_sums_ap`."""
    values, branch = weighted_sums_ap(ap, (mu,), lam)
    return WeightedSum(values[mu], branch)
