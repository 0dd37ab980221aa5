"""Closed forms for generators in arithmetic progression a, a+d, ..., a+(k-1)d.

The table's known row structure (q full rows of k-1 entries plus r leftovers,
a-1 = q(k-1)+r) is exploited directly.  Frobenius number, genus, power sums
and the unity regimes stay polynomial in q, k and the exponent; only the
generic weighted regime lists the table, as its a entries in ascending order
(``_table_exponents``), so its memory is O(a) whatever the size of the entries.

The weighted sums split into three regimes, dispatched on the weight w:

* w^a != 1 and w^d != 1: generic regime; the table entries are generated
  row by row and fed to the sparse moment kernel (``weighted_moment_ap``).
* w^a != 1 and w^d  = 1: the weight is constant along each table row
  (``weighted_moment_unity_d``).
* w^a  = 1 and w^d != 1: the unity-weight engine with row-wise column sums.

Since gcd(a, d) = 1, w^a = 1 = w^d would force w = 1, which is excluded.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .apery import ArithProgression
from .exact import bernoulli, binomial
from .numberfield import RingElement, as_element, is_power_unity
from .sylvester import (
    WeightedSums,
    eulerian_weight,
    require_weight,
    weighted_moments,
    weighted_sum_from_moments,
)
# bench/tracing.py wraps arithprog.moment_from_polynomial, so the name stays importable
from .sylvester import moment_from_polynomial  # noqa: F401

__all__ = [
    "WeightedSumAP",
    "frobenius_ap",
    "genus_ap",
    "power_sum_ap",
    "weight_branch",
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


def _table_exponents(ap: ArithProgression) -> list[int]:
    """The a table entries in ascending order, generated from the row blocks

        0,  a + d + s a_k + t d  (0 <= s < q, 0 <= t < k-1),
            q a_k + a + d + t d  (0 <= t < r),

    where row s ends at (s+1) a_k, below the start of row s+1.
    """
    a, d, k, q, r = ap.a, ap.d, ap.k, ap.q, ap.r
    ak = ap.largest
    out = [0]
    for s in range(q):
        base = a + d + s * ak
        out.extend(range(base, base + (k - 1) * d, d))
    base = q * ak + a + d
    out.extend(range(base, base + r * d, d))
    return out


def weighted_moment_ap(ap: ArithProgression, nu: int, lam) -> RingElement:
    """sum_i m_i^nu lam^{m_i} from the generated table entries.

    Uses both routes of the sparse moment kernel; no division by ring
    elements occurs, so the value is defined for every nonzero weight.
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    return weighted_moments(_table_exponents(ap), nu, lam)[nu]


def weighted_moment_unity_d(ap: ArithProgression, nu: int, lam) -> RingElement:
    """sum_i m_i^nu lam^{m_i} when lam^d = 1.

    Row s of the table then carries the constant weight lam^{sa}, so each row
    telescopes through Bernoulli sums; the nu = 0 value includes the unit
    contribution of the zero residue, matching :func:`weighted_moment_ap`.
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    lam = as_element(lam)
    if not is_power_unity(lam, ap.d):
        raise ValueError("this route requires the weight to satisfy lam^d = 1")
    a, d, k, q, r = ap.a, ap.d, ap.k, ap.q, ap.r
    la = lam ** a
    la_pow = [lam.ring.one]
    for _ in range(q + 1):
        la_pow.append(la_pow[-1] * la)
    total = lam.ring.zero
    for l in range(nu + 1):
        e = nu - l
        inner = lam.ring.zero
        for j in range(l + 1):
            b_j = bernoulli(j)
            if not b_j:
                continue
            c = Fraction(binomial(l + 1, j)) * b_j
            bracket = -(la_pow[1] * (a ** e)) * c
            for s in range(1, q + 1):
                step = la_pow[s + 1] * ((s + 1) * a) ** e - la_pow[s] * (s * a) ** e
                bracket = bracket - step * (c * (s * (k - 1) + 1) ** (l + 1 - j))
            bracket = bracket + la_pow[q + 1] * (
                c * ((q + 1) * a) ** e * (q * (k - 1) + r + 1) ** (l + 1 - j)
            )
            inner = inner + bracket
        total = total + inner * (Fraction(binomial(nu, l) * d ** l) / (l + 1))
    if nu == 0:
        total = total + 1
    return total


def weight_branch(ap: ArithProgression, lam) -> str:
    """Which closed-form regime applies: "general", "unity-d" or "unity-a"."""
    lam = as_element(lam)
    unity_a = is_power_unity(lam, ap.a)
    unity_d = is_power_unity(lam, ap.d)
    assert not (unity_a and unity_d), "impossible for a weight other than 1"
    if unity_a:
        return "unity-a"
    if unity_d:
        return "unity-d"
    return "general"


def _unity_a_sums(ap: ArithProgression, mus: list[int], lam: RingElement) -> dict[int, RingElement]:
    """Weighted gap sums for every mu in ``mus`` when lam^a = 1 and lam^d != 1.

    The residue pairing engine specializes row by row: with D_j = lam^{jd} j^l,

        s_mu^(w) = (1/(mu+1)) sum_n C(mu+1, n) B_n a^{n-1}
                     sum_l C(mu+1-n, l) d^l
                       [ sum_{s=1}^{q} (sa)^{mu+1-n-l} sum_{j in row s} D_j
                         + ((q+1)a)^{mu+1-n-l} sum_{j in last row} D_j ]
                   + (-1)^{mu+1}/(lam-1)^{mu+1} sum_j <mu, j> lam^{j+1},

    where row s covers j = (s-1)(k-1)+1 .. s(k-1) and the last row covers
    j = q(k-1)+1 .. q(k-1)+r.
    """
    a, d, k, q, r = ap.a, ap.d, ap.k, ap.q, ap.r
    ld = lam ** d
    ld_pow = [lam.ring.one]
    for _ in range(a - 1):
        ld_pow.append(ld_pow[-1] * ld)
    inv_l = (lam - 1).inverse()
    out = {}
    for mu in mus:
        total = lam.ring.zero
        for n in range(mu + 1):
            b_n = bernoulli(n)
            if not b_n:
                continue
            outer = lam.ring.zero
            for l in range(mu + 2 - n):
                e = mu + 1 - n - l
                rows = lam.ring.zero
                for s in range(1, q + 1):
                    block = lam.ring.zero
                    for j in range((s - 1) * (k - 1) + 1, s * (k - 1) + 1):
                        block = block + ld_pow[j] * j ** l
                    rows = rows + block * (s * a) ** e
                block = lam.ring.zero
                for j in range(q * (k - 1) + 1, q * (k - 1) + r + 1):
                    block = block + ld_pow[j] * j ** l
                rows = rows + block * ((q + 1) * a) ** e
                outer = outer + rows * (binomial(mu + 1 - n, l) * d ** l)
            total = total + outer * (Fraction(binomial(mu + 1, n)) * b_n * Fraction(a) ** (n - 1))
        total = total * Fraction(1, mu + 1)
        out[mu] = total + (-1) ** (mu + 1) * inv_l ** (mu + 1) * eulerian_weight(mu, lam)
    return out


class WeightedSumAP(NamedTuple):
    value: RingElement
    branch: str  # "general" | "unity-d" | "unity-a"


def weighted_sums_ap(ap: ArithProgression, mus: Iterable[int], lam) -> WeightedSums:
    """Weighted gap sums for every mu in ``mus`` by closed form, dispatched on
    the weight regime; each regime does its per-query work once for all of
    them (the table exponents and one moment vector, the moments M(0..max mu),
    or the powers of lam^d).

    Equals the general residue-table engine on the same generators; weights 0
    and 1 are rejected (1 would be the plain power sum).
    """
    mus = sorted(set(mus))
    lam = require_weight(mus, lam)
    branch = weight_branch(ap, lam)
    if branch == "unity-a":
        return WeightedSums(_unity_a_sums(ap, mus, lam), branch)
    if branch == "unity-d":
        moments = [weighted_moment_unity_d(ap, nu, lam) for nu in range(mus[-1] + 1)]
    else:
        moments = weighted_moments(_table_exponents(ap), mus[-1], lam)
    values = {mu: weighted_sum_from_moments(ap.a, mu, lam, moments.__getitem__) for mu in mus}
    return WeightedSums(values, branch)


def weighted_sum_ap(ap: ArithProgression, mu: int, lam) -> WeightedSumAP:
    """Weighted gap sum by closed form: the one-mu case of :func:`weighted_sums_ap`."""
    values, branch = weighted_sums_ap(ap, (mu,), lam)
    return WeightedSumAP(values[mu], branch)
