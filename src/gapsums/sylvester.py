"""Gap-set statistics for arbitrary coprime generators, driven by the
residue table.

For a table m_0, ..., m_{a-1} (a = smallest generator), the gap set is
{ m_i - j*a : 1 <= i < a, 1 <= j <= (m_i - i)/a }, which turns every gap sum
into a sum over the table:

* Frobenius number:  g = max_i m_i - a
* genus:             n = (1/a) sum m_i - (a-1)/2
* power sums:        s_mu = (1/(mu+1)) sum_{k=0}^{mu} C(mu+1,k) B_k a^{k-1}
                     sum_i m_i^{mu+1-k}  +  (B_{mu+1}/(mu+1)) (a^{mu+1} - 1)

Weighted sums s_mu^(w) = sum w^n n^mu over the gaps split on whether w^a = 1:
the general engine divides by (w^a - 1), the unity engine uses the residue
pairing i = m_i mod a instead.  Both consume the weighted moments
M(nu) = sum_i m_i^nu w^{m_i}: every M(0..top) a query needs comes from one
call of :func:`weighted_moments`, which computes them along two independent
routes over the sorted table entries and compares them exactly.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import perm
from operator import mul
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from . import polys
from .apery import AperyTable, Generators, apery_general
# bench/tracing.py wraps sylvester.apery_polynomial, so the name stays importable
from .apery import apery_polynomial  # noqa: F401
from .exact import bernoulli, binomial, eulerian, stirling2
from .numberfield import RingElement, as_element, is_power_unity

__all__ = [
    "GapSummary",
    "WeightedSum",
    "WeightedSums",
    "eulerian_weight",
    "frobenius",
    "genus",
    "moment_from_polynomial",
    "power_sum",
    "require_weight",
    "summarize",
    "weighted_moment",
    "weighted_moments",
    "weighted_sum",
    "weighted_sum_general",
    "weighted_sum_unity_a",
    "weighted_sums",
]


def frobenius(table: AperyTable) -> int:
    """Largest gap: max m_i minus the modulus (-1 when there are no gaps)."""
    return max(table.m) - table.modulus


def genus(table: AperyTable) -> int:
    """Number of gaps: (1/a) sum m_i - (a-1)/2, always an exact integer."""
    a = table.modulus
    value = Fraction(sum(table.m), a) - Fraction(a - 1, 2)
    if value.denominator != 1:
        raise ArithmeticError("non-integral genus: residue table is corrupted")
    return int(value)


_POWER_CHUNK = 2048  # table entries per pass of power_sum


def power_sum(table: AperyTable, mu: int) -> int:
    """mu-th power sum of the gaps; mu = 0 recovers the genus."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    a = table.modulus
    # sums[e] = sum_i m_i^e for e = 1..mu+1; each list of powers is one
    # elementwise product away from the previous one, and the table is taken
    # in chunks so that only two short lists are alive at a time
    sums = [0] * (mu + 2)
    for start in range(1, a, _POWER_CHUNK):
        chunk = powers = table.m[start:start + _POWER_CHUNK]
        sums[1] += sum(chunk)
        for e in range(2, mu + 2):
            powers = list(map(mul, powers, chunk))
            sums[e] += sum(powers)
    total = Fraction(0)
    for k in range(mu + 1):
        b = bernoulli(k)
        if b:
            total += binomial(mu + 1, k) * b * Fraction(a) ** (k - 1) * sums[mu + 1 - k]
    total = total / (mu + 1) + bernoulli(mu + 1) / (mu + 1) * (a ** (mu + 1) - 1)
    if total.denominator != 1:
        raise ArithmeticError("non-integral power sum: internal fault")
    return int(total)


def moment_from_polynomial(coeffs: Sequence[int], nu: int, lam: RingElement) -> RingElement:
    """Evaluate sum_e c_e e^nu lam^e from the dense P(x) = sum_e c_e x^e.

    Uses the derivative route sum_{h<=nu} S(nu,h) lam^h P^(h)(lam), where
    S(nu,h) are Stirling numbers of the second kind; P is differentiated
    symbolically and each derivative is evaluated sparsely.  The engines use
    the sparse :func:`weighted_moments` instead; this dense form stays as an
    independent reference.
    """
    lam = as_element(lam)
    total = lam.ring.zero
    current = list(coeffs)
    for h in range(nu + 1):
        s = stirling2(nu, h)
        if s:
            total = total + s * lam ** h * polys.eval_sparse(current, lam)
        current = polys.derivative(current)
    return total


def _gap_powers(lam: RingElement, gaps: Iterable[int]) -> dict[int, RingElement]:
    """{delta: lam^delta} for every distinct delta in ``gaps`` (and 0).

    The deltas are taken in ascending order and each power is the previous
    one times lam^(difference), so gaps that lie close together cost one
    multiplication each.
    """
    powers = {0: lam.ring.one}
    last = 0
    for delta in sorted(set(gaps) - {0}):
        step = delta - last
        power = powers[step] if step in powers else lam ** step
        powers[delta] = powers[last] * power if last else power
        last = delta
    return powers


def _steps(exponents: Sequence[int]) -> list[int]:
    """Differences of ascending exponents, the first one taken from 0."""
    return [e - last for last, e in zip([0, *exponents], exponents)]


def _ascending_moments(exponents: Sequence[int], top: int, lam: RingElement) -> list[RingElement]:
    """M(0..top) in one ascending pass: lam^e is stepped by lam^(e - previous e),
    and every M(nu) takes its e^nu lam^e term from the same power."""
    gaps = _steps(exponents)
    powers = _gap_powers(lam, gaps)
    moments = [lam.ring.zero] * (top + 1)
    power = lam.ring.one
    for e, gap in zip(exponents, gaps):
        if gap:  # e == gap: the previous exponent was 0, so power is one
            power = power * powers[gap] if e != gap else powers[gap]
        weight = 1
        for nu in range(top + 1):
            moments[nu] = moments[nu] + weight * power  # 0**0 == 1 covers e = 0
            weight *= e
    return moments


def _falling_factorial_moments(
    exponents: Sequence[int], top: int, lam: RingElement
) -> list[RingElement]:
    """M(0..top) from F(h) = sum_e (e)_h lam^e, recombined as
    M(nu) = sum_h S(nu, h) F(h) since e^nu = sum_h S(nu, h) (e)_h.

    Each F(h) is a descending Horner pass over the exponents e >= h (the
    falling factorial (e)_h vanishes below h), with powers of its own.
    """
    starts = [bisect_left(exponents, h) for h in range(top + 1)]
    lowest = [exponents[i] for i in starts if i < len(exponents)]
    gaps = [high - low for low, high in zip(exponents, exponents[1:])]
    powers = _gap_powers(lam, gaps + lowest)
    falling = []
    for h, start in enumerate(starts):
        acc, last = 0, None  # an int until the first power: no product with one
        for e in reversed(exponents[start:]):
            if last is not None:
                acc = acc * powers[last - e]
            acc = acc + perm(e, h)
            last = e
        falling.append(acc * powers[last] if last else acc)
    return [
        sum((stirling2(nu, h) * falling[h] for h in range(nu + 1)), lam.ring.zero)
        for nu in range(top + 1)
    ]


def weighted_moments(exponents: Sequence[int], top: int, lam) -> list[RingElement]:
    """[M(0), ..., M(top)] with M(nu) = sum_e e^nu lam^e over the strictly
    ascending ``exponents`` (the table entries, m_0 = 0 included, which adds
    1 to M(0) and nothing else).

    Computed along two routes that share no power of lam, the ascending power
    pass and the falling-factorial Horner passes; they must agree exactly.
    """
    if top < 0:
        raise ValueError("top must be nonnegative")
    lam = as_element(lam)
    if lam.is_zero:
        raise ValueError("weight 0 is not allowed")
    if not exponents or exponents[0] < 0 or any(
        x >= y for x, y in zip(exponents, exponents[1:])
    ):
        raise ValueError("exponents must be nonnegative and strictly ascending")
    direct = _ascending_moments(exponents, top, lam)
    if direct != _falling_factorial_moments(exponents, top, lam):
        raise ArithmeticError("weighted moment routes disagree: internal fault")
    return direct


def weighted_moment(table: AperyTable, nu: int, lam) -> RingElement:
    """sum_i m_i^nu lam^{m_i} over the whole table (the m_0 = 0 entry
    contributes 1 when nu = 0 and nothing otherwise), checked along both
    routes of :func:`weighted_moments`."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    return weighted_moments(sorted(table.m), nu, lam)[nu]


def eulerian_weight(n: int, x: RingElement) -> RingElement:
    """sum_{j=0}^{n} <n, n-j> x^j."""
    total = x.ring.zero
    for j in range(n + 1):
        c = eulerian(n, n - j)
        if c:
            total = total + c * x ** j
    return total


def weighted_sum_from_moments(
    modulus: int, mu: int, lam: RingElement, moment: Callable[[int], RingElement]
) -> RingElement:
    """Weighted gap sum for lam^a != 1 (a = modulus), from a moment source.

    With M(nu) = sum_i m_i^nu lam^{m_i} (the nu = 0 value including the unit
    contribution of m_0), the sum telescopes to

        sum_{n=0}^{mu} (-a)^n / (lam^a - 1)^{n+1} C(mu, n)
            * [ sum_{j=0}^{n} <n, n-j> lam^{ja} ] * M(mu - n)
        + (-1)^{mu+1} / (lam - 1)^{mu+1} * sum_{j=0}^{mu} <mu, mu-j> lam^j .

    The n = mu term consumes M(0) directly, so no 0^0 convention is needed.
    """
    la = lam ** modulus
    inv_la = (la - 1).inverse()
    total = lam.ring.zero
    for n in range(mu + 1):
        total = total + (
            binomial(mu, n)
            * Fraction(-modulus) ** n
            * inv_la ** (n + 1)
            * eulerian_weight(n, la)
            * moment(mu - n)
        )
    inv_l = (lam - 1).inverse()
    return total + (-1) ** (mu + 1) * inv_l ** (mu + 1) * eulerian_weight(mu, lam)


def require_weight(mus: Iterable[int], lam) -> RingElement:
    """The argument check of every weighted sum, whichever path evaluates it:
    at least one mu, each mu >= 1, and a weight other than 0 and 1."""
    mus = list(mus)
    if not mus:
        raise ValueError("no exponents requested")
    if min(mus) < 1:
        raise ValueError("mu must be positive for weighted sums")
    lam = as_element(lam)
    if lam.is_zero:
        raise ValueError("weight 0 is not allowed")
    if lam == lam.ring.one:
        raise ValueError("weight 1 is not allowed (use the unweighted power sum)")
    return lam


def _general_sums(table: AperyTable, mus: Sequence[int], lam: RingElement) -> dict[int, RingElement]:
    moments = weighted_moments(sorted(table.m), max(mus), lam)
    return {
        mu: weighted_sum_from_moments(table.modulus, mu, lam, moments.__getitem__) for mu in mus
    }


def _residue_differences(table: AperyTable, top: int, lam: RingElement) -> list[RingElement]:
    """D(e) = sum_{i>=1} (m_i^e - i^e) lam^{m_i} for e = 1..top (D(0) stays 0,
    no sum reads it), in one ascending pass over the (m_i, i) pairs with its
    own powers of lam."""
    pairs = sorted(zip(table.m[1:], range(1, table.modulus)))
    gaps = _steps([m for m, _ in pairs])
    powers = _gap_powers(lam, gaps)
    out = [lam.ring.zero] * (top + 1)
    power = lam.ring.one
    for (m, i), gap in zip(pairs, gaps):
        power = power * powers[gap] if m != gap else powers[gap]  # m == gap: the first
        m_pow = i_pow = 1
        for e in range(1, top + 1):
            m_pow *= m
            i_pow *= i
            out[e] = out[e] + (m_pow - i_pow) * power
    return out


def _unity_a_sums(table: AperyTable, mus: Sequence[int], lam: RingElement) -> dict[int, RingElement]:
    """Weighted gap sums when lam^a = 1 (lam != 1), e.g. alternating sums.

    Two equivalent statements are evaluated and compared exactly:

    * difference form, using the residue pairing i = m_i mod a:
        (1/(mu+1)) sum_n C(mu+1, n) B_n a^{n-1}
            sum_{i>=1} (m_i^{mu+1-n} - i^{mu+1-n}) lam^{m_i}
    * moment form: the same outer sum over M(mu+1-n) alone, plus the
      geometric tail (-1)^{mu+1}/(lam-1)^{mu+1} sum_j <mu, j> lam^{j+1}
      (that is :func:`eulerian_weight`, by the row symmetry <mu, j> = <mu, mu-1-j>).
    """
    a = table.modulus
    top = max(mus) + 1
    moments = weighted_moments(sorted(table.m), top, lam)
    differences = _residue_differences(table, top, lam)
    inv_l = (lam - 1).inverse()
    out = {}
    for mu in mus:
        diff_form = moment_form = lam.ring.zero
        for n in range(mu + 1):
            b = bernoulli(n)
            if not b:
                continue
            scale = binomial(mu + 1, n) * b * Fraction(a) ** (n - 1)
            diff_form = diff_form + scale * differences[mu + 1 - n]
            moment_form = moment_form + scale * moments[mu + 1 - n]
        diff_form = diff_form * Fraction(1, mu + 1)
        moment_form = moment_form * Fraction(1, mu + 1) + (
            (-1) ** (mu + 1) * inv_l ** (mu + 1) * eulerian_weight(mu, lam)
        )
        if diff_form != moment_form:
            raise ArithmeticError("unity-weight forms disagree: internal fault")
        out[mu] = diff_form
    return out


def weighted_sum_general(table: AperyTable, mu: int, lam) -> RingElement:
    """Weighted gap sum when lam^a != 1, from the residue table."""
    lam = require_weight((mu,), lam)
    if is_power_unity(lam, table.modulus):
        raise ValueError(
            "weight is a root of unity of the modulus order; use weighted_sum_unity_a"
        )
    return _general_sums(table, (mu,), lam)[mu]


def weighted_sum_unity_a(table: AperyTable, mu: int, lam) -> RingElement:
    """Weighted gap sum when lam^a = 1 (lam != 1), e.g. alternating sums;
    the difference and moment forms of the residue pairing are compared
    exactly."""
    lam = require_weight((mu,), lam)
    if not is_power_unity(lam, table.modulus):
        raise ValueError("weight is not a root of unity of the modulus order")
    return _unity_a_sums(table, (mu,), lam)[mu]


class WeightedSum(NamedTuple):
    value: RingElement
    branch: str  # "general" | "unity-a"


class WeightedSums(NamedTuple):
    values: dict[int, RingElement]  # mu -> weighted gap sum
    branch: str  # "general" | "unity-a", or "unity-d" from the closed forms


def weighted_sums(table: AperyTable, mus: Iterable[int], lam) -> WeightedSums:
    """Weighted gap sums for every mu in ``mus`` from one table, dispatching
    on whether lam^a = 1; all of them read one shared moment vector."""
    mus = sorted(set(mus))
    lam = require_weight(mus, lam)
    if is_power_unity(lam, table.modulus):
        return WeightedSums(_unity_a_sums(table, mus, lam), "unity-a")
    return WeightedSums(_general_sums(table, mus, lam), "general")


def weighted_sum(gens: Generators, mu: int, lam) -> WeightedSum:
    """Weighted gap sum for arbitrary generators, dispatching on whether the
    weight is a root of unity of order dividing the smallest generator."""
    lam = require_weight((mu,), lam)
    values, branch = weighted_sums(apery_general(gens), (mu,), lam)
    return WeightedSum(values[mu], branch)


@dataclass(frozen=True)
class GapSummary:
    """Bundled results for one generator set, with per-entry method tags."""

    generators: tuple[int, ...]
    frobenius: int
    genus: int
    power_sums: Mapping[int, int]
    weight: RingElement | None
    weighted_sums: Mapping[int, RingElement]
    methods: Mapping[str, str]


def summarize(
    gens: Generators,
    power_mus: Iterable[int] = (),
    weight=None,
    weighted_mus: Iterable[int] = (),
    method: str = "auto",
) -> GapSummary:
    """Bundle the Frobenius number, genus, and requested sums.

    ``method`` selects the evaluation path by the rule the command line uses
    too (:func:`gapsums.paths.choose`): "auto" takes the closed forms when the
    generators form an arithmetic progression and the residue-table engine
    otherwise; "apery", "closed-form" and "oracle" force a path
    ("closed-form" requires progression input).  Each entry records the path
    that produced it.
    """
    from . import paths  # deferred: the paths build on this module

    if weighted_mus and weight is None:
        raise ValueError("weighted sums need a weight")
    path = paths.choose(gens, method)
    power_sums = {mu: path.power_sum(mu) for mu in sorted(set(power_mus))}
    methods = {f"power_sum[{mu}]": path.tag for mu in power_sums}
    weighted: Mapping[int, RingElement] = {}
    if weight is not None and weighted_mus:
        weighted, tag = path.weighted_sums(weighted_mus, weight)
        methods.update((f"weighted_sum[{mu}]", tag) for mu in weighted)
    methods["frobenius"] = methods["genus"] = path.tag
    return GapSummary(
        generators=gens.values,
        frobenius=path.frobenius(),
        genus=path.genus(),
        power_sums=power_sums,
        weight=as_element(weight) if weight is not None else None,
        weighted_sums=weighted,
        methods=methods,
    )
