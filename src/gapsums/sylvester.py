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
routes over the sorted table entries and compares them exactly.  A weight
with a denominator costs what an integer weight costs: both routes run on
integer numerators, and their scaled values are compared before the one
division by a power of the denominator.  A rational weight runs on Python
ints, on which a product with a power of two is a shift.

The recombination of the moments into sums (:func:`weighted_sum_from_moments`,
:func:`geometric_tails` and both unity forms) runs on integer numerators
too: the moments share one denominator, w = v/D, and the divisions by
w^a - 1 and w - 1 become products with the adjugates of v^a - D^a and v - D
over their integer norms, so each mu ends in a single reduction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, perm
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import polys
from .apery import AperyTable, Generators, apery_general
# bench/tracing.py wraps sylvester.apery_polynomial, so the name stays importable
from .apery import apery_polynomial  # noqa: F401
from .exact import bernoulli, binomial, eulerian, stirling2
from .numberfield import Rational, RingElement, as_element, is_power_unity

__all__ = [
    "GapSummary",
    "WeightedSum",
    "WeightedSums",
    "frobenius",
    "genus",
    "geometric_tails",
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


def _times(x, y):
    """x * y for powers of a weight, with None standing for one: no product
    is made with one, and a product that equals one comes back as None.
    Unit powers come up for root-of-unity weights and for lam = +-1/D,
    whose numerator is +-1."""
    if x is None:
        return y
    if y is None:
        return x
    z = x * y
    return None if _is_one(z) else z


def _is_one(x) -> bool:
    if isinstance(x, RingElement):
        return x.num[0] == 1 and x == 1  # the first test fails fast on almost every power
    return x == 1  # an int, or a _Shift power of an even v, which is never one


class _Shift:
    """The integer odd * 2**shift kept in its two parts: a product with an
    int is one product with ``odd`` and a shift, and a product of two
    multiplies the odd parts and adds the shifts."""

    __slots__ = ("odd", "shift")

    def __init__(self, odd: int, shift: int):
        self.odd = odd
        self.shift = shift

    def __mul__(self, other):
        if type(other) is _Shift:
            return _Shift(self.odd * other.odd, self.shift + other.shift)
        return (other if self.odd == 1 else other * self.odd) << self.shift

    __rmul__ = __mul__

    def __pow__(self, n: int) -> _Shift:
        return _Shift(self.odd ** n, self.shift * n)


def _binary(x: int):
    """x as odd * 2**k: x itself when it is odd, else a :class:`_Shift`."""
    k = (x & -x).bit_length() - 1
    return _Shift(x >> k, k) if k else x


def _gap_powers(lam, gaps: Iterable[int]) -> dict:
    """{delta: lam^delta} for every distinct delta in ``gaps`` (and 0), with
    None for a power that equals one (see :func:`_times`).

    The deltas are taken in ascending order and each power is the previous
    one times lam^(difference), so gaps that lie close together cost one
    multiplication each; a difference met for the first time is raised by
    square-and-multiply.
    """
    powers: dict[int, RingElement | None] = {0: None}
    first = None if _is_one(lam) else lam
    last = 0
    for delta in sorted(set(gaps) - {0}):
        step = delta - last
        if step in powers:
            power = powers[step]
        else:
            power, base = None, first
            while step:
                if step & 1:
                    power = _times(power, base)
                step >>= 1
                if step:
                    base = _times(base, base)
        powers[delta] = _times(powers[last], power)
        last = delta
    return powers


def _steps(exponents: Sequence[int]) -> list[int]:
    """Differences of ascending exponents, the first one taken from 0."""
    return [e - last for last, e in zip([0, *exponents], exponents)]


def _split(lam: RingElement, gaps: Sequence[int]) -> tuple:
    """lam = v / D with D = lam.den, so v has integer coordinates and, over
    an integral modulus, so has every product of powers of v.  Returns v,
    the integer scales {delta: D^delta} for 0 and the distinct ``gaps``
    (none when D = 1), and the zero and one of the pass.

    A weight of ring degree 1 takes the int path: v is a Python int, and v
    and D are kept as odd * 2**k (:func:`_binary`), so that a product with
    a power of two is a shift.
    """
    den = lam.den
    if lam.ring.degree == 1:
        v, d, zero, one = _binary(lam.num[0]), _binary(den), 0, 1
    else:
        v, d, zero, one = lam * den, den, lam.ring.zero, lam.ring.one
    scales = {gap: d ** gap for gap in {0, *gaps}} if den != 1 else {}
    return v, scales, zero, one


def _lift(values: list, lam: RingElement, top_exponent: int) -> list[RingElement]:
    """values / D^E in lam's ring, E = ``top_exponent``: the one reduction
    of an integral pass."""
    scale = Fraction(1, lam.den ** top_exponent)
    if lam.ring.degree == 1:
        return [lam.ring.from_rational(x * scale) for x in values]
    return [x * scale for x in values]


def _ascending_moments(exponents: Sequence[int], top: int, lam: RingElement) -> list:
    """D^E M(0..top) in one ascending pass on lam = v/D: v^e is stepped by
    v^(e - previous e), and every sum takes its e^nu v^e term from the same
    power.  Before each term the sums are multiplied by D^(e - previous e), a
    Horner scheme in D, so the top exponent E leaves
    sum_e e^nu D^(E-e) v^e = D^E M(nu) behind."""
    gaps = _steps(exponents)
    v, scales, zero, one = _split(lam, gaps)
    powers = _gap_powers(v, gaps)
    sums = [zero] * (top + 1)
    power = None  # v^e, None while it equals one
    for e, gap in zip(exponents, gaps):
        if gap:
            power = _times(power, powers[gap])
            if scales:
                scale = scales[gap]
                sums = [x * scale for x in sums]
        term = one if power is None else power
        weight = 1
        for nu in range(top + 1):
            sums[nu] = sums[nu] + weight * term  # 0**0 == 1 covers e = 0
            weight *= e
    return sums


def _falling_factorial_moments(exponents: Sequence[int], top: int, lam: RingElement) -> list:
    """D^E M(0..top) from F(h) = sum_e (e)_h lam^e, recombined as
    M(nu) = sum_h S(nu, h) F(h) since e^nu = sum_h S(nu, h) (e)_h.

    The F(h) are descending Horner passes on lam = v/D, run side by side
    over the exponents with powers of their own:
    acc_h <- acc_h * v^(previous e - e) + (e)_h D^(E - e), with the integer
    scale D^(E - e) stepped up once per exponent for all of them.  The
    falling factorial (e)_h vanishes for e < h, so those exponents add
    nothing.  The passes end at D^E F(h), recombined into D^E M(nu).
    """
    gaps = [high - low for low, high in zip(exponents, exponents[1:])]
    v, scales, zero, _ = _split(lam, gaps)
    powers = _gap_powers(v, gaps + [exponents[0]])
    falling = [0] * (top + 1)  # ints until the first power: no product with one
    scale = scales[0] if scales else 1  # D^(E - e); (e)_h * scale is a shift for even D
    last = exponents[-1]
    for e in reversed(exponents):
        gap = last - e
        step = powers[gap]  # powers[0] is None: the top exponent takes no step
        if gap and scales:
            scale *= scales[gap]
        for h in range(top + 1):
            acc = falling[h] if step is None else falling[h] * step
            falling[h] = acc + perm(e, h) * scale
        last = e
    step = powers[last]
    if step is not None:
        falling = [acc * step for acc in falling]
    return [
        sum((stirling2(nu, h) * falling[h] for h in range(nu + 1)), zero)
        for nu in range(top + 1)
    ]


def weighted_moments(exponents: Sequence[int], top: int, lam) -> list[RingElement]:
    """[M(0), ..., M(top)] with M(nu) = sum_e e^nu lam^e over the strictly
    ascending ``exponents`` (the table entries, m_0 = 0 included, which adds
    1 to M(0) and nothing else).

    Computed along two routes that share no power of lam, the ascending power
    pass and the falling-factorial Horner passes; they must agree exactly.
    Each route writes lam = v/D (D = lam.den) and runs on v with integer
    scales D^(E-e), E the top exponent, so over an integral modulus no sum
    or product in the passes reduces a fraction.  The routes' D^E M(nu) are
    compared, then divided by D^E once.  A weight of ring degree 1 runs both
    routes on Python ints (see :func:`_split`).
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
    scaled = _ascending_moments(exponents, top, lam)
    if scaled != _falling_factorial_moments(exponents, top, lam):
        raise ArithmeticError("weighted moment routes disagree: internal fault")
    return _lift(scaled, lam, exponents[-1])


def weighted_moment(table: AperyTable, nu: int, lam) -> RingElement:
    """sum_i m_i^nu lam^{m_i} over the whole table (the m_0 = 0 entry
    contributes 1 when nu = 0 and nothing otherwise), checked along both
    routes of :func:`weighted_moments`."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    return weighted_moments(sorted(table.m), nu, lam)[nu]


def _numerators(values: Sequence[RingElement]) -> tuple[list[RingElement], int]:
    """Integral numerators over one positive integer: values[i] = nums[i] / q."""
    q = lcm(*(x.den for x in values))
    return [x.numerator * (q // x.den) for x in values], q


def _eulerian_form(n: int, x, y):
    """sum_{j=0}^{n} <n, n-j> x^j y^(n-j): the Eulerian polynomial of row n,
    made homogeneous, so that E_n(v/D) = _eulerian_form(n, v, D) / D^n."""
    acc = 1  # <n, 0>
    for j in range(n - 1, -1, -1):
        acc = acc * x + eulerian(n, n - j) * y ** (n - j)
    return acc


def geometric_tails(mus: Iterable[int], lam: RingElement) -> dict[int, tuple[RingElement, Rational]]:
    """{mu: (num, den)} with num / den = (-1)^{mu+1} E_mu(lam) / (lam - 1)^{mu+1},
    E_mu(x) = sum_{j=0}^{mu} <mu, mu-j> x^j: the part of every weighted gap
    sum that the table does not enter.

    With lam = v/D it is (-1)^{mu+1} D E_mu(v, D) / (v - D)^{mu+1}, and the
    division by v - D is a product with its adjugate over its norm, so num
    is integral and den an integer (over an integral modulus) and nothing is
    reduced; the caller reduces once.
    """
    v, d = lam.numerator, lam.den
    adj, norm = (v - d).adjugate()
    return {
        mu: ((-1) ** (mu + 1) * d * adj ** (mu + 1) * _eulerian_form(mu, v, d), norm ** (mu + 1))
        for mu in mus
    }


def weighted_sum_from_moments(
    modulus: int, mus: Sequence[int], lam: RingElement, moments: Sequence[RingElement]
) -> dict[int, RingElement]:
    """Weighted gap sums for lam^a != 1 (a = modulus) and every mu in ``mus``,
    from the moments M(0..max mus).

    With M(nu) = sum_i m_i^nu lam^{m_i} (the nu = 0 value including the unit
    contribution of m_0), the sum telescopes to

        sum_{n=0}^{mu} C(mu, n) F(n) M(mu - n)  +  geometric_tails(mu),
        F(n) = (-a)^n / (lam^a - 1)^{n+1} * sum_{j=0}^{n} <n, n-j> lam^{ja}.

    It runs on integer numerators.  The moments are brought to one common
    denominator q, lam = v/D, and P = v^a - D^a = D^a (lam^a - 1), so
    F(n) = (-a)^n D^a E_n(v^a, D^a) / P^{n+1} and the sum is

        D^a sum_n C(mu, n) (-a)^n E_n(v^a, D^a) P^{mu-n} q M(mu-n) / (q P^{mu+1}),

    with 1/P = adj(P)/N(P).  Over an integral modulus no sum or product
    reduces a fraction, and each mu ends in exactly one reduction, after the
    tail is added over the product of the two integer denominators.  The
    n = mu term consumes M(0) directly, so no 0^0 convention is needed.
    """
    a, top = modulus, max(mus)
    nums, q = _numerators(moments)
    v, d = lam.numerator, lam.den
    va, da = v ** a, d ** a
    p = va - da
    adj, norm = p.adjugate()
    factors = [(-a) ** n * _eulerian_form(n, va, da) for n in range(top + 1)]
    p_powers = [p ** j for j in range(top + 1)]
    tails = geometric_tails(mus, lam)
    out = {}
    for mu in mus:
        head = sum(
            binomial(mu, n) * factors[n] * p_powers[mu - n] * nums[mu - n] for n in range(mu + 1)
        )
        head, head_den = da * adj ** (mu + 1) * head, q * norm ** (mu + 1)
        tail, tail_den = tails[mu]
        out[mu] = (head * tail_den + tail * head_den) * Fraction(1, head_den * tail_den)
    return out


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
    return weighted_sum_from_moments(table.modulus, mus, lam, moments)


def _residue_differences(table: AperyTable, top: int, lam: RingElement) -> list[RingElement]:
    """D(e) = sum_{i>=1} (m_i^e - i^e) lam^{m_i} for e = 1..top (D(0) stays 0,
    no sum reads it), in one ascending pass over the (m_i, i) pairs with its
    own powers of lam, written lam = v/D and scaled like
    :func:`_ascending_moments`."""
    pairs = sorted(zip(table.m[1:], range(1, table.modulus)))
    gaps = _steps([m for m, _ in pairs])
    v, scales, zero, one = _split(lam, gaps)
    powers = _gap_powers(v, gaps)
    out = [zero] * (top + 1)
    power = None  # v^m, None while it equals one
    for (m, i), gap in zip(pairs, gaps):
        power = _times(power, powers[gap])
        if scales:
            scale = scales[gap]
            out = [x * scale for x in out]
        term = one if power is None else power
        m_pow = i_pow = 1
        for e in range(1, top + 1):
            m_pow *= m
            i_pow *= i
            out[e] = out[e] + (m_pow - i_pow) * term
    return _lift(out, lam, pairs[-1][0])


def _unity_a_sums(table: AperyTable, mus: Sequence[int], lam: RingElement) -> dict[int, RingElement]:
    """Weighted gap sums when lam^a = 1 (lam != 1), e.g. alternating sums.

    Two equivalent statements are evaluated and compared exactly:

    * difference form, using the residue pairing i = m_i mod a:
        (1/(mu+1)) sum_n C(mu+1, n) B_n a^{n-1}
            sum_{i>=1} (m_i^{mu+1-n} - i^{mu+1-n}) lam^{m_i}
    * moment form: the same outer sum over M(mu+1-n) alone, plus the
      geometric tail (-1)^{mu+1}/(lam-1)^{mu+1} sum_j <mu, j> lam^{j+1}
      (that is :func:`geometric_tails`, by the row symmetry <mu, j> = <mu, mu-1-j>).

    Both run on integer numerators: the differences and the moments are
    each brought to one common denominator, the rational outer coefficients
    to integers over their lcm, and the forms are compared cross-multiplied,
    so only the returned value is reduced, once per mu.
    """
    a = table.modulus
    top = max(mus) + 1
    moments, moments_den = _numerators(weighted_moments(sorted(table.m), top, lam))
    differences, differences_den = _numerators(_residue_differences(table, top, lam))
    tails = geometric_tails(mus, lam)
    out = {}
    for mu in mus:
        scales = {
            n: binomial(mu + 1, n) * bernoulli(n) * Fraction(a) ** (n - 1) / (mu + 1)
            for n in range(mu + 1)
            if bernoulli(n)
        }
        k = lcm(*(c.denominator for c in scales.values()))
        scales = {n: int(c * k) for n, c in scales.items()}
        diff_form = sum(c * differences[mu + 1 - n] for n, c in scales.items())
        moment_form = sum(c * moments[mu + 1 - n] for n, c in scales.items())
        tail, tail_den = tails[mu]
        # diff_form / (k differences_den) against
        # (moment_form tail_den + tail k moments_den) / (k moments_den tail_den)
        moment_form = moment_form * tail_den + tail * (k * moments_den)
        if diff_form * (moments_den * tail_den) != moment_form * differences_den:
            raise ArithmeticError("unity-weight forms disagree: internal fault")
        out[mu] = diff_form * Fraction(1, k * differences_den)
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
    branch: str  # "general" | "unity-a", or "unity-d" from the closed forms


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
