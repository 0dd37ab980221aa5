"""Gap-set statistics for arbitrary coprime generators, driven by the
residue table.

For a table m_0, ..., m_{a-1} (a = smallest generator), the gap set is
{ m_i - j*a : 1 <= i < a, 1 <= j <= (m_i - i)/a }, which turns every gap sum
into a sum over the table:

* Frobenius number:  g = max_i m_i - a, read off the levels L_i = (m_i - i)/a
* genus:             n = (1/a) sum m_i - (a-1)/2 = sum_i L_i
* power and weighted sums s_mu = sum w^n n^mu (w = 1: the power sums), from
  the moments M(nu) = sum_i m_i^nu w^{m_i} by one series identity in every
  regime, s_mu = mu! [t^mu] (1/(1 - w e^t) - sum_nu M(nu) t^nu/nu! / (1 - w^a e^{at}))
  (:func:`weighted_sum_from_moments`).

The power sums read the integer moments sum_i m_i^nu straight from the
levels where the table is wide against its depth (:func:`_lookup_power_sums`:
a lookup and an add per residue into packed rows built by running sums, a
product per lane per window), else from :func:`_integer_power_sums`, a chunked
pass over the entries, by a measured cost rule (:func:`_lookup_width`).  A weighted query
takes every M(0..top) it needs from one call of :func:`weighted_moments`,
along two routes compared exactly: integer class sums for a weight of finite
order (:func:`_class_moments`), else the moment kernel, which runs on
integer numerators (w = v/D) and hands D^E M(nu) on over D^E unreduced, so
that each sum ends in one reduction.  The kernel computes on Python ints:
v itself for a rational weight, v's integer coordinates over the ring's
integral modulus for any other, chained by ring products on one route and
stepped by integer multiplication matrices on the other; ring elements are
made only for the moments it hands on.
At w^a = 1 and at w = 1 the series has a pole whose t^-1 coefficient must
cancel, which is checked on every call; at w^a = 1 the residue-difference
form, class sums over i mod the order of w, is compared with the series
exactly, on the table and on the closed forms, which hand every weighted
query to :func:`weighted_sums`.
"""
from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice, repeat
from math import isqrt, lcm, perm
from operator import add, and_, getitem, lt, mul, rshift, sub
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import polys
from .apery import AperyTable, Generators, apery_general
# bench/tracing.py wraps sylvester.apery_polynomial, so the name stays importable
from .apery import apery_polynomial  # noqa: F401
from .exact import bernoulli, binomial, eulerian, stirling2
from .numberfield import RingElement, as_element, is_power_unity, order

__all__ = [
    "GapSummary",
    "WeightedSum",
    "WeightedSums",
    "frobenius",
    "genus",
    "moment_from_polynomial",
    "power_sum",
    "power_sums",
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
    """Largest gap, -1 if none: max m_i - a = a*depth - 1 - (residues past the last at depth)."""
    return table.modulus * table.depth - 1 - table.levels[::-1].index(table.depth)


def genus(table: AperyTable) -> int:
    """Number of gaps: (1/a) sum m_i - (a-1)/2, which is the sum of the levels."""
    return sum(table.levels)


_POWER_CHUNK = 2048  # entries per pass of _integer_power_sums


def _integer_power_sums(values: Iterable[int], top: int) -> list[int]:
    """[sum x^0, ..., sum x^top] over the integers ``values``, for the class
    sums and for the power sums of a table that the lookup pass does not
    take.  Each list of powers is one elementwise product from the last,
    over chunks of the input, so two short lists are alive at a time."""
    sums = [0] * (top + 1)
    values = iter(values)
    while chunk := list(islice(values, _POWER_CHUNK)):
        sums[0] += len(chunk)
        powers = chunk
        for e in range(1, top + 1):
            sums[e] += sum(powers)
            if e < top:
                powers = list(map(mul, powers, chunk))
    return sums


# The lookup pass (_lookup_power_sums) takes a table whose window W, about
# 2 sqrt(a / (depth + 1)), is at least _LOOKUP_WIDTH with W top >= 128: at most
# a / 6 rows, and _LOOKUP_ROWS, fewer past top = 6 (lanes grow as top^2), keep
# it below the chunked pass's memory.  Against that pass (best of 5; 369 shapes,
# a_1 400-46,000, 3-60 generators, top 2-13) it took 0.19-0.77 of the time at
# W >= 32 (median 0.35), 0.56-11 times as long below (median 1.04), and at W
# 20-31 a median 0.63-0.77 at W >= 24 with W top >= 128, else 1.01-1.27.
_LOOKUP_WIDTH = 24
_LOOKUP_ROWS = 2048


def _lookup_width(modulus: int, depth: int, top: int) -> int | None:
    """The window W of :func:`_lookup_power_sums` for a table of this shape, or
    None where the chunked pass costs less.  W = 2 sqrt(a / (depth + 1)) about
    balances the rows' W (depth + 1) packings and the windows' a / W moves."""
    span = depth + 1
    rows = _LOOKUP_ROWS * 36 // max(36, top * top)
    width = min(2 * isqrt(modulus // span), rows // span)
    return width if width >= _LOOKUP_WIDTH and width * top >= 128 else None


def _packed_values(start: int, count: int, offsets: Sequence[int]) -> list[int]:
    """x^0..top packed into the lanes at ``offsets``, for x = start, ...,
    start + count - 1: the values of a polynomial of degree top in x - start,
    so ``top`` running sums of its forward differences at 0, one add each."""
    row = [sum(x ** j << offset for j, offset in enumerate(offsets))
           for x in range(start, start + len(offsets))]
    differences = []  # the k-th forward difference at 0, k = 0..top
    while row:
        differences.append(row[0])
        row = list(map(sub, row[1:], row))
    values = repeat(differences.pop())  # the top-th difference is constant
    for first in reversed(differences):
        values = accumulate(values, initial=first)
    return list(islice(values, count))


def _lookup_power_sums(table: AperyTable, top: int, width: int) -> list[int]:
    """[sum m_i^0, ..., sum m_i^top] read from the levels by packed lookup:
    one list lookup and one int add per residue.

    Residue i = lo + t (lo a multiple of the window W = ``width``, t < W) has
    m_i - lo = t + a L_i, so a window's moments about lo are the sum of
    rows[t][L_i], the packed (t + a l)^0..top (a level's column is one
    :func:`_packed_values`).  From the top window down, the packed moments
    about lo move down by W with one product per lane, as (y + W)^j =
    sum_k C(j, k) W^(j - k) y^k: lane k times spread[k], which packs
    C(j, k) W^(j - k) into each lane j >= k.  Lane j sums (m_i - lo)^j < X^j,
    X = a (depth + 1) (as is a read row's t + a l), over at most a residues, so
    bits(a) + j bits(X) + 1 bits never carry.  Lane 1 is held to sum m_i =
    a sum L_i + a (a - 1) / 2; lane 0, the count a, meets the pole check."""
    a, levels, span = table.modulus, table.levels, table.depth + 1
    lanes = [a.bit_length() + j * (a * span).bit_length() + 1 for j in range(top + 1)]
    offsets = list(accumulate(lanes[:-1], initial=0))
    rows = [[] for _ in range(width)]  # rows[t][l] packs the powers of t + a l
    for level in range(span):
        for row, packed in zip(rows, _packed_values(a * level, width, offsets)):
            row.append(packed)
    masks = [(1 << lane) - 1 for lane in lanes]
    spread = [sum(binomial(j, k) * width ** (j - k) << offsets[j] for j in range(k, top + 1))
              for k in range(top + 1)]
    acc = 0
    for lo in reversed(range(0, a, width)):
        moved = sum(map(mul, map(and_, map(rshift, repeat(acc), offsets), masks), spread))
        acc = moved + sum(map(getitem, rows, levels[lo : lo + width]))
    sums = [acc >> offset & mask for offset, mask in zip(offsets, masks)]
    if sums[1] != a * sum(levels) + a * (a - 1) // 2:
        raise ArithmeticError("packed power sums are wrong: internal fault")
    return sums


def power_sums(table: AperyTable, mus: Iterable[int]) -> dict[int, int]:
    """{mu: mu-th power sum of the gaps} by ascending mu (mu = 0 gives the genus),
    all read by one recombination from the moments at lam = 1, the table's
    integer power sums up to max mu + 1.  A table wide against its depth
    takes them from :func:`_lookup_power_sums`, straight from the levels and
    without reading the entries; the cost rule :func:`_lookup_width` gives
    any other table, such as a small or deep one, to the chunked pass over
    its entries (:func:`_integer_power_sums`)."""
    mus = sorted(set(mus))
    if not mus:
        return {}
    if mus[0] < 0:
        raise ValueError("mu must be nonnegative")
    top = mus[-1] + 1
    width = _lookup_width(table.modulus, table.depth, top)
    if width is None:
        sums = _integer_power_sums(table.entries(), top)
    else:
        sums = _lookup_power_sums(table, top, width)
    totals = weighted_sum_from_moments(table.modulus, mus, as_element(1), sums, 1)
    if any(total.denominator != 1 for total in totals.values()):
        raise ArithmeticError("non-integral power sum: internal fault")
    return {mu: total.numerator for mu, total in totals.items()}


def power_sum(table: AperyTable, mu: int) -> int:
    """mu-th power sum of the gaps; mu = 0 recovers the genus."""
    return power_sums(table, (mu,))[mu]


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


def _times(x, y, product=mul):
    """x * y for powers of a weight, with None standing for one: no product
    is made with one, and a product that equals one comes back as None.
    Unit powers come up for root-of-unity weights and for lam = +-1/D,
    whose numerator is +-1.  ``product`` multiplies the ring path's
    coordinate tuples (:meth:`NumberRing.multiply`)."""
    if x is None:
        return y
    if y is None:
        return x
    z = product(x, y)
    return None if _is_one(z) else z


def _is_one(x) -> bool:
    if isinstance(x, RingElement):
        return x.num[0] == 1 and x == 1  # the first test fails fast on almost every power
    if isinstance(x, tuple):  # ring coordinates
        return x[0] == 1 and not any(x[1:])
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

    def __eq__(self, other):  # compared by parts: no power of two is materialized
        if type(other) is _Shift:
            return self.odd == other.odd and self.shift == other.shift
        return NotImplemented


def _binary(x: int):
    """x as odd * 2**k: x itself when it is odd, else a :class:`_Shift`."""
    k = (x & -x).bit_length() - 1
    return _Shift(x >> k, k) if k else x


def _power(lam, e: int, product=mul):
    """lam^e by square-and-multiply on :func:`_times` (None when it equals one)."""
    power, base = None, None if _is_one(lam) else lam
    while e:
        if e & 1:
            power = _times(power, base, product)
        e >>= 1
        if e:
            base = _times(base, base, product)
    return power


def _gap_powers(lam, gaps: Iterable[int], product=mul) -> dict:
    """{delta: lam^delta} for every distinct delta in ``gaps`` (and 0), with
    None for a power that equals one (see :func:`_times`).  Each power is the
    previous one, in ascending order, times lam^(difference), so close gaps
    cost one product each; a difference met first is raised by :func:`_power`.
    """
    powers: dict = {0: None}
    last = 0
    for delta in sorted(set(gaps) - {0}):
        step = delta - last
        power = powers[step] if step in powers else _power(lam, step, product)
        powers[delta] = _times(powers[last], power, product)
        last = delta
    return powers


def _steps(exponents: Sequence[int]) -> list[int]:
    """Differences of ascending exponents, the first one taken from 0."""
    return [e - last for last, e in zip([0, *exponents], exponents)]


def _split(lam: RingElement, gaps: Sequence[int]) -> tuple:
    """lam = v / D with D = lam.den, so v has integer coordinates and so has
    every product of powers of v.  Returns v and the integer scales
    {delta: D^delta} for 0 and the distinct ``gaps`` (none when D = 1), with
    D kept as odd * 2**k (:func:`_binary`), so that a product with a power
    of two is a shift.  A weight of ring degree 1 takes the int path, where
    v is such a Python int too; any other weight keeps v as the element
    lam * D, whose power operator checks the chained top power."""
    den = lam.den
    v = _binary(lam.num[0]) if lam.ring.degree == 1 else lam.numerator
    d = _binary(den)
    return v, {gap: d ** gap for gap in {0, *gaps}} if den != 1 else {}


# the table of powers that both routes of weighted_moments read: v and scales
# from _split, powers = {step: v^step} (None where it equals one; coordinate
# tuples on the ring path) and the weight's ring, None on the int path
_PowerTable = namedtuple("_PowerTable", "v scales powers ring")


def _power_table(lam: RingElement, exponents: Sequence[int]) -> _PowerTable:
    """:func:`_split` of lam over the steps between the ascending
    ``exponents`` (the first taken from 0), and v^step for each distinct
    step (:func:`_gap_powers`), by :meth:`NumberRing.multiply` on the
    coordinates of a ring weight."""
    steps = _steps(exponents)
    v, scales = _split(lam, steps)
    if lam.ring.degree == 1:
        return _PowerTable(v, scales, _gap_powers(v, steps), None)
    ring = lam.ring
    return _PowerTable(v, scales, _gap_powers(v.num, steps, ring.multiply), ring)


def _ascending_moments(exponents: Sequence[int], top: int, table: _PowerTable) -> list:
    """D^E M(0..top) in one ascending pass on lam = v/D over the
    :func:`_power_table`: v^e is stepped by v^(e - previous e), and every sum
    takes its e^nu v^e term from the same power.  Before each term the sums
    are multiplied by D^(e - previous e), a Horner scheme in D, so the top
    exponent E leaves sum_e e^nu D^(E-e) v^e = D^E M(nu) behind.  A ring
    weight takes :func:`_ascending_columns`.

    The chained v^E is a product of every cached power, so it is compared
    with ``v ** E``, the power operator of v's own type (int, :class:`_Shift`
    or :class:`RingElement`), which shares no code with :func:`_power` and
    :func:`_gap_powers`: the falling-factorial route reads the same powers,
    and only this check can see a wrong one."""
    if table.ring is not None:
        return _ascending_columns(exponents, top, table)
    v, scales, powers, _ = table
    sums = [0] * (top + 1)
    power = None  # v^e, None while it equals one
    for e, gap in zip(exponents, _steps(exponents)):
        if gap:
            power = _times(power, powers[gap])
            if scales:
                scale = scales[gap]
                sums = [x * scale for x in sums]
        term = 1 if power is None else power
        weight = 1
        for nu in range(top + 1):
            sums[nu] = sums[nu] + weight * term  # 0**0 == 1 covers e = 0
            weight *= e
    if exponents[-1] and term != v ** exponents[-1]:  # at E = 0 no power was taken
        raise ArithmeticError("cached powers of the weight are wrong: internal fault")
    return sums


_COLUMN_CHUNK = 16  # entries whose powers of v are kept at a time by _ascending_columns


def _ascending_columns(exponents: Sequence[int], top: int, table: _PowerTable) -> list:
    """:func:`_ascending_moments` for a ring weight, on coordinate tuples:
    v^e is chained with one product per entry (:meth:`NumberRing.multiply`)
    and the sums are kept as integer coordinates.  For D = 1 each of v^e's n
    coordinates goes into a column over a chunk of entries, and coordinate j
    of M(nu) gains the dot product of column j with the column of e^nu, one
    C-level sum each.  For D != 1 every entry first multiplies the sums by
    D^(e - previous e), Horner's rule in D, so that no power of v meets a
    power of D larger than one step's.  Chunks of _COLUMN_CHUNK entries keep
    the memory at a few of the sums' size however large the powers grow."""
    v, scales, powers, ring = table
    n, one = ring.degree, (1,) + (0,) * (ring.degree - 1)
    sums = [0] * ((top + 1) * n)  # coordinate j of D^e M(nu) at nu * n + j
    power = None  # v^e, None while it equals one
    chain = []  # v^e over the entries not yet in the sums (D = 1)
    for index, (e, gap) in enumerate(zip(exponents, _steps(exponents)), 1):
        if gap:
            power = _times(power, powers[gap], ring.multiply)
        coords = one if power is None else power
        if scales:  # D^e M(nu) from D^(previous e) M(nu)
            terms = [w * c for w in accumulate(repeat(e, top), mul, initial=1) for c in coords]
            sums = list(map(add, map(mul, sums, repeat(scales[gap])), terms))
            continue
        chain.append(coords)
        if len(chain) == _COLUMN_CHUNK or index == len(exponents):
            chunk, columns = exponents[index - len(chain) : index], list(zip(*chain))
            dots, weight = list(map(sum, columns)), chunk  # e^0 = 1, then e^1
            for _ in range(top):
                dots += [sum(map(mul, column, weight)) for column in columns]
                weight = list(map(mul, weight, chunk))
            sums, chain = list(map(add, sums, dots)), []
    if exponents[-1] and (one if power is None else power) != (v ** exponents[-1]).num:
        raise ArithmeticError("cached powers of the weight are wrong: internal fault")
    return [ring.from_numerator(sums[i : i + n]) for i in range(0, len(sums), n)]


def _falling_factorial_moments(exponents: Sequence[int], top: int, table: _PowerTable) -> list:
    """D^E M(0..top) from F(h) = sum_e (e)_h lam^e, recombined as
    M(nu) = sum_h S(nu, h) F(h) since e^nu = sum_h S(nu, h) (e)_h.

    The F(h) are descending Horner passes on lam = v/D over the
    :func:`_power_table`, run side by side over the exponents:
    acc_h <- acc_h * v^(previous e - e) + (e)_h D^(E - e), with the integer
    scale D^(E - e) stepped up once per exponent for all of them.  The
    falling factorial (e)_h vanishes for e < h, so those exponents add
    nothing.  The passes end at D^E F(h), recombined into D^E M(nu).  A ring
    weight takes :func:`_falling_matrix_steps`.
    """
    if table.ring is not None:
        return _falling_matrix_steps(exponents, top, table)
    _, scales, powers, _ = table
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
    return [sum(stirling2(nu, h) * falling[h] for h in range(nu + 1)) for nu in range(top + 1)]


def _falling_matrix_steps(exponents: Sequence[int], top: int, table: _PowerTable) -> list:
    """:func:`_falling_factorial_moments` for a ring weight, on coordinate
    vectors: each entry adds (e)_h D^(E - e) to coordinate 0 of acc_h, and
    each step down to the next entry (the lowest steps down to 0) is the
    integer multiplication matrix of v^delta (:meth:`NumberRing.matrix`,
    built once per distinct delta and never for a power that equals one)
    times acc_h."""
    _, scales, powers, ring = table
    matrices = {gap: ring.matrix(power) for gap, power in powers.items() if power is not None}
    falling = [[0] * ring.degree for _ in range(top + 1)]
    scale = scales[0] if scales else 1  # D^(E - e), a shift for even D as on the int path
    for e, gap in zip(reversed(exponents), reversed(_steps(exponents))):
        factorial = 1  # (e)_h = (e)_(h-1) (e - h + 1)
        for h, acc in enumerate(falling):
            acc[0] += factorial * scale
            factorial *= e - h
        if gap in matrices:
            step = matrices[gap]
            falling = [[sum(map(mul, row, acc)) for row in step] for acc in falling]
        if gap and scales:
            scale *= scales[gap]
    return [
        ring.from_numerator(
            [sum(stirling2(nu, h) * acc[j] for h, acc in enumerate(falling[: nu + 1]))
             for j in range(ring.degree)]
        )
        for nu in range(top + 1)
    ]


def _falling_factorial_sums(values: Sequence[int], top: int) -> list[int]:
    """[sum (x)_0, ..., sum (x)_top] over the integers ``values``: each
    falling factorial is the last times x - h + 1, one elementwise product."""
    sums, falling = [len(values), sum(values)], values  # (x)_0 = 1, (x)_1 = x
    for h in range(2, top + 1):
        falling = list(map(mul, falling, map(sub, values, repeat(h - 1))))
        sums.append(sum(falling))
    return sums[: top + 1]


def _class_moments(classes: Mapping[int, Sequence[int]], top: int, lam: RingElement) -> list:
    """M(0..top), M(nu) = sum_r lam^r sum_{x in class r} x^nu, for ``classes``
    mapping r to the integers of weight lam^r (a list, slice or range), along
    two routes compared exactly: integer power sums (:func:`_integer_power_sums`)
    with lam^r chained by :func:`_power`, and falling-factorial sums
    (:func:`_falling_factorial_sums`) recombined by Stirling numbers, with
    lam^r from lam's own power operator.  The ring work is a few products
    per class."""
    direct, falling = [lam.ring.zero] * (top + 1), [lam.ring.zero] * (top + 1)
    weight, last = None, 0  # lam^last, None while it equals one
    for r in sorted(classes):
        weight, last = _times(weight, _power(lam, r - last)), r
        sums = _integer_power_sums(classes[r], top)
        direct = [x + (y if weight is None else weight * y) for x, y in zip(direct, sums)]
        ff = _falling_factorial_sums(classes[r], top)
        power = lam ** r
        for nu in range(top + 1):
            falling[nu] += power * sum(stirling2(nu, h) * ff[h] for h in range(nu + 1))
    if direct != falling:
        raise ArithmeticError("class-sum routes disagree: internal fault")
    return direct


def _numerators(values: Sequence[RingElement]) -> tuple[list[RingElement], int]:
    """Integral numerators over one positive integer: values[i] = nums[i] / q."""
    q = lcm(*(x.den for x in values))
    return [x.numerator * (q // x.den) for x in values], q


def weighted_moments(exponents: Sequence[int], top: int, lam) -> tuple[list, int]:
    """(nums, q) with nums[nu] / q = M(nu) = sum_e e^nu lam^e for nu = 0..top,
    over the strictly ascending ``exponents`` (the table entries, m_0 = 0
    included, which adds 1 to M(0) and nothing else), along two routes that
    must agree exactly.

    A weight of finite order c has lam^e = lam^(e mod c): the moments are
    :func:`_class_moments` over the classes e mod c, over one denominator.
    Any other weight runs the kernel, :func:`_ascending_moments` against
    :func:`_falling_factorial_moments` over one :func:`_power_table`, on
    lam = v/D (D = lam.den) with integer scales, so that no step reduces a
    fraction; their D^E M(nu) are compared and handed on unreduced over
    q = D^E.  They are ints for a rational weight; for a weight of ring
    degree n >= 2 both routes run on tuples of n integer coordinates
    (:func:`_ascending_columns`, :func:`_falling_matrix_steps`), and each
    makes ring elements only of its top + 1 results.
    """
    if top < 0:
        raise ValueError("top must be nonnegative")
    lam = as_element(lam)
    if lam.is_zero:
        raise ValueError("weight 0 is not allowed")
    if not exponents or exponents[0] < 0 or not all(map(lt, exponents, exponents[1:])):
        raise ValueError("exponents must be nonnegative and strictly ascending")
    c = order(lam)
    if c is not None:
        classes: list[list[int]] = [[] for _ in range(c)]
        for e in exponents:
            classes[e % c].append(e)
        return _numerators(_class_moments({r: xs for r, xs in enumerate(classes) if xs}, top, lam))
    table = _power_table(lam, exponents)
    scaled = _ascending_moments(exponents, top, table)
    if scaled != _falling_factorial_moments(exponents, top, table):
        raise ArithmeticError("weighted moment routes disagree: internal fault")
    return scaled, lam.den ** exponents[-1]


def weighted_moment(table: AperyTable, nu: int, lam) -> RingElement:
    """sum_i m_i^nu lam^{m_i} over the whole table (the m_0 = 0 entry
    contributes 1 when nu = 0 and nothing otherwise), checked along both
    routes of :func:`weighted_moments` and divided once in lam's ring."""
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    nums, q = weighted_moments(sorted(table.m), nu, lam)
    return as_element(lam).ring.one * nums[nu] / q


def _eulerian_form(n: int, x, y):
    """sum_{j=0}^{n} <n, n-j> x^j y^(n-j): the Eulerian polynomial of row n,
    made homogeneous, so that E_n(v/D) = _eulerian_form(n, v, D) / D^n."""
    acc = 1  # <n, 0>
    for j in range(n - 1, -1, -1):
        acc = acc * x + eulerian(n, n - j) * y ** (n - j)
    return acc


# G(t) = residue/t + sum_n coeffs[n] t^n / (n! p^(n+1)), with 1/p = adj/norm
_Laurent = namedtuple("_Laurent", "residue p adj norm coeffs")


def _laurent(x_num: RingElement, x_den: int, c: int, top: int) -> _Laurent:
    """G(x, c) = 1/(1 - x e^{ct}) for x = x_num / x_den, to order t^top.

    For x != 1, sum_k k^n x^k = E_n(x) / (1 - x)^(n+1) gives p = x_den - x_num
    and coeffs[n] = c^n x_den E_n(x_num, x_den), integral.  For x = 1,
    G = -1/(ct) - sum_n B_{n+1} c^n/(n+1) t^n/n!, and p, the lcm of the
    c (n+1) den(B_{n+1}), makes every coeffs[n] an integer, and the pole's
    p^(n+1) / (c (n+1)) too (see :func:`_series_product`).
    """
    p = x_den - x_num
    if not p.is_zero:
        coeffs = [c ** n * x_den * _eulerian_form(n, x_num, x_den) for n in range(top + 1)]
        return _Laurent(0, p, *p.adjugate(), coeffs)
    bern = [bernoulli(n + 1).as_integer_ratio() for n in range(top + 1)]
    p = lcm(*(c * (n + 1) * den for n, (_, den) in enumerate(bern)))
    coeffs = [-num * (c * p) ** n * (p // (n + 1) // den) for n, (num, den) in enumerate(bern)]
    return _Laurent(Fraction(-1, c), p, 1, p, coeffs)


def _series_product(g: _Laurent, nums: Sequence, q: int, mus: Sequence[int]) -> dict[int, tuple]:
    """{mu: (num, den)} with num / den = mu! [t^mu] A(t) G(t) for the series
    G = ``g`` and A(t) = sum_nu (nums[nu] / q) t^nu / nu!: the sum

        sum_n C(mu, n) coeffs[n] p^(mu-n) nums[mu-n] + residue p^(mu+1) nums[mu+1] / (mu+1)

    over q p^(mu+1), and 1/p^(mu+1) = adj^(mu+1) / norm^(mu+1) reduces nothing.
    """
    powers = [g.p ** j for j in range(max(mus) + (2 if g.residue else 1))]
    out = {}
    for mu in mus:
        total = sum(
            binomial(mu, n) * g.coeffs[n] * powers[mu - n] * nums[mu - n] for n in range(mu + 1)
        )
        if g.residue:
            total = total + int(g.residue * (powers[mu + 1] // (mu + 1))) * nums[mu + 1]
        out[mu] = (g.adj ** (mu + 1) * total, q * g.norm ** (mu + 1))
    return out


def weighted_sum_from_moments(
    modulus: int, mus: Sequence[int], lam: RingElement, nums: Sequence, q: int
) -> dict[int, RingElement]:
    """Gap sums s_mu = sum_n lam^n n^mu for every mu in ``mus`` from the
    moments M(nu) = sum_i m_i^nu lam^{m_i} = nums[nu] / q as
    :func:`weighted_moments` leaves them (m_0 = 0 adds 1 to M(0)), in every
    regime by one identity: the gaps' generating series is
    1/(1 - x) - sum_i x^{m_i} / (1 - x^a), a = modulus, so at x = lam e^t

        s_mu = mu! [t^mu] (G(lam, 1) - A(t) G(lam^a, a)),  A(t) = sum_nu M(nu) t^nu / nu!,

    with G from :func:`_laurent`.  At lam^a = 1 (which reads M(max mu + 1)) and
    at lam = 1 (the power sums) G has a pole, and the t^-1 coefficients must
    cancel, which is checked: M(0) = 0 when only lam^a = 1, M(0) = a at lam = 1.
    The terms run on the numerators, and each mu ends in one reduction (to a
    Fraction at lam = 1 on int numerators, where every term is an integer).
    """
    a, top = modulus, max(mus)
    v, d = lam.numerator, lam.den
    own = _laurent(v, d, 1, top)  # G(lam, 1), times A = 1
    table = _laurent(v ** a, d ** a, a, top)
    if own.residue * q != table.residue * nums[0]:
        raise ArithmeticError("the t^-1 coefficients do not cancel: the moments are not a table's")
    out = {}
    for mu, (y, y_den) in _series_product(table, nums, q, mus).items():
        x, x_den = own.adj ** (mu + 1) * own.coeffs[mu], own.norm ** (mu + 1)
        out[mu] = (x * y_den - y * x_den) * Fraction(1, x_den * y_den)
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


def _residue_differences(table: AperyTable, top: int, lam: RingElement) -> list[RingElement]:
    """D(e) = sum_{i>=1} (m_i^e - i^e) lam^{m_i} for e = 0..top (D(0) = 0) when
    lam^a = 1: m_i = i mod a gives lam^{m_i} = lam^(i mod c), c the order of
    lam, so D is two :func:`_class_moments` over the classes i mod c."""
    a, c = table.modulus, order(lam)
    entries = _class_moments({r: table.m[r::c] for r in range(c)}, top, lam)
    indices = _class_moments({r: range(r, a, c) for r in range(c)}, top, lam)
    return [m - i for m, i in zip(entries, indices)]


def _check_differences(table: AperyTable, mus: Sequence[int], lam: RingElement, values) -> None:
    """Hold the sums ``values`` for lam^a = 1 (lam != 1) exactly equal to the
    residue-difference form, cross-multiplied.  With i = m_i mod a and
    lam^a = 1, the differences D(t) = sum_e D(e) t^e/e! (:func:`_residue_differences`)
    are A(t) - sum_{i<a} lam^i e^{it}, and sum_{i<a} lam^i e^{it} G(1, a) = G(lam, 1),
    so s_mu = -mu! [t^mu] D(t) G(1, a), read through the same pole coefficients.
    """
    nums, q = _numerators(_residue_differences(table, mus[-1] + 1, lam))
    pole = _laurent(lam.ring.one, 1, table.modulus, mus[-1])
    for mu, (num, den) in _series_product(pole, nums, q, mus).items():
        if values[mu].numerator * den != -num * values[mu].den:
            raise ArithmeticError("unity-weight forms disagree: internal fault")


def weighted_sum_general(table: AperyTable, mu: int, lam) -> RingElement:
    """Weighted gap sum when lam^a != 1, from the residue table."""
    if is_power_unity(require_weight((mu,), lam), table.modulus):
        raise ValueError("weight is a root of unity of the modulus order; use weighted_sum_unity_a")
    return weighted_sums(table, (mu,), lam).values[mu]


def weighted_sum_unity_a(table: AperyTable, mu: int, lam) -> RingElement:
    """Weighted gap sum when lam^a = 1 (lam != 1), e.g. alternating sums;
    the series and residue-difference forms are compared exactly."""
    if not is_power_unity(require_weight((mu,), lam), table.modulus):
        raise ValueError("weight is not a root of unity of the modulus order")
    return weighted_sums(table, (mu,), lam).values[mu]


class WeightedSum(NamedTuple):
    value: RingElement
    branch: str  # "general" | "unity-a", or the closed forms' tag "unity-d" for lam^d = 1


class WeightedSums(NamedTuple):
    values: dict[int, RingElement]  # mu -> weighted gap sum
    branch: str  # "general" | "unity-a", or the closed forms' tag "unity-d" for lam^d = 1


def weighted_sums(table: AperyTable, mus: Iterable[int], lam) -> WeightedSums:
    """Weighted gap sums for every mu in ``mus`` from one table, dispatching
    on whether the order of lam divides a; all read one moment vector."""
    mus = sorted(set(mus))
    lam = require_weight(mus, lam)
    unity_a = is_power_unity(lam, table.modulus)  # then the pole reads M(max mu + 1)
    nums, q = weighted_moments(sorted(table.m), mus[-1] + unity_a, lam)
    values = weighted_sum_from_moments(table.modulus, mus, lam, nums, q)
    if unity_a:
        _check_differences(table, mus, lam, values)
    return WeightedSums(values, "unity-a" if unity_a else "general")


def weighted_sum(gens: Generators, mu: int, lam) -> WeightedSum:
    """Weighted gap sum for arbitrary generators, dispatching on whether the
    weight is a root of unity of order dividing the smallest generator."""
    lam = require_weight((mu,), lam)
    values, branch = weighted_sums(apery_general(gens), (mu,), lam)
    return WeightedSum(values[mu], branch)


@lru_cache(maxsize=256)
def _label(text: str) -> str:
    """The one kept copy of a result label or method tag: summaries held
    side by side share it rather than each holding its own string.  The
    last 256 distinct texts are kept."""
    return text


@dataclass(frozen=True, slots=True)
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
    power_sums = path.power_sums(power_mus)
    methods = {_label(f"power_sum[{mu}]"): path.tag for mu in power_sums}
    weighted: Mapping[int, RingElement] = {}
    if weight is not None and weighted_mus:
        weighted, tag = path.weighted_sums(weighted_mus, weight)
        tag = _label(tag)
        methods.update((_label(f"weighted_sum[{mu}]"), tag) for mu in weighted)
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
