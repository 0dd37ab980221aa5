"""Exact reference answers computed without the package under test.

The benchmark checks every timed answer against this module, outside the
timed region.  Nothing here imports ``gapsums``:

* the residue table comes from the round-robin algorithm (Böcker & Lipták,
  "A fast and simple algorithm for the money changing problem",
  Algorithmica 48, 2007), not from the package's Dijkstra pass or its sieve;
* power sums are summed class by class with Bernoulli polynomials built from
  Bernoulli numbers of our own (Akiyama–Tanigawa);
* weighted sums walk the gap set term by term in integer arithmetic modulo
  the weight's integer minimal polynomial, with one common denominator.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, gcd
from typing import NamedTuple, Sequence

__all__ = [
    "Weight",
    "apery_table",
    "bernoulli_numbers",
    "gap_list",
    "gap_stats",
    "weighted_sums",
]


class Weight(NamedTuple):
    """A weight as the benchmark knows it, independent of the package.

    ``spec`` is the package's weight grammar.  The value is ``num / den`` in
    Z[x]/(minpoly): ``minpoly`` is monic with ascending integer coefficients
    and ``num`` holds power-basis integer coordinates.  ``order`` is the
    multiplicative order when the weight is a root of unity, else 0.
    """

    spec: str
    minpoly: tuple[int, ...]
    num: tuple[int, ...]
    den: int = 1
    order: int = 0

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def branch(self, modulus: int, step: int = 0) -> str:
        """Which regime the weight falls in for smallest generator ``modulus``
        (and progression difference ``step``, if any)."""
        if self.order and modulus % self.order == 0:
            return "unity-a"
        if self.order and step and step % self.order == 0:
            return "unity-d"
        return "general"


def apery_table(gens: Sequence[int]) -> list[int]:
    """Least representable member of each residue class mod min(gens).

    Round robin: for each further generator g, walk every cycle of
    i -> i + g (mod a) from its current minimum, relaxing
    n[i + g] = min(n[i + g], n[i] + g).  Along one cycle the relaxation is a
    running minimum of n[r_j] - j*g, which numpy computes in one pass.
    """
    import numpy as np  # here, not at the top: set-up imports this module and is timed

    values = sorted(set(gens))
    a = values[0]
    inf = np.int64(1) << 62
    n = np.full(a, inf, dtype=np.int64)
    n[0] = 0
    for g in values[1:]:
        step = g % a
        if step == 0:
            continue
        cycles = gcd(a, step)
        length = a // cycles
        j = np.arange(length, dtype=np.int64)
        for start in range(cycles):
            order = (start + j * step) % a
            lowest = int(np.argmin(n[order]))
            if n[order[lowest]] >= inf:
                continue  # this cycle is not reachable yet
            order = np.roll(order, -lowest)
            z = n[order] - j * g
            n[order] = np.minimum.accumulate(z) + j * g
    if int(n.max()) >= inf:
        raise ValueError("generators are not coprime")
    return [int(x) for x in n]


def bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0 .. B_{count-1} with B_1 = -1/2 (Akiyama–Tanigawa, sign-adjusted)."""
    out: list[Fraction] = []
    row: list[Fraction] = []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if count > 1:
        out[1] = -out[1]  # the algorithm yields B_1 = +1/2
    return out


def gap_stats(m: Sequence[int], mus: Sequence[int]) -> tuple[int, int, dict[int, int]]:
    """Frobenius number, genus and power sums from a residue table.

    Class i holds the gaps i, i + a, ..., m_i - a, so with x = i/a
    sum_t (i + t*a)^mu = a^mu (B_{mu+1}(m_i/a) - B_{mu+1}(i/a)) / (mu+1).
    """
    a = len(m)
    frobenius = max(m) - a
    genus = sum((mi - i) // a for i, mi in enumerate(m))
    top = max(mus, default=0) + 1
    bern = bernoulli_numbers(top + 1)
    table_pow = {e: sum(mi**e for mi in m) for e in range(top + 1)}
    index_pow = {e: sum(i**e for i in range(a)) for e in range(top + 1)}
    sums: dict[int, int] = {}
    for mu in mus:
        n = mu + 1
        total = Fraction(0)
        for j in range(n + 1):
            if bern[j]:
                diff = table_pow[n - j] - index_pow[n - j]
                total += comb(n, j) * bern[j] * Fraction(diff, a ** (n - j))
        value = total * a**mu / n
        if value.denominator != 1:
            raise ArithmeticError("reference power sum is not an integer")
        sums[mu] = int(value)
    return frobenius, genus, sums


def gap_list(m: Sequence[int]) -> list[int]:
    """The gap set in ascending order."""
    a = len(m)
    return sorted(n for i, mi in enumerate(m) for n in range(i, mi, a))


def _mul_mod(p: list[int], q: Sequence[int], minpoly: Sequence[int]) -> list[int]:
    d = len(q)
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q):
                if y:
                    prod[i + j] += x * y
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        if c:
            for j in range(d):
                prod[k - d + j] -= c * minpoly[j]
    return prod[:d]


def weighted_sums(
    gaps: Sequence[int], mus: Sequence[int], weight: Weight
) -> dict[int, tuple[Fraction, ...]]:
    """sum_{n in gaps} w^n n^mu as power-basis coordinates, for each mu.

    With w = v / D the walk keeps acc = sum_{n <= N} n^mu v^n D^(N - n),
    multiplying the accumulator by D once per step, and divides by D^N at
    the end.
    """
    d = weight.degree
    minpoly, v, den = weight.minpoly, weight.num, weight.den
    if len(v) != d or minpoly[-1] != 1:
        raise ValueError(f"malformed weight {weight}")
    acc = {mu: [0] * d for mu in mus}
    if not gaps:
        return {mu: tuple(Fraction(0) for _ in range(d)) for mu in mus}
    members = set(gaps)
    top = gaps[-1]
    power = [1] + [0] * (d - 1)
    for n in range(top + 1):
        if n:
            power = _mul_mod(power, v, minpoly)
            if den != 1:
                for vec in acc.values():
                    for i in range(d):
                        vec[i] *= den
        if n in members:
            for mu, vec in acc.items():
                scale = n**mu
                for i in range(d):
                    vec[i] += scale * power[i]
    scale = den**top
    return {mu: tuple(Fraction(c, scale) for c in vec) for mu, vec in acc.items()}
