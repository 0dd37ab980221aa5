"""Residue tables for numerical semigroups.

For coprime generators a_1 < ... < a_k, every residue class i mod a_1 has a
least representable member m_i (with m_0 = 0).  The table (m_0, ..., m_{a-1})
drives every formula downstream: the Frobenius number, the genus, and all
power and weighted sums.  It is stored as its levels L_i = (m_i - i)/a_1, so
m_i = L_i*a_1 + i lies in residue i by construction.  For arbitrary generators
the levels come from a bit-parallel sieve over blocks of a_1 integers, which
hands tables deeper than a fixed number of blocks to a shortest-path search
over the residues; for an arithmetic progression, from a closed-form fill.
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from math import factorial, gcd, prod
from operator import add, floordiv, mul
from typing import Iterable, Iterator, Sequence

__all__ = [
    "AperyTable",
    "ArithProgression",
    "Generators",
    "apery_arith",
    "apery_general",
    "apery_polynomial",
    "as_arith_progression",
]


@dataclass(frozen=True)
class Generators:
    """A validated generating set: strictly increasing, coprime, k >= 2.

    Input order does not matter; duplicates are dropped.
    """

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]):
        vals = tuple(sorted(set(values)))
        if not all(isinstance(v, int) and v > 0 for v in vals):
            raise ValueError("generators must be positive integers")
        if len(vals) < 2:
            raise ValueError("need at least two distinct generators")
        g = 0
        for v in vals:
            g = gcd(g, v)
        if g != 1:
            raise ValueError(f"generators must be coprime overall (gcd = {g})")
        object.__setattr__(self, "values", vals)

    @property
    def modulus(self) -> int:
        return self.values[0]

    @property
    def largest(self) -> int:
        return self.values[-1]

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ArithProgression:
    """Generators a, a+d, ..., a+(k-1)d with gcd(a, d) = 1 and 2 <= k <= a.

    The decomposition a - 1 = q(k-1) + r with 0 <= r < k-1 (so q >= 1) shapes
    the closed-form residue table (:meth:`rows`) and every
    arithmetic-progression formula.
    """

    a: int
    d: int
    k: int

    def __post_init__(self) -> None:
        if self.a < 2 or self.d < 1 or self.k < 2:
            raise ValueError("need a >= 2, d >= 1, k >= 2")
        if self.k > self.a:
            raise ValueError(f"need k <= a (got k={self.k}, a={self.a})")
        if gcd(self.a, self.d) != 1:
            raise ValueError(f"need gcd(a, d) = 1 (got gcd = {gcd(self.a, self.d)})")

    @property
    def q(self) -> int:
        return (self.a - 1) // (self.k - 1)

    @property
    def r(self) -> int:
        return (self.a - 1) % (self.k - 1)

    @property
    def largest(self) -> int:
        return self.a + (self.k - 1) * self.d

    def generators(self) -> Generators:
        return Generators(self.a + j * self.d for j in range(self.k))

    def rows(self) -> Iterator[tuple[int, range]]:
        """The rows of the residue table: (s*a, js) for the nonempty rows
        s = 1..q+1, where row s holds the entries s*a + j*d for j in
        js = (s-1)(k-1)+1 .. min(s(k-1), a-1).  There are q full rows of k-1
        entries and, when r > 0, a last row of r; the a-1 entries together
        are the nonzero table entries, in ascending order, since row s ends
        at s*a_k, below the start of row s+1."""
        k1 = self.k - 1
        for s in range(1, self.q + 1 + (self.r > 0)):
            yield s * self.a, range((s - 1) * k1 + 1, min(s * k1, self.a - 1) + 1)


_BYTE_VALUES = bytes(range(256))  # ascending


@dataclass(frozen=True, kw_only=True)
class AperyTable:
    """m[i] = levels[i]*modulus + i, the least member of residue i mod modulus = len(levels).
    ``levels`` is the one field; depth = max(levels) is read from it, and
    levels below 256 are stored as bytes, whichever builder made them, deeper
    ones as a tuple.  A negative level is refused.

    :meth:`entries` reads the m[i] out of the levels lazily, for readers that
    pass over them once; the tuple ``m`` is built on first use only, for
    readers that need random access."""

    levels: bytes | tuple[int, ...]
    depth: int = field(init=False, compare=False)

    def __post_init__(self) -> None:
        levels = self.levels
        if not levels or levels[0] != 0:
            raise ValueError("the zero residue entry must be 0")
        if type(levels) is bytes:  # the sieve's bytes pass as they are
            # the byte values that occur are all 256 less those that do not:
            # two passes in C, where max() over the bytes takes 20 times as long
            depth = _BYTE_VALUES.translate(None, _BYTE_VALUES.translate(None, levels))[-1]
        else:
            if (low := min(levels)) < 0:
                raise ValueError(f"level {low} is negative")
            depth = max(levels)
            object.__setattr__(self, "levels", bytes(levels) if depth < 256 else tuple(levels))
        object.__setattr__(self, "depth", depth)

    @classmethod
    def from_entries(cls, modulus: int, m: Sequence[int]) -> AperyTable:
        """The table of entries ``m``, each checked against its residue."""
        if len(m) != modulus:
            raise ValueError("table length must equal the modulus")
        if m[0] != 0:
            raise ValueError("the zero residue entry must be 0")
        for i, mi in enumerate(m):
            if mi < 0 or mi % modulus != i:
                raise ValueError(f"entry {mi} does not represent residue {i}")
        return cls(levels=tuple(mi // modulus for mi in m))

    @property
    def modulus(self) -> int:
        return len(self.levels)

    def entries(self) -> Iterator[int]:
        """m[0], ..., m[modulus-1], one at a time."""
        return map(add, map(mul, self.levels, repeat(self.modulus)), range(self.modulus))

    @cached_property
    def m(self) -> tuple[int, ...]:
        return tuple(self.entries())


# The sieve hands a table over to Dijkstra after this many blocks of a_1
# integers.  A sweep over deep tables (a_1 from 500 to 5*10^4, 1 to 29 steps,
# a_k up to 2*a_1) timed a block at 1-30 us, growing with a_1 and k, and put
# the depth at which both cost the same at 219 blocks or more for every set
# with a_1 >= 1000 (0.03*a_1 to 0.5*a_1 blocks from a_1 = 5000 on) and at
# 102-167 blocks at a_1 = 500; a block costs no more when a_k is far above
# a_1.  255 is also the largest level that the sieve's table holds in one
# byte per residue.
LEVEL_BUDGET = 255


def apery_general(gens: Generators) -> AperyTable:
    """Residue table for arbitrary generators.

    Level sieve: block L holds the integers L*a_1 .. L*a_1 + a_1 - 1, one
    Python int of a_1 membership bits.  Every generator g = q*a_1 + r is at
    least a_1, so n - g lies in block L - q or L - q - 1, and the block's
    members are the OR over g of that pair of blocks shifted by a_1 - r, cut
    to a_1 bits.  A member n with n - a_1 outside the semigroup is the least
    one of its residue n mod a_1: it is m_{n mod a_1}.  The sieve stops once
    all a_1 - 1 nonzero residues are found, after max(m_i) / a_1 blocks; each
    block costs O(k * a_1 / 64) machine-word operations, done inside the int
    routines, however large the generators are.  It keeps only the blocks
    that the generators below the budget reach back to, and the level that
    found each residue in eight bit planes, read out once at the end as one
    byte per residue, so the working memory is a few bytes per integer of
    min(a_k, 256 * a_1), whatever the Frobenius number.

    Deep tables (two generators, near-progressions, most three-generator
    sets at a_1 >= 2*10^4) need hundreds to thousands of blocks, where the
    O(k * a_1 * log a_1) Dijkstra search costs as much or less, so a table
    not finished within :data:`LEVEL_BUDGET` blocks is handed to
    :func:`_dijkstra`.  When a volume bound shows that the sums of the
    generators below that depth cannot meet every residue, the sieve does
    not start.
    """
    a1 = gens.modulus
    steps = [g for g in gens.values[1:] if g % a1 != 0]
    table = _level_sieve(a1, steps)
    return _dijkstra(a1, steps) if table is None else table


def _level_sieve(a1: int, steps: list[int]) -> AperyTable | None:
    """The table of :func:`apery_general` by blocks of a_1 integers (``steps``
    are the generators other than multiples of a_1, all above a_1), or None
    when it is not complete within the level budget."""
    # The minima in blocks 0..LEVEL_BUDGET are sums c.steps (c >= 0) below
    # top, and no step in such a sum is top or more: leaving those steps out
    # changes no minimum the sieve can find.
    top = (LEVEL_BUDGET + 1) * a1
    steps = [g for g in steps if g < top]
    # The unit cubes at distinct such c do not overlap and lie in the simplex
    # x >= 0, x.steps < reach, so there are at most
    # reach^s / (s! * prod(steps)) of them, s = len(steps); fewer than a_1
    # means the sieve cannot finish within its budget.
    reach = top + sum(steps)
    if reach ** len(steps) < a1 * factorial(len(steps)) * prod(steps):
        return None
    # A step g = q*a_1 + r reaches block L from blocks L - q and L - q - 1:
    # bit t of the block is bit a_1 - r + t of the pair of them.
    lags: dict[int, list[int]] = {}
    for g in steps:
        lags.setdefault(g // a1, []).append(a1 - g % a1)
    mask = (1 << a1) - 1
    # bit t of planes[b] is bit b of the block in which residue t was found
    planes = [0] * LEVEL_BUDGET.bit_length()
    # the blocks a lag can reach; block 0 holds only the integer 0, and the
    # blocks before it are empty
    reach_back = max(lags, default=0)
    blocks = deque([0] * reach_back + [1], maxlen=reach_back + 1)
    for level in range(1, LEVEL_BUDGET + 1):
        below = blocks[-1]  # members n with n - a_1 in the semigroup
        block = below
        for q, shifts in lags.items():
            pair = blocks[-q] << a1 | blocks[-q - 1]
            for shift in shifts:
                block |= pair >> shift
        block &= mask
        new = block ^ below
        for b in range(level.bit_length()):
            if level >> b & 1:
                planes[b] |= new
        if block == mask:
            break
        blocks.append(block)
    else:
        return None
    # byte t of levels is the block of residue t: the planes that hold a bit,
    # spread to one byte per residue, add without carries (LEVEL_BUDGET < 256)
    levels = sum(_spread(plane, a1) << b for b, plane in enumerate(planes) if plane)
    return AperyTable(levels=levels.to_bytes(a1, "little"))


# maps the digits of format(x, "b") to the byte values 0 and 1
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _spread(bits: int, n: int) -> int:
    """The int whose byte t is bit t of ``bits``, for t < n."""
    return int.from_bytes(format(bits, f"0{n}b").encode().translate(_BINARY_DIGITS), "big")


def _dijkstra(a1: int, steps: list[int]) -> AperyTable:
    """The table of :func:`apery_general` as shortest paths over the a_1
    residue classes: an arc i -> (i + g) mod a_1 of weight g extends a value
    by one generator and its residue by g, so the distances from residue 0 are
    exactly the m_i, each in its residue.  Costs O(k * a_1 * log a_1) steps in
    the interpreter, independent of the depth of the table."""
    dist: list[int | None] = [None] * a1
    dist[0] = 0
    heap: list[tuple[int, int]] = [(0, 0)]
    while heap:
        d, v = heapq.heappop(heap)
        if dist[v] is not None and d > dist[v]:
            continue
        for g in steps:
            w = (v + g) % a1
            nd = d + g
            if dist[w] is None or nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return AperyTable(levels=tuple(map(floordiv, dist, repeat(a1))))


def apery_arith(ap: ArithProgression) -> AperyTable:
    """Closed-form residue table for an arithmetic progression, filled from its
    rows (:meth:`ArithProgression.rows`), which must fill every residue.
    Agrees with :func:`apery_general` on the same generators."""
    a, d = ap.a, ap.d
    levels = [0] + [-1] * (a - 1)  # -1: not filled
    for base, js in ap.rows():
        for value in range(base + js.start * d, base + js.stop * d, d):
            levels[value % a] = value // a
    if -1 in levels:
        raise ValueError(f"no row fills residue {levels.index(-1)}")
    return AperyTable(levels=tuple(levels))


def apery_polynomial(table: AperyTable) -> list[int]:
    """P(x) = sum_i x^{m_i}: ascending dense coefficients, one term per residue."""
    out = [0] * (max(table.m) + 1)
    for mi in table.m:
        out[mi] += 1
    return out


def as_arith_progression(gens: Generators) -> ArithProgression | None:
    """Recognize an arithmetic progression, or return None.

    Generators beyond the a-th term are redundant (a + j*d with j >= a equals
    (a + (j-a)*d) + d*a), so k is truncated to a without changing the
    semigroup; this keeps the closed forms inside their k <= a hypothesis.
    """
    vals = gens.values
    a = vals[0]
    if a < 2:
        return None
    d = vals[1] - vals[0]
    if any(vals[i + 1] - vals[i] != d for i in range(1, len(vals) - 1)):
        return None
    return ArithProgression(a, d, min(len(vals), a))
