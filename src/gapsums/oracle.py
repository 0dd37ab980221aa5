"""Brute-force ground truth for every formula in the package.

A sieve enumerates the gap set (the nonrepresentable positive integers)
directly from the generators, deciding every integer below its horizon; sums
over the gaps are computed term by term.  The sieve is word-parallel: the
membership bits of ``[0, H]`` are one Python int, closed under each generator
by shift-and-OR, so each integer is one bit and every step runs in C over
whole digits of the int (30 integers per CPython digit).  It shares no code
with the residue-table engine: this module exists to certify the closed
forms, not to compete with them.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from .apery import Generators
from .numberfield import RingElement, as_element

__all__ = ["GapSet", "apery_minima", "gap_set", "power_sum", "weighted_sum"]

# The first horizon, in multiples of a_1; it doubles until it holds a run of
# a_1 consecutive members.  Every set with a_1 >= 2 has all of 1..a_1-1 as
# gaps, so no smaller horizon can ever hold the run.
_FIRST_HORIZON = 2

# '0'/'1' digits -> 1/0 selector bytes for itertools.compress: picks the gaps
_GAP_FLAGS = bytes.maketrans(b"01", b"\x01\x00")


@dataclass(frozen=True)
class GapSet:
    """The sorted gap set, the sieve horizon that produced it, and the least
    member of each residue class mod a_1 (the residue table)."""

    gaps: tuple[int, ...]
    bound: int
    minima: tuple[int, ...]

    def is_representable(self, n: int) -> bool:
        if n < 0:
            return False
        if n > self.bound:
            return True  # beyond the horizon everything is representable
        i = bisect_left(self.gaps, n)
        return i == len(self.gaps) or self.gaps[i] != n


def _digits(x: int, width: int) -> str:
    """Bits 0 .. width-1 of ``x`` (which is below 2**width) as '0'/'1', bit n at index n."""
    return format(x, f"0{width}b")[::-1]


def _members(gens: Generators, horizon: int) -> int:
    """Membership bits of the semigroup on ``[0, horizon]``, bit n for n.

    Each generator g is closed in by doubling shifts: after the shifts by g,
    2g, ..., 2^j g every count of copies of g below 2^(j+1) has been added, and
    the shifts stop once 2^j g passes the horizon.  Closing under one
    generator keeps the closure under the earlier ones.
    """
    mask = (2 << horizon) - 1
    members = 1
    for g in gens.values:
        shift = g
        while shift <= horizon:
            members = (members | members << shift) & mask
            shift <<= 1
    return members


def _first_run_end(members: int, length: int) -> int | None:
    """Least n >= length with n-length+1 .. n all members, or None.

    Position 0 is left out, so the run lies in the positive integers.  The
    run width doubles per AND-shift step: bit n of ``ends`` is set when the
    ``span`` positions up to n are all members.
    """
    ends = members & ~1
    span = 1
    while span < length:
        step = min(span, length - span)
        ends &= ends << step
        span += step
    if not ends:
        return None
    return (ends & -ends).bit_length() - 1


def _sieve(gens: Generators) -> tuple[list[int], list[int], int]:
    """Gap list, per-residue minima, and the last sieved integer.

    The sieve stops at the first run of a_1 consecutive representable
    positive integers; from there on, adding copies of a_1 reaches everything,
    so the stop is F + a_1 (F the Frobenius number, 0 when there are no gaps).
    The horizon starts at 2·a_1 and doubles until it holds that run, so memory
    is about one bit per integer up to 2(F + a_1) whatever a_k, and a
    generator past the horizon costs nothing.  A hard cap at a_1·a_k + a_1
    guards against bugs; it is provably never the binding stop.

    A member n whose n - a_1 is not a member is the least member of its
    residue class, so the minima are the set bits of
    ``members & ~(members << a_1)``.
    """
    a1 = gens.modulus
    cap = a1 * gens.largest + a1
    horizon = _FIRST_HORIZON * a1
    while True:
        members = _members(gens, horizon)
        bound = _first_run_end(members, a1)
        if bound is not None:
            break
        if horizon >= cap:  # pragma: no cover - unreachable by the stopping argument
            raise AssertionError("sieve exceeded its safety bound")
        horizon = min(2 * horizon, cap)
    width = bound + 1
    mask = (1 << width) - 1
    row = _digits(members & mask, width).encode().translate(_GAP_FLAGS)
    gaps = list(compress(range(width), row))  # 0 is always a member
    # exactly a_1 set bits: find them one by one rather than scan every position
    firsts = _digits(members & ~(members << a1) & mask, width)
    minima = [0] * a1
    m = firsts.find("1")
    while m >= 0:
        minima[m % a1] = m
        m = firsts.find("1", m + 1)
    return gaps, minima, bound


def gap_set(gens: Generators) -> GapSet:
    gaps, minima, bound = _sieve(gens)
    return GapSet(tuple(gaps), bound, tuple(minima))


def apery_minima(gens: Generators) -> tuple[int, ...]:
    """Per-residue least representable values straight from the sieve."""
    return gap_set(gens).minima


def power_sum(gs: GapSet, mu: int) -> int:
    """sum n^mu over the gap set."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    return sum(n ** mu for n in gs.gaps)


def weighted_sum(gs: GapSet, mu: int, lam) -> RingElement:
    """sum lam^n * n^mu over the gap set, exactly in lam's ring."""
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    lam = as_element(lam)
    if lam.is_zero:
        raise ValueError("weight 0 is not allowed")
    total = lam.ring.zero
    power = lam.ring.one
    last = 0
    for n in gs.gaps:  # ascending, so powers advance by small deltas
        power = power * lam ** (n - last)
        last = n
        total = total + power * n ** mu
    return total
