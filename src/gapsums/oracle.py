"""Brute-force ground truth for every formula in the package.

A boolean sieve enumerates the gap set (the nonrepresentable positive
integers) directly from the generators; sums over it are computed term by
term.  Slow by design, exact always: this module exists to certify the
closed forms, not to compete with them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .apery import Generators
from .numberfield import RingElement, as_element

__all__ = ["GapSet", "apery_minima", "gap_set", "power_sum", "weighted_sum"]


@dataclass(frozen=True)
class GapSet:
    """The sorted gap set plus the sieve horizon that produced it."""

    gaps: tuple[int, ...]
    bound: int
    _members: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_members", frozenset(self.gaps))

    def is_representable(self, n: int) -> bool:
        if n < 0:
            return False
        if n > self.bound:
            return True  # beyond the horizon everything is representable
        return n not in self._members


def _sieve(gens: Generators) -> tuple[list[int], list[int], int]:
    """Gap list, per-residue minima, and the last sieved integer.

    Stops once a_1 consecutive representable integers appear: from there on,
    adding copies of a_1 reaches everything.  The sieve grows one byte per
    integer, so memory follows the Frobenius number, not the cap.  A hard cap
    at a_1 * a_k guards against bugs; it is provably never the binding stop.
    """
    a1 = gens.modulus
    cap = a1 * gens.largest + a1
    reachable = bytearray(b"\x01")
    minima: list[int | None] = [None] * a1
    minima[0] = 0
    gaps: list[int] = []
    run = 0
    n = 0
    while run < a1:
        n += 1
        if n > cap:  # pragma: no cover - unreachable by the stopping argument
            raise AssertionError("sieve exceeded its safety bound")
        hit = any(n >= g and reachable[n - g] for g in gens.values)
        reachable.append(hit)
        if hit:
            run += 1
            if minima[n % a1] is None:
                minima[n % a1] = n
        else:
            run = 0
            gaps.append(n)
    return gaps, minima, n  # type: ignore[return-value]


def gap_set(gens: Generators) -> GapSet:
    gaps, _, bound = _sieve(gens)
    return GapSet(tuple(gaps), bound)


def apery_minima(gens: Generators) -> tuple[int, ...]:
    """Per-residue least representable values straight from the sieve."""
    _, minima, _ = _sieve(gens)
    return tuple(minima)


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
