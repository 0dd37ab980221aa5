"""Brute-force ground truth for every formula in the package.

A sieve decides every integer up to F + a_1 directly from the generators,
and the gap set (the nonrepresentable positive integers) is the clear bits
of the result; sums over the gaps are computed term by term over those
bits.  The power sums take one packed lookup per four integers for every
mu at once: the bits are read as hex digits, each digit's gaps pick a
packed sum of the powers of their offsets, and the sums are moved down a
window at a time.  A weighted sum runs on integral elements in one pass,
one term per gap, with a single reduction at the end (on Python ints for a
rational weight, with its powers of two as shifts, and on integral ring
elements for any other).
The sieve is word-parallel and runs in one ascending pass: each window of
consecutive integers is one Python int, the OR of one slice of the member
bytes below it per generator, closed under the generators narrower than
the window by shift-and-OR, so each integer is one bit and every step runs
in C over whole digits of the int (30 integers per CPython digit).  The
windows widen as the pass goes and are appended to one byte buffer; no
integer is decided twice, and the Frobenius number and the genus are
counted as each window is decided.  That buffer is the only copy of the
bits: every read-out slices it a window of ``_WINDOW`` integers at a time,
so a pass holds the bits plus one window and, for the power sums, the
packed rows of one window.  Those rows depend on the window's shape alone,
so they are built once per shape and the last few are kept for later
calls, under a fixed bound.  The module shares no code with the
residue-table engine: it exists to certify the closed forms, not to
compete with them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, islice, repeat
from math import comb
from operator import add, and_, getitem, mul, rshift, sub
from typing import Iterable, Iterator

from .apery import Generators
from .numberfield import RingElement, as_element

__all__ = ["GapSet", "gap_set", "power_sum", "power_sums", "weighted_sum"]

# The sieve's windows start at 4 a_1 integers (whole bytes, at least one)
# and double each time their base reaches _WIDEN widths, up to _WIDEST:
# narrow windows cost calls, wide ones shifts.  On the 432 seed-7 and
# seed-11 verify-cli sets this took 21-22 ms, and windows from a_1 with
# _WIDEN = 16 up to 2^20 36-38 ms; a cap of 2^14 was 16-20 % slower on
# (64, 1000003) and (3000, 3001).
_WIDEN = 2
_WIDEST = 1 << 16

# '0'/'1' digits -> 1/0 selector bytes for itertools.compress: picks the gaps
_GAP_FLAGS = bytes.maketrans(b"01", b"\x01\x00")

# hex digits -> their complemented nibbles, whose set bits are the gaps
_NIBBLES = bytes.maketrans(b"0123456789abcdef", bytes(range(15, -1, -1)))

# Integers per read-out window.  A window holds at most this many gaps as
# Python ints (about 36 B each), and each window costs a few calls whatever
# it holds.  The power sums round it up to whole bytes, read 4 W packed
# entries (16 per hex digit, about (top + 1)(top + 2) bits(W) / 2 bits
# each: 331 KB at top = 8, so a set with fewer bits than the rows takes a
# smaller window past top = 5), built once per window shape (_ROWS_KEPT),
# and move each window's sums to its base with one product per lane.  Over
# the 96 power-sum calls of a seed-7 verify-cli corpus (bounds 2.5 * 10^4
# to 2 * 10^5, top 3 to 5), best of five per call and of three interleaved
# rounds, with the rows built on every call, W = 256 took 178 ms, 512
# 135 ms, 1024 102 ms, 2048 120 ms and 4096 202 ms; on (3000, 3001),
# 9 * 10^6 integers, mu = 2 took 0.17, 0.12, 0.10, 0.12 and 0.12 s and
# mu = 8 0.39, 0.23, 0.17, 0.15 and 0.16 s.  Below 1024 the moves cost
# more, above it the rows; on (3000, 3001) the minima were within noise
# from 1024 to 4096.  With the rows kept, best of seven per call, 512 took
# 87-115 ms, 1024 64-71 ms and 2048 61-66 ms over three rounds: within the
# noise of 1024, at twice the kept rows.
_WINDOW = 1024

# The power sums keep the rows of the last _ROWS_KEPT window shapes (span,
# top) with top <= _KEPT_TOP, built on first use.  A seed-7, 11 or 1
# verify-cli corpus reads three shapes, span 1024 at top 3, 4 and 5: with
# one kept shape 71-76 of its 96 calls built rows, with two 42-48, and from
# three on only the first three.  The fourth holds one more, such as a
# mu = 8 check.  At span 1024 the rows take 160, 182, 212 and 331 KB at top
# 3, 4, 5 and 8 (CPython 3.11), and a smaller span takes less, so the kept
# rows stay under 1.4 MB whatever the inputs; a higher top builds its rows
# on every call.
_ROWS_KEPT = 4
_KEPT_TOP = 8


@dataclass(frozen=True)
class GapSet:
    """The membership bits of the semigroup on ``[0, bound]``, bound = F + a_1
    where the sieve stopped: the gaps are the clear bits, and nothing is
    stored per gap.

    ``members`` is the sieve's read-only buffer, bit n mod 8 of byte n // 8
    set for a member n, and the sieve counted ``frobenius`` (-1 with no
    gap) and ``genus``.  :meth:`windows` reads the gaps out a window at a
    time.  ``gaps``, the whole tuple, and ``minima``, the least member of
    each residue class mod a_1 (the residue table), are read out of the
    same bytes on first use."""

    bound: int
    members: memoryview = field(repr=False)  # membership bits on [0, bound]
    modulus: int
    frobenius: int
    genus: int

    @cached_property
    def gaps(self) -> tuple[int, ...]:
        """Every gap, ascending; the sums read :meth:`windows` instead."""
        return tuple(chain.from_iterable(self.windows()))

    @cached_property
    def minima(self) -> tuple[int, ...]:
        return _minima(self.members, self.bound, self.modulus)

    def is_representable(self, n: int) -> bool:
        if n < 0:
            return False
        if n > self.bound:
            return True  # past F everything is representable
        return bool(self.members[n >> 3] >> (n & 7) & 1)

    def windows(self, descending: bool = False) -> Iterator[list[int]]:
        """The gaps, one list per window of ``_WINDOW`` integers.

        The windows come in ascending order and each list is ascending;
        with ``descending`` both are reversed, so that the gaps chained
        together descend.  Only one window's gaps are alive at a time."""
        for lo, flags in _gap_flags(self.members, self.bound + 1, descending):
            gaps = list(compress(range(lo, lo + len(flags)), flags))  # 0 is always a member
            if descending:
                gaps.reverse()
            yield gaps


def _gap_flags(raw: memoryview, width: int, descending: bool = False) -> Iterator[tuple[int, bytes]]:
    """(lo, flags) for each window of ``_WINDOW`` integers in ``[0, width)``,
    ascending unless ``descending``: byte t of ``flags`` is 1 where bit
    lo + t of ``raw`` is clear (a gap) and 0 where it is set, the selectors
    that :func:`itertools.compress` takes.  Each window is read from its
    slice of ``raw``, so no string of all ``width`` digits is made."""
    starts = range(0, width, _WINDOW)
    for lo in reversed(starts) if descending else starts:
        n = min(_WINDOW, width - lo)
        row = format(_bits(raw, lo, n) & ((1 << n) - 1), f"0{n}b")[::-1]
        yield lo, row.encode().translate(_GAP_FLAGS)


def _bits(raw: bytes | bytearray | memoryview, start: int, width: int) -> int:
    """Bits ``start`` on of the little-endian ``raw``, ``width`` of them and
    up to 7 more; those below 0 or past the end of ``raw`` read clear."""
    if start >= 0:
        return int.from_bytes(raw[start >> 3:(start + width + 7) >> 3], "little") >> (start & 7)
    return int.from_bytes(raw[:max(start + width + 7, 0) >> 3], "little") << -start


def _sieve(gens: Generators) -> tuple[memoryview, int, int, int]:
    """Membership bits of the semigroup on ``[0, bound]`` as read-only
    little-endian bytes, ``bound``, the Frobenius number and the genus.

    A positive n is a member exactly when some n - g is.  One ascending
    pass decides windows ``[lo, lo + W)``, W a multiple of 8, appending
    each to the member bytes below it: each generator g < lo + W adds its
    slice of them at lo - g, and each g < W is closed in inside the window
    by the shifts g, 2g, 4g, ..., which add every count of copies of g
    (and keep the closure under the earlier generators).  The last clear
    bit so far is the Frobenius number, and each window adds W minus its
    popcount to the genus.

    The pass stops at the first window end a_1 past the last gap (0 before
    the first): adding copies of a_1 to that run of members reaches
    everything, so bound = F + a_1 (1 for a_1 = 1).  The buffer, trimmed
    to ``[0, bound]``, is returned as a view, not copied: memory is the bits
    up to bound and one window, whatever a_k.
    """
    a1, values = gens.modulus, gens.values
    width = max(8, a1 >> 1 << 3)
    raw = bytearray()
    lo = last = genus = 0  # the window's base, the last gap, the gaps so far
    while lo <= last + a1:
        if lo >= _WIDEN * width and 2 * width <= _WIDEST:
            width *= 2
        window = int(lo == 0)
        for g in values:
            if g >= lo + width:
                break
            window |= _bits(raw, lo - g, width)
        mask = (1 << width) - 1
        for g in values:
            if g >= width:
                break
            while g < width:
                window |= window << g
                g <<= 1
            window &= mask
        window &= mask
        raw += window.to_bytes(width >> 3, "little")
        if window != mask:
            last = lo + (window ^ mask).bit_length() - 1
            genus += width - window.bit_count()
        lo += width
    bound = last + a1
    del raw[(bound >> 3) + 1:]
    raw[-1] &= (2 << (bound & 7)) - 1
    return memoryview(raw).toreadonly(), bound, last if genus else -1, genus


def _minima(members: memoryview, bound: int, a1: int) -> tuple[int, ...]:
    """The least member of each residue class mod a_1.

    A member n whose n - a_1 is not a member is the least of its class, so
    the minima are the set bits of ``members & ~(members << a_1)``; there
    are exactly a_1 of them.  They are read a window of whole bytes at a
    time from slices of the member bytes, each window ANDed with the
    complement of its slice a_1 below, and found one by one.
    """
    minima = [0] * a1
    step = -(-_WINDOW // 8)  # bytes per window
    width = 8 * step
    for s in range(0, (bound >> 3) + 1, step):
        lo = 8 * s
        least = int.from_bytes(members[s:s + step], "little") & ~_bits(members, lo - a1, width)
        while least:
            t = least.bit_length() - 1
            minima[(lo + t) % a1] = lo + t
            least ^= 1 << t
    return tuple(minima)


def gap_set(gens: Generators) -> GapSet:
    members, bound, frobenius, genus = _sieve(gens)
    return GapSet(bound, members, gens.modulus, frobenius, genus)


def _packed_powers(width: int, top: int) -> tuple[list[int], list[int], list[int]]:
    """The packed powers of the window offsets, with their lane offsets and
    masks: entry t < ``width`` packs t^j for j = 0..top into lane j
    (Kronecker substitution).

    With W = ``width`` and b = bits(W - 1), t < 2^b, so t^j < 2^(j b) for
    j >= 1, and a window adds at most W <= 2^b entries: a lane sum stays
    below 2^((j + 1) b), and a lane of (j + 1) b + 1 bits never carries
    into the next (lane 0, the count, can reach W itself).

    The entries are the values at t = 0, 1, ... of one polynomial of degree
    top, so they are read off its forward differences at 0 by ``top``
    running sums, one add per entry and power."""
    bits = (width - 1).bit_length()
    lanes = [(j + 1) * bits + 1 for j in range(top + 1)]
    offsets = list(accumulate(lanes[:-1], initial=0))
    row = [sum(t ** j << offset for j, offset in enumerate(offsets)) for t in range(top + 1)]
    differences = []  # the k-th forward difference at 0, k = 0..top
    while row:
        differences.append(row[0])
        row = list(map(sub, row[1:], row))
    values = repeat(differences.pop())  # the top-th difference is constant
    for start in reversed(differences):
        values = accumulate(values, initial=start)
    return list(islice(values, width)), offsets, [(1 << lane) - 1 for lane in lanes]


def _nibble_rows(packed: list[int]) -> tuple[tuple[int, ...], ...]:
    """rows[u][p], the sum of the entries 4v + b of ``packed`` over the set
    bits b of the nibble p, with v = len(packed) / 4 - 1 - u: the packed
    powers of the gaps among four offsets, for each of the 16 ways they can
    fall, highest offsets first, as a window's hex digits come.  Row p | 2^b
    is row p plus column b, so the 16 rows take 11 adds per u; the rows
    with bit 3 are read once, by zip."""
    columns = [packed[b - 4::-4] for b in range(4)]
    rows: list = [repeat(0)]
    for column in columns[:3]:
        rows += [column] + [list(map(add, row, column)) for row in rows[1:]]
    last = columns[3]
    return tuple(zip(*rows, last, *(map(add, row, last) for row in rows[1:])))


def _build_rows(span: int, top: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...],
                                              tuple[int, ...]]:
    """The :func:`_nibble_rows` of windows of ``span`` integers for lanes
    0..top, with the lane offsets and masks of :func:`_packed_powers`, all
    immutable: they depend on ``(span, top)`` alone."""
    packed, offsets, masks = _packed_powers(span, top)
    return _nibble_rows(packed), tuple(offsets), tuple(masks)


_window_rows = lru_cache(maxsize=_ROWS_KEPT)(_build_rows)  # see _ROWS_KEPT


def power_sums(gs: GapSet, mus: Iterable[int]) -> dict[int, int]:
    """{mu: sum n^mu over the gap set} by ascending mu, in one descending pass
    over the bits: one packed lookup per four integers for every mu at once.

    The bits are read a window of W integers at a time as hex digits, each
    mapped to its complemented nibble p, whose set bits are the gaps among
    four integers.  Gap n = lo + 4u + b in the window at lo adds the packed
    powers of 4u + b (:func:`_packed_powers`), and :func:`_nibble_rows` sums
    them over the gaps of each nibble, so a window's sums about lo are one
    lookup and one add per digit.  Each window's digits are its slice of
    the sieve's bytes, read in reverse so that they come highest first; the
    integers past the bound up to whole windows read as members, and they
    fall in the top window alone, which is padded in a small copy of its
    own, so no copy of all the bits is made.  The rows
    depend on (W, top) alone: they are built on the first call with that
    shape and read from :func:`_window_rows` by later ones (up to
    top = _KEPT_TOP).  From the
    top window down, the running sums move down by W with one product per
    lane, as (y + W)^j = sum_k C(j, k) W^(j - k) y^k: lane k times
    spread[k], which packs C(j, k) W^(j - k) into each lane j >= k.  A
    window joins the running sums at the next move, so its rows keep the
    lanes of W offsets.  Lane j
    of the running sums holds sum (n - lo)^j < X^(j + 1) over at most X
    integers, X the padded width, so bits(X) (j + 1) + 1 bits never carry;
    at lo = 0 lane j is s_j.  Lane 0, the count of gaps read from the hex
    digits, must equal the genus that the sieve counted from the popcount
    of each of its windows."""
    mus = sorted(set(mus))
    if mus and mus[0] < 0:
        raise ValueError("mu must be nonnegative")
    if not mus:
        return {}
    top = mus[-1]
    raw = gs.members
    size = len(raw)  # bytes of bits on [0, bound]
    step = min(-(-_WINDOW // 8), size)  # bytes per window
    # The rows pack 32 step entries of (top + 1)((top + 2) b + 2) / 2 bits,
    # b = bits(W - 1).  Where that passes both _WINDOW^2 bits and the bits
    # of the set, the window halves: the rows of a small set at a high top
    # stay small, and a large set keeps the whole window.
    while step > 1 and (16 * step * (top + 1) * ((top + 2) * (8 * step - 1).bit_length() + 2)
                        > max(_WINDOW ** 2, 8 * size)):
        step //= 2
    size = -(-size // step) * step  # whole windows
    width, span = 8 * size, 8 * step
    rows, near, narrow = (_window_rows if top <= _KEPT_TOP else _build_rows)(span, top)
    lanes = [width.bit_length() * (j + 1) + 1 for j in range(top + 1)]
    offsets = list(accumulate(lanes[:-1], initial=0))
    masks = [(1 << lane) - 1 for lane in lanes]
    spread = [sum(comb(j, k) * span ** (j - k) << offsets[j] for j in range(k, top + 1))
              for k in range(top + 1)]
    # The bits past the bound, up to whole windows, read as members.  They
    # fall in the top window alone, so only it is padded, in ``head``, and
    # every other window reads its slice of ``raw`` as it is.
    head = bytearray(raw[size - step:])
    head[-1] |= -2 << (gs.bound & 7) & 0xFF  # bits past the bound in its last byte
    head += b"\xff" * (size - len(raw))
    acc = window = 0
    for hi in range(size, 0, -step):
        moved = map(add, map(and_, map(rshift, repeat(acc), offsets), masks),
                    map(and_, map(rshift, repeat(window), near), narrow))
        acc = sum(map(mul, moved, spread))
        chunk = raw[hi - step:hi].tobytes() if hi < size else head
        digits = chunk[::-1].hex().encode().translate(_NIBBLES)
        window = sum(map(getitem, rows, digits))
    sums = [(acc >> offset & mask) + (window >> n & m)
            for offset, mask, n, m in zip(offsets, masks, near, narrow)]
    if sums[0] != gs.genus:
        raise ArithmeticError("packed gap power sums are wrong: internal fault")
    return {mu: sums[mu] for mu in mus}


def power_sum(gs: GapSet, mu: int) -> int:
    """sum n^mu over the gap set."""
    return power_sums(gs, (mu,))[mu]


def weighted_sum(gs: GapSet, mu: int, lam) -> RingElement:
    """sum lam^n * n^mu over the gap set, exactly in lam's ring.

    With lam = v / D (D = lam.den, so v is integral) and the gaps
    n_1 < ... < n_J, the sum is

        v^(n_1) / D^(n_J) * sum_j v^(n_j - n_1) D^(n_J - n_j) n_j^mu,

    and the inner sum is one descending Horner pass over the gaps:
    acc <- acc * v^(n_{j+1} - n_j) + n_j^mu * D^(n_J - n_j).  Every ring
    computes over an integral modulus, so every step stays integral and
    none reduces a fraction; the one reduction is the final division by
    D^(n_J).

    The powers of two in v = s 2^b and D = t 2^c are one shift of the term,
    v^n D^(n_J - n) = s^n t^(n_J - n) << (b n + c (n_J - n)), so the pass
    multiplies acc by s^delta only and ends at acc * s^(n_1) / D^(n_J).  A
    rational weight runs on Python ints; other weights keep v whole (b = 0).
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    lam = as_element(lam)
    if lam.is_zero:
        raise ValueError("weight 0 is not allowed")
    ring = lam.ring
    top = gs.frobenius
    if top < 0:
        return ring.zero
    den = lam.den
    if ring.degree == 1:
        s, acc = lam.num[0], 0
        b = (s & -s).bit_length() - 1
        s >>= b
    else:
        s, acc, b = lam * den, ring.zero, 0
    c = (den & -den).bit_length() - 1
    t = den >> c
    steps: dict[int, tuple] = {}  # delta -> (s^delta, t^delta)
    scale = 1  # t^(n_J - n)
    above = top
    for n in chain.from_iterable(gs.windows(descending=True)):
        delta = above - n
        if delta:
            step = steps.get(delta)
            if step is None:
                step = steps[delta] = (s ** delta, t ** delta)
            if step[0] != 1:  # s = 1 for lam = 2^b / D
                acc = acc * step[0]
            scale *= step[1]
        acc = acc + (n ** mu * scale << b * n + c * (top - n))
        above = n
    acc = acc * s ** above
    if ring.degree == 1:
        return ring.from_rational(Fraction(acc, den ** top))
    return acc * Fraction(1, den ** top)
