"""Unit tests for the sieve oracle."""
from __future__ import annotations

import functools
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from itertools import chain, islice
from operator import lt

import pytest
from hypothesis import assume, example, given, strategies as st

from corpora import random_generator_sets
from gapsums import Generators, LambdaSpec, apery_general, as_element, frobenius, genus
from gapsums import oracle, paths

GAPS_13 = tuple(
    list(range(1, 13))
    + [14, 15, 17, 18, 20, 21, 23, 24, 27, 28, 30, 31, 33, 34, 36, 37, 40, 43, 46, 49, 53, 56, 59, 62]
)

GAPS_14 = tuple(
    list(range(1, 14))
    + [15, 16, 18, 19, 21, 22, 24, 25, 27]
    + [30, 32, 33, 35, 36, 38, 39, 41]
    + [44, 47, 50, 53]
    + [61, 64, 67]
)


def test_tiny_gap_set():
    gs = oracle.gap_set(Generators([2, 3]))
    assert gs.gaps == (1,)
    assert gs.is_representable(0)
    assert not gs.is_representable(1)
    assert gs.is_representable(10 ** 6)


def test_reference_gap_sets():
    gs = oracle.gap_set(Generators([13, 16, 19, 22, 25]))
    assert gs.gaps == GAPS_13
    assert len(gs.gaps) == 36 and max(gs.gaps) == 62
    gs = oracle.gap_set(Generators([14, 17, 20, 23, 26, 29]))
    assert gs.gaps == GAPS_14
    assert len(gs.gaps) == 37 and max(gs.gaps) == 67


def test_semigroup_closure_under_addition():
    rng = random.Random(9)
    for gens in random_generator_sets(20, seed=31, max_a1=30, max_k=4, max_value=90):
        gs = oracle.gap_set(gens)
        reps = [n for n in range(gs.bound + 1) if gs.is_representable(n)]
        for _ in range(200):
            x, y = rng.choice(reps), rng.choice(reps)
            if x + y <= gs.bound:
                assert gs.is_representable(x + y)


def test_gap_count_matches_table_genus():
    for gens in random_generator_sets(40, seed=77, max_a1=40):
        assert len(oracle.gap_set(gens).gaps) == genus(apery_general(gens))


def test_apery_minima_match_shortest_path_table():
    for gens in random_generator_sets(40, seed=123, max_a1=40):
        assert oracle.gap_set(gens).minima == apery_general(gens).m


def test_residue_minima_are_read_out_on_demand(monkeypatch):
    # the table is read out of the sieve only when asked for, and then once
    from gapsums import paths

    calls = []
    honest = oracle._minima

    def counted(*args):
        calls.append(args)
        return honest(*args)

    monkeypatch.setattr(oracle, "_minima", counted)
    gens = Generators([13, 16, 19, 22, 25])
    path = paths.OraclePath(gens)
    assert (path.frobenius(), path.genus(), path.power_sums((2,))[2]) == (62, 36, 33150)
    path.weighted_sums((1,), 2)
    assert not calls
    assert path.apery() == path.apery() == apery_general(gens).m
    assert len(calls) == 1
    assert paths.OraclePath(Generators([1, 5])).frobenius() == -1  # no gaps


def test_oracle_sums():
    gs13 = oracle.gap_set(Generators([13, 16, 19, 22, 25]))
    assert oracle.power_sum(gs13, 2) == 33150
    gs14 = oracle.gap_set(Generators([14, 17, 20, 23, 26, 29]))
    assert oracle.weighted_sum(gs14, 3, as_element(-1)) == -375500
    gs23 = oracle.gap_set(Generators([2, 3]))
    assert oracle.weighted_sum(gs23, 9, as_element(Fraction(1, 2))) == Fraction(1, 2)


def _reference_weighted_sums(gs: oracle.GapSet, mus, lam) -> dict:
    """The ascending term-by-term sums: one ring power and product per gap,
    and one sum per gap and mu, each reduced to lowest terms."""
    totals = dict.fromkeys(mus, lam.ring.zero)
    power = lam.ring.one
    last = 0
    for n in gs.gaps:
        power = power * lam ** (n - last)
        last = n
        for mu in mus:
            totals[mu] = totals[mu] + power * n ** mu
    return totals


REFERENCE_WEIGHTS = [
    "2", "-1", "-1/2", "2/3", "-2", "root(3,2)", "zeta(5)",
    "elem(minpoly=[1,0,1];coeffs=[4,3])",  # 4 + 3i
    "elem(minpoly=[1/2,0,1];coeffs=[1/3,5/7])",  # a modulus with a non-integral coefficient
]


def test_weighted_sum_matches_the_ascending_reference():
    weights = [LambdaSpec.parse(w).element() for w in REFERENCE_WEIGHTS]
    sets = random_generator_sets(300, seed=4417, max_a1=10, max_k=4, max_value=30)
    for gens in sets:
        gs = oracle.gap_set(gens)
        for lam in weights:
            for mu, want in _reference_weighted_sums(gs, (0, 1, 3), lam).items():
                got = oracle.weighted_sum(gs, mu, lam)
                assert (got.num, got.den) == (want.num, want.den), (gens.values, str(lam), mu)
    empty = oracle.gap_set(Generators([1, 5]))  # 1 is a generator, so there are no gaps
    assert empty.gaps == ()
    assert all(oracle.weighted_sum(empty, 1, lam).is_zero for lam in weights)
    assert oracle.power_sum(empty, 2) == 0


def test_oracle_rejects_bad_arguments():
    gs = oracle.gap_set(Generators([2, 3]))
    with pytest.raises(ValueError):
        oracle.power_sum(gs, -1)
    with pytest.raises(ValueError):
        oracle.power_sums(gs, (2, -1))
    with pytest.raises(ValueError):
        oracle.weighted_sum(gs, 1, as_element(0))


def test_sieve_memory_follows_the_frobenius_number():
    # a_1 * a_k is about 5.1 million here; the sieve stops at 51,383
    gens = Generators([1801, 1999, 2203, 2411, 2609, 2801])
    tracemalloc.start()
    try:
        gs = oracle.gap_set(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(gs.gaps) == genus(apery_general(gens))
    assert peak < 8 * 2**20


def test_the_sieve_keeps_one_copy_of_the_bits():
    # (3000, 3001) has 9 * 10^6 bits, 1.1 MB: the sieve's buffer is the
    # gap set's bits, kept as a view, where joining them into one int made
    # a second copy (a peak of 2.08 times the bits)
    tracemalloc.start()
    try:
        gs = oracle.gap_set(Generators([3000, 3001]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (gs.bound >> 3) + 1  # bytes of bits on [0, bound]
    assert size == 1125000 and peak <= 1.25 * size
    assert len(gs.members) == size


def test_frobenius_genus_and_membership_read_no_copy_of_the_bits():
    # the Frobenius number and the genus are counted by the sieve and
    # membership reads one byte, where the complement of the bits and a
    # shift of them per call allocated 2.4 MB here
    gens = Generators([3000, 3001])
    gs = oracle.gap_set(gens)
    minima = gs.minima
    probes = range(-2, gs.bound + 3, gs.bound // 1000)
    assert len(probes) >= 1000
    want = [n >= 0 and n >= minima[n % 3000] for n in probes]
    tracemalloc.start()
    try:
        got = (gs.frobenius, gs.genus, list(map(gs.is_representable, probes)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    table = apery_general(gens)
    assert got == (frobenius(table), genus(table), want)
    assert peak < 64 * 1024


def _reference_sieve(gens: Generators) -> tuple[list[int], list[int], int]:
    """The per-integer sieve: one interpreted ``any`` over the generators per
    integer, stopping after a_1 consecutive representable integers."""
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
        if n > cap:
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


def _sieve_corpus(count: int, seed: int) -> list[Generators]:
    """a_1 from 1 to 300 (one set in ten above 30, one in a hundred above 100,
    so that the per-integer reference stays quick), k up to 7, generators up
    to 6·a_1, one in five a multiple of a_1."""
    rng = random.Random(seed)
    out: list[Generators] = []
    while len(out) < count:
        top = 300 if len(out) % 100 == 0 else 100 if len(out) % 10 == 0 else 30
        a1 = rng.randint(1, top)
        values = {a1}
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.2:
                values.add(a1 * rng.randint(2, 6))
            else:
                values.add(rng.randint(a1 + 1, 6 * a1))
        try:
            out.append(Generators(values))
        except ValueError:
            continue
    return out


def test_sieve_matches_per_integer_reference():
    sets = _sieve_corpus(2000, seed=2204)
    assert sum(gens.modulus == 1 for gens in sets) > 20
    assert sum(gens.modulus > 100 for gens in sets) > 10
    for gens in sets:
        gs = oracle.gap_set(gens)
        assert (list(gs.gaps), list(gs.minima), gs.bound) == _reference_sieve(gens), gens.values


def _doubling_sieve(gens: Generators) -> tuple[int, int]:
    """The membership bits on [0, bound] and bound, by a horizon that starts
    at 2·a_1 and doubles until it holds a run of a_1 members past 0; each
    horizon closes every generator in by doubling shifts over all of it."""
    a1 = gens.modulus
    horizon = 2 * a1
    while True:
        mask = (2 << horizon) - 1
        members = 1
        for g in gens.values:
            shift = g
            while shift <= horizon:
                members = (members | members << shift) & mask
                shift <<= 1
        ends = members & ~1  # bit n: the span positions up to n are members
        span = 1
        while span < a1:
            step = min(span, a1 - span)
            ends &= ends << step
            span += step
        if ends:
            bound = (ends & -ends).bit_length() - 1
            return members & ((2 << bound) - 1), bound
        horizon *= 2


def _coprime_set(a1: int, rest: list[int]) -> Generators:
    assume(math.gcd(a1, *rest) == 1)
    return Generators([a1, *rest])


@st.composite
def _sieve_shapes(draw) -> Generators:
    """Three kinds of shape: a_1 <= 8 with a_k up to 10^4, so the windows
    widen far past a_1; generators that are multiples of a_1; and far
    generators, up to 10^9, past the stop or among the last windows."""
    kind = draw(st.sampled_from(["small a_1", "multiples", "far"]))
    if kind == "small a_1":
        a1 = draw(st.integers(1, 8))
        return _coprime_set(a1, draw(st.lists(st.integers(a1 + 1, 10 ** 4), min_size=1, max_size=4)))
    a1 = draw(st.integers(2, 60))
    rest = draw(st.lists(st.integers(a1 + 1, 6 * a1), min_size=1, max_size=4))
    if kind == "multiples":
        return _coprime_set(a1, rest + draw(st.lists(st.integers(2, 8), min_size=1, max_size=3).map(
            lambda ks: [k * a1 for k in ks])))
    return _coprime_set(a1, rest + draw(st.lists(st.integers(7 * a1, 10 ** 9), min_size=1, max_size=2)))


@given(_sieve_shapes())
@example(Generators([1, 2]))
@example(Generators([2, 3]))
@example(Generators([16, 100003]))
@example(Generators([2, 1000001]))
def test_stream_sieve_matches_the_doubling_sieve(gens):
    members, bound, frobenius, genus = oracle._sieve(gens)
    bits, want = _doubling_sieve(gens)
    assert (int.from_bytes(members, "little"), bound) == (bits, want)
    assert members.readonly and len(members) == (bound >> 3) + 1
    clear = ((2 << want) - 1) ^ bits
    assert (frobenius, genus) == (clear.bit_length() - 1, clear.bit_count())


@pytest.mark.parametrize("values", [(1000, 1001), (3011, 3012, 3014)])
def test_deep_sieves_match_the_residue_table(values):
    # F is about a_1^2 and a_1^2 / 3, so the sieve runs through 20 and 65
    # windows that widen as they go.  The per-integer reference takes
    # seconds here, so the check is against the residue table instead: a
    # strictly increasing list of genus many integers, each below the least
    # member of its residue class, is the gap set.
    gens = Generators(values)
    table = apery_general(gens)
    gs = oracle.gap_set(gens)
    gaps, minima, bound = gs.gaps, gs.minima, gs.bound
    a1 = gens.modulus
    assert tuple(minima) == table.m
    assert bound == frobenius(table) + a1 == max(table.m)
    assert len(gaps) == genus(table) and gaps[-1] == frobenius(table)
    assert all(map(lt, gaps, islice(gaps, 1, None)))
    assert all(n < minima[n % a1] for n in gaps)


@pytest.mark.parametrize(
    "near, far",
    [((7, 8), 10**12 + 1), ((1801, 1999, 2203, 2411, 2609, 2801), 10**9 + 7)],
)
def test_far_generators_stay_cheap(near, far):
    # the sieve stops before any window reaches the far generator, so it adds
    # no work and no memory, where a_1 * a_k bits would be 875 GB and 225 GB
    gens = Generators(near + (far,))
    tracemalloc.start()
    try:
        gs = oracle.gap_set(gens)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gs == oracle.gap_set(Generators(near))
    assert peak < 48 * gs.gaps[-1] + 4096


def test_sums_hold_the_bits_and_one_window():
    # (449, 450) has 100,576 gaps up to its horizon 201,600: a tuple of them
    # takes 36 B per gap, where the path reads them out a window at a time
    # from one bit per integer
    path = paths.OraclePath(Generators([449, 450]))
    oracle._window_rows.cache_clear()  # the peak holds the rows built cold
    tracemalloc.start()
    try:
        answers = (path.frobenius(), path.genus(), path.power_sums((0, 1, 3, 8)),
                   path.weighted_sums((1,), -1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    gs = path.gapset
    assert "gaps" not in vars(gs)
    gaps = gs.gaps
    assert answers[:2] == (gaps[-1], len(gaps)) == (201151, 100576)
    assert answers[2] == {mu: sum(n ** mu for n in gaps) for mu in (0, 1, 3, 8)}
    assert answers[3] == ({1: sum(n if n % 2 == 0 else -n for n in gaps)}, "oracle")
    assert peak < 4 * (gs.bound + 1)
    assert peak * 8 < sys.getsizeof(gaps) + sum(map(sys.getsizeof, gaps))


def test_minima_are_read_a_window_at_a_time():
    # the minima are the set bits of members & ~(members << a_1), read a
    # window at a time from one copy of the member bytes, 1/8 B per integer:
    # a string of all bound + 1 digits and its reverse took 2 B per integer,
    # and the shifted and complemented ints of all the bits about 1/2 B
    gens = Generators([449, 450])
    gs = oracle.gap_set(gens)
    tracemalloc.start()
    try:
        minima = gs.minima
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert minima == apery_general(gens).m
    assert peak < (gs.bound + 1) / 3


def test_power_sums_read_one_copy_of_the_bits():
    # (2000, 2001) has 4 * 10^6 bits, 488 KiB.  The windows read one copy of
    # them as bytes, with only the top bytes that the padding to whole
    # windows reaches padded apart.  The rows at top 2, built cold here,
    # take about 180 KiB; a second copy of the bits would pass the bound.
    gs = oracle.gap_set(Generators([2000, 2001]))
    oracle._window_rows.cache_clear()
    tracemalloc.start()
    try:
        sums = oracle.power_sums(gs, (2,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sums == {2: sum(n * n for n in gs.gaps)}
    assert peak < (gs.bound + 1) // 8 + 256 * 1024


@st.composite
def _small_generator_sets(draw) -> Generators:
    a1 = draw(st.integers(1, 30))
    rest = draw(st.lists(st.integers(a1 + 1, 6 * a1 + 6), min_size=1, max_size=4))
    assume(math.gcd(a1, *rest) == 1)
    return Generators([a1, *rest])


@given(_small_generator_sets(), st.integers(1, 19), st.sets(st.integers(0, 12)))
@example(Generators([1, 5]), 3, {0, 12})  # no gaps
@example(Generators([2, 3]), 1, {12})
@example(Generators([13, 16, 19, 22, 25]), 8, set(range(13)))
def test_windowed_read_out_matches_the_bits(gens, window, mus):
    # windows of 1 to 19 integers put window edges among the gaps, also for
    # the power sums, which read whole bytes (8 integers a window for sets
    # this small), and the packed lanes of mu up to 12 are at their narrowest
    gs = oracle.gap_set(gens)
    clear = [n for n in range(gs.bound + 1) if not gs.members[n >> 3] >> (n & 7) & 1]
    lam = as_element(Fraction(-1, 2))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_WINDOW", window)
        ascending = list(chain.from_iterable(gs.windows()))
        descending = list(chain.from_iterable(gs.windows(descending=True)))
        sums = oracle.power_sums(gs, (3, 0, 1, 3))
        single = {mu: oracle.power_sum(gs, mu) for mu in (0, 1, 3)}
        drawn = oracle.power_sums(gs, mus)
        weighted = oracle.weighted_sum(gs, 2, lam)
        minima = oracle._minima(gs.members, gs.bound, gs.modulus)
        assert (gs.frobenius, gs.genus) == (max(clear, default=-1), len(clear))
    assert minima == apery_general(gens).m
    assert ascending == clear == list(gs.gaps)
    assert descending == clear[::-1]
    holes = set(clear)
    assert all(gs.is_representable(n) == (0 <= n and n not in holes)
               for n in range(-2, gs.bound + 3))
    assert sums == single == {mu: sum(n ** mu for n in clear) for mu in (0, 1, 3)}
    assert list(sums) == [0, 1, 3]
    assert drawn == {mu: sum(n ** mu for n in clear) for mu in sorted(mus)}
    assert list(drawn) == sorted(mus)
    assert weighted == _reference_weighted_sums(gs, (2,), lam)[2]


@given(_small_generator_sets(), st.sets(st.integers(0, 12)))
@example(Generators([3, 8]), {0, 2})  # bound + 1 = 17: 7 bits of padding, 3 in a digit
@example(Generators([4, 11]), {1, 3})  # 34
@example(Generators([3, 5]), {0, 1, 2})  # 11
@example(Generators([4, 9]), {5})  # 28
@example(Generators([5, 7]), {0, 4})  # 29
@example(Generators([4, 7]), {2})  # 22
@example(Generators([3, 7]), {0, 12})  # 15
@example(Generators([1, 5]), {0, 1, 12})  # no gaps
@example(Generators([2, 3]), {0, 1, 12})  # one gap
@example(Generators([13, 16, 19, 22, 25]), set(range(13)))
@example(Generators([100, 101]), set(range(13)))  # 1011..1099 are gaps: an edge at 1024
def test_nibble_power_sums_match_the_gaps(gens, mus):
    # four integers per hex digit, with the bits past the bound, padded to
    # whole windows, read as members
    gs = oracle.gap_set(gens)
    want = {mu: sum(n ** mu for n in gs.gaps) for mu in sorted(mus)}
    got = oracle.power_sums(gs, mus)
    assert got == want and list(got) == list(want)


def test_power_sums_read_no_gap_list(monkeypatch):
    # the sums come from the bits, read as hex digits, and never from the
    # gaps read out as integers
    gens = Generators([100, 101])
    want = {mu: sum(n ** mu for n in oracle.gap_set(gens).gaps) for mu in (0, 1, 2, 5)}
    gs = oracle.gap_set(gens)

    def refuse(*args):
        raise AssertionError("the power sums read the gaps out")

    monkeypatch.setattr(oracle, "_gap_flags", refuse)
    assert oracle.power_sums(gs, (0, 1, 2, 5)) == want
    assert "gaps" not in vars(gs)


def test_a_wrong_packed_lane_0_is_an_internal_fault(monkeypatch):
    # one more in lane 0 of every packed entry counts each gap twice, so the
    # gap count read from lane 0 misses the genus read from the bits
    gs = oracle.gap_set(Generators([13, 16, 19, 22, 25]))
    assert oracle.power_sums(gs, (2,)) == {2: 33150}
    honest = oracle._packed_powers

    def miscounted(width, top):
        packed, offsets, masks = honest(width, top)
        return [p + 1 for p in packed], offsets, masks

    # the honest rows of the call above are kept; a fresh cache, dropped with
    # the patch, makes the pass read rows built by the miscounted powers
    monkeypatch.setattr(oracle, "_packed_powers", miscounted)
    monkeypatch.setattr(oracle, "_window_rows", functools.lru_cache(oracle._build_rows))
    with pytest.raises(ArithmeticError, match="internal fault"):
        oracle.power_sums(gs, (2,))
    monkeypatch.undo()
    assert oracle.power_sums(gs, (2,)) == {2: 33150}


def test_rows_are_built_once_per_window_shape(monkeypatch):
    built = []
    honest = oracle._packed_powers

    def counted(width, top):
        built.append((width, top))
        return honest(width, top)

    monkeypatch.setattr(oracle, "_packed_powers", counted)
    oracle._window_rows.cache_clear()
    big, small = oracle.gap_set(Generators([449, 450])), oracle.gap_set(Generators([100, 101]))
    want = {mu: sum(n ** mu for n in big.gaps) for mu in range(6)}
    for _ in range(3):
        assert oracle.power_sums(big, range(6)) == want
        assert oracle.power_sums(big, (2, 5)) == {2: want[2], 5: want[5]}
    assert built == [(1024, 5)]
    oracle.power_sums(small, (3,))
    oracle.power_sums(big, (3,))
    oracle.power_sums(small, (3,))
    assert built == [(1024, 5), (1024, 3)]  # (100, 101) fills whole 1024 windows too
    # past _KEPT_TOP the rows are built on every call and not kept
    oracle.power_sums(small, (oracle._KEPT_TOP + 1,))
    oracle.power_sums(small, (oracle._KEPT_TOP + 1,))
    assert built[2:] == [built[2]] * 2 and built[2][1] == oracle._KEPT_TOP + 1
    assert oracle._window_rows.cache_info().currsize == 2


def test_kept_rows_are_immutable():
    oracle._window_rows.cache_clear()
    oracle.power_sums(oracle.gap_set(Generators([13, 16, 19, 22, 25])), (0, 4))
    oracle.power_sums(oracle.gap_set(Generators([449, 450])), (2,))
    # bound 75 fills one window of 10 bytes; bound 201,600 windows of 1024 bits
    entries = [oracle._window_rows(span, top) for span, top in ((80, 4), (1024, 2))]
    assert oracle._window_rows.cache_info().hits == 2  # the two shapes above
    for rows, near, narrow in entries:
        assert type(rows) is tuple and all(type(row) is tuple for row in rows)
        assert type(near) is tuple and type(narrow) is tuple
        assert len(rows) * 4 in (80, 1024) and {len(row) for row in rows} == {16}


def test_kept_rows_stay_under_their_bound():
    # mu from 0 to 20 on sets from 4 to 10,000 integers, so spans from 8 to
    # 1024 and tops past _KEPT_TOP: whatever the shapes, the cache keeps at
    # most _ROWS_KEPT entries of at most 331 KB each (1024, top 8)
    sets = ([2, 3], [5, 7], [13, 16, 19, 22, 25], [61, 62], [100, 101])
    oracle._window_rows.cache_clear()
    tracemalloc.start()
    try:
        for values in sets:
            gs = oracle.gap_set(Generators(values))
            for mu in range(21):
                oracle.power_sums(gs, (mu,))
            del gs
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle._window_rows.cache_info().currsize == oracle._ROWS_KEPT
    assert kept < 1.4 * 2 ** 20
    # the largest kept entry
    oracle._window_rows.cache_clear()
    tracemalloc.start()
    try:
        oracle._window_rows(1024, oracle._KEPT_TOP)
        largest, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert oracle._ROWS_KEPT * largest < 1.4 * 2 ** 20


def test_rational_modulus_costs_no_gcd_per_gap(monkeypatch):
    # theta^2 = -1/2: the pass runs over theta' = 2 theta, whose modulus
    # x^2 + 2 is integral, so no gap reduces a fraction; the result maps
    # back with one reduction
    calls = []

    def counted_gcd(*args):
        calls.append(len(args))
        return math.gcd(*args)

    spec = "elem(minpoly=[1/2,0,1];coeffs=[1/3,2])"
    lam = LambdaSpec.parse(spec).element()
    gens = Generators([201, 223, 247])
    gs = oracle.gap_set(gens)
    monkeypatch.setattr("gapsums.numberfield.gcd", counted_gcd)
    value = oracle.weighted_sum(gs, 1, lam)
    assert len(gs.gaps) > 2000 and len(calls) <= 4
    monkeypatch.undo()
    # the same sum over the original ring, reducing at every gap
    want, power = lam.ring.zero, lam.ring.one
    last = 0
    for n in gs.gaps:
        power = power * lam ** (n - last)
        want, last = want + n * power, n
    assert value == want
