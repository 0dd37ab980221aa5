"""Unit tests for residue tables: construction, closed form, validation."""
from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, strategies as st

from corpora import random_generator_sets, random_progressions
from gapsums import (
    AperyTable,
    ArithProgression,
    Generators,
    apery_arith,
    apery_general,
    apery_polynomial,
    as_arith_progression,
    frobenius,
    genus,
)
from gapsums import apery, oracle

SET_13 = {16, 19, 22, 25, 41, 44, 47, 50, 66, 69, 72, 75}
SET_14 = {17, 20, 23, 26, 29, 46, 49, 52, 55, 58, 75, 78, 81}


def test_generators_normalization_and_validation():
    g = Generators([25, 13, 16, 19, 22, 16])
    assert g.values == (13, 16, 19, 22, 25)
    assert g.modulus == 13 and g.largest == 25
    with pytest.raises(ValueError):
        Generators([4, 6])  # gcd 2
    with pytest.raises(ValueError):
        Generators([5])  # single generator
    with pytest.raises(ValueError):
        Generators([0, 3])


def test_progression_validation():
    ap = ArithProgression(13, 3, 5)
    assert (ap.q, ap.r) == (3, 0)
    assert ArithProgression(14, 3, 6).r == 3
    with pytest.raises(ValueError):
        ArithProgression(6, 3, 2)  # gcd(a, d) = 3
    with pytest.raises(ValueError):
        ArithProgression(3, 1, 5)  # k > a
    with pytest.raises(ValueError):
        ArithProgression(5, 0, 3)
    with pytest.raises(ValueError):
        ArithProgression(1, 1, 2)  # k <= a forces a >= 2


def test_table_validation():
    with pytest.raises(ValueError, match="zero residue entry must be 0"):
        AperyTable.from_entries(2, (1, 3))
    with pytest.raises(ValueError, match="entry 4 does not represent residue 1"):
        AperyTable.from_entries(2, (0, 4))
    with pytest.raises(ValueError, match="table length must equal the modulus"):
        AperyTable.from_entries(3, (0, 4))
    with pytest.raises(ValueError, match="zero residue entry must be 0"):
        AperyTable(levels=(1, 0))
    with pytest.raises(TypeError):
        AperyTable(2, (0, 3))  # the fields are keyword-only: entries are not read as levels
    with pytest.raises(TypeError):
        AperyTable(levels=b"\x00\x01", depth=5)  # the depth is read from the levels
    # a negative level is refused by name, below one byte and past it
    for levels in ((0, -1, 3), (0, -1, 300)):
        with pytest.raises(ValueError, match="^level -1 is negative$"):
            AperyTable(levels=levels)
    # deep levels are stored as a tuple, whatever sequence they came in
    deep = AperyTable(levels=[0, 1, 300])
    assert deep.levels == (0, 1, 300) and deep.depth == 300
    assert deep == AperyTable(levels=(0, 1, 300)) and hash(deep) == hash(AperyTable(levels=(0, 1, 300)))


@pytest.mark.parametrize(
    "modulus, m, message",
    [
        (3, (0, -2, 2), "entry -2 does not represent residue 1"),  # negative, right residue
        (3, (0, 4, 4), "entry 4 does not represent residue 2"),
        (4, (0, 5, 7, 6), "entry 7 does not represent residue 2"),  # the first bad entry
    ],
)
def test_table_validation_names_the_first_bad_entry(modulus, m, message):
    with pytest.raises(ValueError) as info:
        AperyTable.from_entries(modulus, m)
    assert str(info.value) == message


def test_general_small_cases():
    assert apery_general(Generators([2, 3])).m == (0, 3)
    t = apery_general(Generators([13, 16, 19, 22, 25]))
    assert set(t.m[1:]) == SET_13
    assert max(t.m) - 13 == 62
    t = apery_general(Generators([14, 17, 20, 23, 26, 29]))
    assert set(t.m[1:]) == SET_14


def test_arith_matches_general_on_named_cases():
    for a, d, k in [(13, 3, 5), (14, 3, 6), (2, 1, 2), (12, 5, 7), (25, 4, 9)]:
        ap = ArithProgression(a, d, k)
        assert apery_arith(ap) == apery_general(ap.generators())


def test_arith_row_structure():
    ap = ArithProgression(14, 3, 6)
    t = apery_arith(ap)
    assert sum(1 for v in t.m if v) == ap.a - 1
    assert ap.q * (ap.k - 1) + ap.r == ap.a - 1


def test_arith_equals_general_randomized():
    for ap in random_progressions(100, seed=101, max_a=80):
        assert apery_arith(ap) == apery_general(ap.generators())


def test_representability_of_table_entries():
    for gens in random_generator_sets(200, seed=55, max_a1=60, max_k=6):
        t = apery_general(gens)
        gs = oracle.gap_set(gens)
        for i in range(1, t.modulus):
            assert gs.is_representable(t.m[i])
            assert not gs.is_representable(t.m[i] - t.modulus)
        assert frobenius(t) == (max(gs.gaps) if gs.gaps else -1)


def test_apery_polynomial():
    t = apery_general(Generators([2, 3]))
    assert apery_polynomial(t) == [1, 0, 0, 1]
    t = apery_general(Generators([13, 16, 19, 22, 25]))
    poly = apery_polynomial(t)
    assert sum(poly) == 13
    assert all(c in (0, 1) for c in poly)
    assert len(poly) - 1 == max(t.m) == 75


def test_progression_detection():
    ap = as_arith_progression(Generators([13, 16, 19, 22, 25]))
    assert ap == ArithProgression(13, 3, 5)
    assert as_arith_progression(Generators([14, 17, 21])) is None
    assert as_arith_progression(Generators([2, 3])) == ArithProgression(2, 1, 2)


def test_progression_detection_truncates_redundant_tail():
    # 3+3*1, 3+4*1 are reachable from shorter terms plus copies of 3
    gens = Generators([3, 4, 5, 6, 7])
    ap = as_arith_progression(gens)
    assert ap == ArithProgression(3, 1, 3)
    assert apery_arith(ap) == apery_general(gens)


# --- the level sieve and its hand-over to Dijkstra ---------------------------


def _sieve_cases() -> list[Generators]:
    """Random sets with a_1 = 2 forced now and then, generators that are
    multiples of a_1, generators up to 40 * a_1, and k up to 12."""
    rng = random.Random(2026)
    out = [Generators(v) for v in ([1, 4], [2, 3], [2, 4, 7], [3, 6, 7], [4, 8, 12, 13])]
    while len(out) < 300:
        a1 = 2 if rng.random() < 0.1 else rng.randint(3, 40)
        values = {a1}
        for _ in range(rng.randint(1, 11)):
            if rng.random() < 0.2:
                values.add(a1 * rng.randint(2, 5))
            elif rng.random() < 0.15:
                values.add(rng.randint(a1 + 1, 40 * a1))
            else:
                values.add(rng.randint(a1 + 1, 5 * a1))
        try:
            out.append(Generators(values))
        except ValueError:
            continue
    return out


def _steps(gens: Generators) -> list[int]:
    return [g for g in gens.values[1:] if g % gens.modulus]


@pytest.mark.parametrize("budget", [apery.LEVEL_BUDGET, 8])
def test_sieve_dijkstra_and_oracle_agree(monkeypatch, budget):
    monkeypatch.setattr(apery, "LEVEL_BUDGET", budget)
    sieved = past_budget = 0
    for gens in _sieve_cases():
        expected = oracle.gap_set(gens).minima
        reference = AperyTable.from_entries(gens.modulus, expected)
        assert apery._dijkstra(gens.modulus, _steps(gens)) == reference, gens
        table = apery._level_sieve(gens.modulus, _steps(gens))
        if table is not None:
            assert table.levels == reference.levels, gens
            sieved += 1
            past_budget += max(_steps(gens), default=0) >= (budget + 1) * gens.modulus
        assert apery_general(gens).m == expected, gens
    # one table here is more than 255 blocks deep; with 8 blocks about half
    # hand over, and the sieve finishes some sets without the generators
    # past 9 * a_1, which it leaves out
    if budget == 8:
        assert 100 < sieved < 300 and past_budget > 20
    else:
        assert sieved == 299


def test_every_builder_reads_the_depth_from_the_levels(monkeypatch):
    # with 8 blocks, apery_general hands the deeper tables to Dijkstra
    monkeypatch.setattr(apery, "LEVEL_BUDGET", 8)
    sieved = deep = 0
    for ap in random_progressions(60, seed=2121, max_a=50, max_k=12):
        gens = ap.generators()
        tables = [
            apery_general(gens),
            apery._dijkstra(gens.modulus, _steps(gens)),
            apery_arith(ap),
            AperyTable.from_entries(gens.modulus, oracle.gap_set(gens).minima),
        ]
        sieve = apery._level_sieve(gens.modulus, _steps(gens))
        if sieve is not None:
            tables.append(sieve)
            sieved += 1
        deep += tables[0].depth > 8
        for table in tables:
            assert table.depth == max(table.levels), ap
            assert table == tables[0] and hash(table) == hash(tables[0]), ap
    assert sieved > 10 and deep > 10, (sieved, deep)


def _assert_least_representatives(gens: Generators, m: tuple[int, ...]) -> None:
    """Shortest-path certificate, independent of how m was built: no arc
    i -> i + g shortens an entry, and every nonzero entry is reached by an
    arc that is tight, so m_i is both a lower bound and attained."""
    a = gens.modulus
    assert m[0] == 0 and all(mi % a == i for i, mi in enumerate(m))
    for i, mi in enumerate(m):
        assert all(m[(i + g) % a] <= mi + g for g in gens.values)
        if i:
            assert any(m[(mi - g) % a] == mi - g for g in gens.values if g <= mi)


@pytest.mark.parametrize("values", [(503, 504), (3011, 3012, 3014)])
def test_deep_tables_hand_over_to_dijkstra(values):
    # (503, 504) has 502 blocks: the multiples of 504 below 256 * 503 reach
    # fewer than 503 residues, so the sieve does not start; (3011, 3012,
    # 3014) has 1004 blocks and runs out of its budget
    gens = Generators(values)
    assert apery._level_sieve(gens.modulus, _steps(gens)) is None
    table = apery_general(gens)
    assert max(table.m) // gens.modulus > apery.LEVEL_BUDGET
    _assert_least_representatives(gens, table.m)
    if len(values) == 2:
        assert sorted(table.m) == [504 * j for j in range(503)]


def test_shallow_tables_never_reach_dijkstra(monkeypatch):
    def refuse(a1, steps):
        raise AssertionError("handed over a shallow table")

    monkeypatch.setattr(apery, "_dijkstra", refuse)
    sets = random_generator_sets(30, seed=404, max_a1=2000, max_k=40, max_value=4000)
    wide = [gens for gens in sets if len(gens) >= 20]
    assert len(wide) >= 10
    for gens in wide:
        _assert_least_representatives(gens, apery_general(gens).m)


def test_sieve_memory_follows_the_largest_generator():
    # 248 blocks deep: F is about 2.0 * 10^6, so one bit per integer up to F
    # would take 250 KB (the oracle's sieve takes one byte per integer); the
    # level sieve's working memory, its peak above the table it returns,
    # stays within eight bytes per integer of a_k (it keeps two blocks of
    # a_1 bits here)
    gens = Generators([8090, 8602, 9033])
    tracemalloc.start()
    try:
        table = apery._level_sieve(gens.modulus, _steps(gens))
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table is not None
    frob = frobenius(table)
    assert frob > 19 * 10**5
    assert peak - current < 8 * gens.largest < frob // 24


@pytest.mark.parametrize("values", [(7, 8, 10**8 + 1), (3011, 3012, 3014, 10**8 + 7)])
def test_far_generators_do_not_widen_the_sieve(values):
    # a generator at or past 256 * a_1 takes no part in a minimum the sieve
    # can find, so memory stays linear in a_1: a window as wide as a_k would
    # take 12.5 MB here.  (7, 8, ...) is sieved in 6 blocks; (3011, ...)
    # runs out of budget and Dijkstra, with every generator, finishes it.
    gens = Generators(values)
    tracemalloc.start()
    try:
        table = apery_general(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**14 + 256 * gens.modulus
    _assert_least_representatives(gens, table.m)
    assert table.m == apery_general(Generators(values[:-1])).m


# --- the residue property holds by construction ------------------------------


@st.composite
def _generator_sets(draw) -> Generators:
    a1 = draw(st.integers(2, 60))
    others = draw(st.lists(st.integers(a1 + 1, 40 * a1), min_size=1, max_size=6))
    assume(gcd(a1, *others) == 1)
    return Generators([a1, *others])


@st.composite
def _progressions(draw) -> ArithProgression:
    a = draw(st.integers(2, 300))
    d = draw(st.integers(1, 40).filter(lambda d: gcd(a, d) == 1))
    return ArithProgression(a, d, draw(st.integers(2, min(a, 12))))


def _assert_built_right(table: AperyTable) -> None:
    """The per-entry check, the readers and equality, against the entries."""
    a, m = table.modulus, table.m
    rebuilt = AperyTable.from_entries(a, m)  # runs the per-entry check
    assert rebuilt == table and hash(rebuilt) == hash(table)
    assert type(m) is tuple and all(type(mi) is int for mi in m)
    assert table.depth == max(table.levels) == max(m) // a
    assert frobenius(table) == max(m) - a
    reference = Fraction(sum(m), a) - Fraction(a - 1, 2)  # the genus formula
    assert reference.denominator == 1 and genus(table) == reference


@given(_generator_sets())
def test_general_tables_are_built_right(gens):
    _assert_built_right(apery_general(gens))


@given(_progressions())
def test_closed_form_tables_are_built_right(ap):
    table = apery_arith(ap)
    _assert_built_right(table)
    general = apery_general(ap.generators())
    assert table == general and hash(table) == hash(general)


@pytest.mark.parametrize(
    "values, depth, levels",
    [
        ((129, 130), 128, bytes),  # the sieve's eighth plane alone
        ((200, 201), 199, bytes),  # all eight planes
        ((45007, 61231, 70001, 88889), 152, bytes),
        ((503, 504), 502, tuple),  # Dijkstra: the sieve does not start
        ((3011, 3012, 3014), 1004, tuple),  # Dijkstra: the sieve runs out of budget
    ],
)
def test_deep_tables_are_built_right(values, depth, levels):
    table = apery_general(Generators(values))
    assert table.depth == depth and type(table.levels) is levels
    _assert_built_right(table)


@pytest.mark.parametrize("a, d, k", [(300, 7, 2), (1000, 3, 3), (600, 11, 2)])
def test_long_progressions_are_built_right(a, d, k):
    ap = ArithProgression(a, d, k)
    assert ap.q > 255
    table = apery_arith(ap)
    assert type(table.levels) is tuple
    _assert_built_right(table)
    assert table == apery_general(ap.generators())


def test_levels_below_256_are_bytes_from_every_builder():
    ap = ArithProgression(13, 3, 5)
    tables = [
        apery_arith(ap),
        apery_general(ap.generators()),  # the sieve
        apery._dijkstra(13, [16, 19, 22, 25]),
        AperyTable.from_entries(13, apery_arith(ap).m),
    ]
    assert all(type(t.levels) is bytes for t in tables)
    assert len(set(tables)) == 1


def test_a_residue_no_row_fills_is_refused(monkeypatch):
    rows = ArithProgression.rows

    def skipping(self):
        for base, js in rows(self):
            yield base, js[1:] if base == 2 * self.a else js  # drop the first entry of row 2

    monkeypatch.setattr(ArithProgression, "rows", skipping)
    ap = ArithProgression(13, 3, 5)  # row 2 starts at 2*13 + 5*3 = 41, residue 2
    with pytest.raises(ValueError, match="no row fills residue 2"):
        apery_arith(ap)
