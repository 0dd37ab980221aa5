"""Unit tests for the sieve oracle."""
from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from corpora import random_generator_sets
from gapsums import Generators, apery_general, as_element, genus
from gapsums import oracle

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
        assert oracle.apery_minima(gens) == apery_general(gens).m


def test_oracle_sums():
    gs13 = oracle.gap_set(Generators([13, 16, 19, 22, 25]))
    assert oracle.power_sum(gs13, 2) == 33150
    gs14 = oracle.gap_set(Generators([14, 17, 20, 23, 26, 29]))
    assert oracle.weighted_sum(gs14, 3, as_element(-1)) == -375500
    gs23 = oracle.gap_set(Generators([2, 3]))
    assert oracle.weighted_sum(gs23, 9, as_element(Fraction(1, 2))) == Fraction(1, 2)


def test_oracle_rejects_bad_arguments():
    gs = oracle.gap_set(Generators([2, 3]))
    with pytest.raises(ValueError):
        oracle.power_sum(gs, -1)
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
