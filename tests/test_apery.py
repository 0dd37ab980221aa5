"""Unit tests for residue tables: construction, closed form, validation."""
from __future__ import annotations

import pytest

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
)
from gapsums import oracle

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
    with pytest.raises(ValueError):
        AperyTable(2, (1, 3))  # zero entry must be 0
    with pytest.raises(ValueError):
        AperyTable(2, (0, 4))  # wrong residue
    with pytest.raises(ValueError):
        AperyTable(3, (0, 4))  # wrong length


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
