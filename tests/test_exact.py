"""Unit tests for the exact combinatorial number families."""
from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, strategies as st

from gapsums import bernoulli, binomial, eulerian, stirling2
from gapsums import polys


def test_bernoulli_small_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(10) == Fraction(5, 66)
    assert bernoulli(7) == 0


def test_bernoulli_odd_vanish():
    for n in range(3, 41, 2):
        assert bernoulli(n) == 0


def test_bernoulli_negative_rejected():
    with pytest.raises(ValueError):
        bernoulli(-1)


def test_bernoulli_recurrence():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
    for n in range(1, 41):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0


def test_faulhaber_identity():
    for n in range(9):
        for ell in range(1, 51):
            lhs = sum(j ** n for j in range(1, ell + 1))
            rhs = Fraction(
                sum(
                    comb(n + 1, k) * (-1) ** k * bernoulli(k) * ell ** (n + 1 - k)
                    for k in range(n + 1)
                ),
                1,
            ) / (n + 1)
            assert lhs == rhs


def _set_partitions(items: list):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [head]] + part[i + 1 :]
        yield part + [[head]]


def test_stirling2_against_partition_enumeration():
    assert stirling2(0, 0) == 1
    assert stirling2(5, 5) == 1
    by_enumeration = sum(1 for p in _set_partitions(list(range(4))) if len(p) == 2)
    assert by_enumeration == 7
    assert stirling2(4, 2) == by_enumeration
    for n in range(7):
        for m in range(n + 1):
            count = sum(1 for p in _set_partitions(list(range(n))) if len(p) == m)
            assert stirling2(n, m) == count


def test_stirling2_recurrence():
    for n in range(1, 31):
        for m in range(1, 31):
            assert stirling2(n, m) == m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)


def test_stirling2_out_of_range():
    assert stirling2(3, 5) == 0
    with pytest.raises(ValueError):
        stirling2(-1, 0)


def _descents(perm: tuple) -> int:
    return sum(1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def test_eulerian_against_descent_enumeration():
    assert eulerian(0, 0) == 1
    by_enumeration = sum(1 for p in permutations(range(3)) if _descents(p) == 1)
    assert by_enumeration == 4
    assert eulerian(3, 1) == by_enumeration
    for n in range(1, 7):
        for m in range(n):
            count = sum(1 for p in permutations(range(n)) if _descents(p) == m)
            assert eulerian(n, m) == count


def test_eulerian_row_sums_are_factorials():
    for n in range(1, 11):
        assert sum(eulerian(n, m) for m in range(n)) == factorial(n)


def test_eulerian_out_of_range():
    assert eulerian(3, 3) == 0
    assert eulerian(3, -1) == 0
    assert eulerian(0, 1) == 0


def test_eulerian_row_symmetry():
    # <n, m> = <n, n-1-m>: the reason one Eulerian weight serves both the
    # general and the unity-weight tails
    for n in range(1, 12):
        for m in range(n):
            assert eulerian(n, m) == eulerian(n, n - 1 - m)


def test_eulerian_generating_numerator():
    # (1 - x)^{n+1} * sum_{k} k^n x^k has numerator sum_m <n, m> x^{m+1}:
    # checked as an exact polynomial identity on a truncation, far from the edge.
    horizon = 40
    for n in range(1, 7):
        series = [k ** n for k in range(horizon + 1)]
        factor = [1]
        for _ in range(n + 1):
            factor = polys.mul(factor, [1, -1])
        product = polys.mul(series, factor)
        expected = [0] * (n + 1)
        for m in range(n):
            expected[m + 1] = eulerian(n, m)
        for p in range(horizon - n):
            want = expected[p] if p < len(expected) else 0
            assert product[p] == want


def test_binomial_conventions():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(4, 7) == 0
    assert binomial(3, -1) == 0
    assert binomial(-2, 0) == 0


@given(st.integers(0, 60), st.integers(0, 60))
def test_binomial_pascal_rule(n, k):
    assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


@given(st.integers(1, 24), st.integers(1, 24))
def test_stirling2_recurrence_property(n, m):
    assert stirling2(n, m) == m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)
