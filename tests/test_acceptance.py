"""Acceptance suite: one test per shipped guarantee.

Every test prints a `acceptance <name>: PASS (...)` line (visible under
`pytest -s`) and enforces its stated time budget where one applies.
"""
from __future__ import annotations

import math
import random
import time
from fractions import Fraction
from math import comb, factorial, gcd

import pytest

from corpora import random_generator_sets, random_progressions
from gapsums import (
    ArithProgression,
    Embedding,
    Generators,
    LambdaSpec,
    apery_arith,
    apery_general,
    as_element,
    bernoulli,
    eulerian,
    frobenius,
    frobenius_ap,
    genus,
    is_power_unity,
    numeric_eval,
    power_sum,
    power_sum_ap,
    weight_branch,
    weighted_moment,
    weighted_sum,
    weighted_sum_ap,
    weighted_sum_unity_a,
)
from gapsums import oracle


def _report(name: str, started: float, limit: float | None = None) -> None:
    elapsed = time.perf_counter() - started
    budget = f", budget {limit:g}s" if limit is not None else ""
    print(f"acceptance {name}: PASS ({elapsed:.3f}s{budget})")
    if limit is not None:
        assert elapsed < limit, f"{name} exceeded its {limit}s budget ({elapsed:.3f}s)"


POWER_SUMS_13 = {
    1: 894,
    2: 33150,
    3: 1463868,
    4: 71099730,
    5: 3663620844,
    6: 196356363450,
    7: 10815989768148,
}


def test_criterion_1_power_sums_both_routes():
    started = time.perf_counter()
    ap = ArithProgression(13, 3, 5)
    table = apery_general(ap.generators())
    for mu, expected in POWER_SUMS_13.items():
        assert power_sum_ap(ap, mu) == expected
        assert power_sum(table, mu) == expected
    _report("1 (power sums 13,16,19,22,25)", started, 1.0)


def test_criterion_2_25_sequences():
    started = time.perf_counter()
    expected_s6 = {9: 64005202245000, 10: 57956823758511, 11: 49053091726510, 12: 36249074667429}
    for k, value in expected_s6.items():
        ap = ArithProgression(25, 4, k)
        assert power_sum_ap(ap, 6) == value
        assert power_sum(apery_general(ap.generators()), 6) == value
        assert frobenius_ap(ap) == 146
        assert frobenius(apery_general(ap.generators())) == 146
    _report("2 (s_6 and g for the four 25-based sequences)", started, 1.0)


def test_criterion_3_weighted_values():
    started = time.perf_counter()
    ap = ArithProgression(14, 3, 6)
    gens = ap.generators()
    cases = [
        ("7", 3, (Fraction(126153136547718860397749189364814847897329040723302499959511892),)),
        ("-1/2", 4, (Fraction(-252455039549405466513, 147573952589676412928),)),
        ("root(3,2)", 2, (Fraction(21528522), Fraction(31320173525), Fraction(659369214))),
        (
            "elem(minpoly=[1,0,1];coeffs=[4,3])",
            5,
            (
                Fraction(58604955584641578954030966530484875253297329000101560480),
                Fraction(-69984733631939902694215153740002368436325991046609895240),
            ),
        ),
    ]
    for text, mu, coeffs in cases:
        lam = LambdaSpec.parse(text).element()
        closed, _ = weighted_sum_ap(ap, mu, lam)
        engine, _ = weighted_sum(gens, mu, lam)
        assert closed == engine
        assert closed.coeffs == coeffs
    _report("3 (weighted sums for 14,17,20,23,26,29)", started, 2.0)


def test_criterion_4_alternating_sums():
    started = time.perf_counter()
    ap = ArithProgression(14, 3, 6)
    gens = ap.generators()
    table = apery_general(gens)
    gs = oracle.gap_set(gens)
    minus1 = as_element(-1)
    expected = {1: -116, 2: -6380, 3: -375500, 4: -22771652, 5: -1406886596}
    for mu, value in expected.items():
        residue_route = weighted_sum_unity_a(table, mu, minus1)
        closed_route, branch = weighted_sum_ap(ap, mu, minus1)
        assert branch == "unity-a"
        assert residue_route == closed_route == value
        assert oracle.weighted_sum(gs, mu, minus1) == value
    _report("4 (alternating sums, both unity routes + oracle)", started, 1.0)


ZETA5_NUMERIC_REFERENCE = {
    1: (1322, -686, -45, 87),
    2: (49290, -39326, -6611, 10287),
    3: (1846526, -2218802, -652311, 756063),
    4: (65407506, -127134470, -46993307, 49955103),
    5: (1911457022, -7439898866, -3100720215, 3186196287),
}


def _zeta5_reference_value(mu: int) -> complex:
    c0, c5, ca, cb = ZETA5_NUMERIC_REFERENCE[mu]
    s5 = math.sqrt(5.0)
    ra = math.sqrt(2 * (5 + s5))  # sqrt(-2(5+sqrt5)) = i * ra
    rb = math.sqrt(10 * (5 + s5))  # sqrt(-10(5+sqrt5)) = i * rb
    return complex(c0 + c5 * s5, ca * ra + cb * rb) / 8


def _zeta5_exact_values() -> dict[int, object]:
    ap = ArithProgression(12, 5, 7)
    gens = ap.generators()
    gs = oracle.gap_set(gens)
    z5 = LambdaSpec.zeta(5).element()
    out = {}
    for mu in range(1, 6):
        closed, branch = weighted_sum_ap(ap, mu, z5)
        assert branch == "unity-d"
        engine, _ = weighted_sum(gens, mu, z5)
        assert closed == engine
        assert closed == oracle.weighted_sum(gs, mu, z5)
        out[mu] = closed
    return out


def test_criterion_5_zeta5_exact_and_numeric():
    started = time.perf_counter()
    values = _zeta5_exact_values()
    for mu in range(2, 6):
        got = numeric_eval(values[mu], Embedding.zeta(5))
        ref = _zeta5_reference_value(mu)
        assert abs(got - ref) / abs(ref) <= 1e-9, mu
    _report("5 (zeta_5 sums exact vs oracle; numeric mu=2..5)", started, 2.0)


@pytest.mark.xfail(
    strict=True,
    reason="the mu=1 numeric reference constant is inconsistent: the exact value "
    "(verified three independent ways, including direct enumeration) matches it only "
    "after flipping the sign of its third coefficient (-45 -> +45, agreement 1e-16). "
    "The check is kept as stated until the reference data is corrected.",
)
def test_criterion_5_zeta5_numeric_reference_mu1():
    values = _zeta5_exact_values()
    got = numeric_eval(values[1], Embedding.zeta(5))
    ref = _zeta5_reference_value(1)
    assert abs(got - ref) / abs(ref) <= 1e-9


def _progressions_with_branch_mix(count: int, seed: int) -> list[ArithProgression]:
    """APs engineered so every weight regime appears often enough."""
    rng = random.Random(seed)
    quotas = (
        [("odd_a_even_d", None)] * 10  # -1 lands in unity-d
        + [("even_a", None)] * 10  # -1 lands in unity-a
        + [("five_divides_a", None)] * 5  # zeta(5) lands in unity-a
        + [("five_divides_d", None)] * 5  # zeta(5) lands in unity-d
    )
    out: list[ArithProgression] = []
    for kind, _ in quotas[: max(count, len(quotas))]:
        while True:
            if kind == "odd_a_even_d":
                a = rng.randrange(3, 25, 2)
                d = rng.randrange(2, 11, 2)
            elif kind == "even_a":
                a = rng.randrange(4, 25, 2)
                d = rng.randrange(1, 10, 2)
            elif kind == "five_divides_a":
                a = rng.choice([10, 15, 20])
                d = rng.randint(1, 9)
            else:
                a = rng.randint(6, 24)
                d = rng.choice([5, 10])
            if gcd(a, d) != 1 or (kind == "five_divides_d" and a % 5 == 0):
                continue
            k = rng.randint(2, min(a, 8))
            out.append(ArithProgression(a, d, k))
            break
    return out


def test_criterion_6_property_suite():
    started = time.perf_counter()
    rng = random.Random(20240813)

    # general generators: table formula vs oracle
    for gens in random_generator_sets(100, seed=1601, max_a1=40, max_k=5):
        table = apery_general(gens)
        gs = oracle.gap_set(gens)
        for mu in range(6):
            assert power_sum(table, mu) == oracle.power_sum(gs, mu)

    # arithmetic progressions: closed form vs table vs oracle
    for ap in random_progressions(100, seed=1602, max_a=60, max_d=9, max_k=8):
        table = apery_arith(ap)
        assert table == apery_general(ap.generators())
        gs = oracle.gap_set(ap.generators())
        for mu in range(6):
            assert power_sum_ap(ap, mu) == power_sum(table, mu) == oracle.power_sum(gs, mu)

    # weighted closed forms: dispatch correctness and oracle agreement
    weights = [
        LambdaSpec.rational(2),
        LambdaSpec.rational(Fraction(-1, 2)),
        LambdaSpec.rational(-1),
        LambdaSpec.root(3, 2),
        LambdaSpec.zeta(5),
        LambdaSpec.custom((1, 0, 1), (4, 3)),
    ]
    branch_counts = {"general": 0, "unity-d": 0, "unity-a": 0}
    progressions = _progressions_with_branch_mix(30, seed=1603)
    assert len(progressions) >= 30
    for ap in progressions:
        gens = ap.generators()
        gs = oracle.gap_set(gens)
        for spec in weights:
            lam = spec.element()
            expected_branch = (
                "unity-a"
                if is_power_unity(lam, ap.a)
                else "unity-d"
                if is_power_unity(lam, ap.d)
                else "general"
            )
            mu = rng.randint(1, 3)
            value, branch = weighted_sum_ap(ap, mu, lam)
            assert branch == expected_branch == weight_branch(ap, lam)
            assert value == oracle.weighted_sum(gs, mu, lam)
            engine_value, _ = weighted_sum(gens, mu, lam)
            assert value == engine_value
            branch_counts[branch] += 1
    assert all(branch_counts[b] >= 10 for b in branch_counts), branch_counts
    _report(
        f"6 (property suite; weight branches {branch_counts})",
        started,
        60.0,
    )


def test_criterion_7_two_generator_closed_forms():
    started = time.perf_counter()
    for a in range(2, 41):
        for b in range(a + 1, 41):
            if gcd(a, b) != 1:
                continue
            table = apery_general(Generators([a, b]))
            assert frobenius(table) == (a - 1) * (b - 1) - 1
            assert 2 * genus(table) == (a - 1) * (b - 1)
            s1 = Fraction((a - 1) * (b - 1) * (2 * a * b - a - b - 1), 12)
            assert s1.denominator == 1 and power_sum(table, 1) == s1
    _report("7 (two-generator closed forms, b <= 40)", started)


def test_criterion_8_internal_identities():
    started = time.perf_counter()
    for n in range(1, 41):
        assert sum(comb(n + 1, k) * bernoulli(k) for k in range(n + 1)) == 0
    for n in range(9):
        for ell in range(1, 51):
            direct = sum(j ** n for j in range(1, ell + 1))
            closed = sum(
                Fraction(comb(n + 1, k)) * (-1) ** k * bernoulli(k) * ell ** (n + 1 - k)
                for k in range(n + 1)
            ) / (n + 1)
            assert direct == closed
    for n in range(1, 11):
        assert sum(eulerian(n, m) for m in range(n)) == factorial(n)
    # the dual-route moment check self-asserts inside weighted_moment
    tables = [
        apery_general(Generators([13, 16, 19, 22, 25])),
        apery_general(Generators([14, 17, 20, 23, 26, 29])),
        apery_general(Generators([2, 3])),
    ]
    lams = [as_element(2), as_element(Fraction(-1, 2)), LambdaSpec.root(3, 2).element()]
    for table in tables:
        for lam in lams:
            for nu in range(5):
                weighted_moment(table, nu, lam)
    _report("8 (internal identity checks)", started)
