"""Unit tests for the arithmetic-progression closed forms."""
from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from corpora import power_is_one, random_progressions, reference_weights
from gapsums import (
    ArithProgression,
    LambdaSpec,
    apery_arith,
    as_element,
    frobenius,
    frobenius_ap,
    genus_ap,
    power_sum,
    power_sum_ap,
    weighted_moment,
    weighted_moment_ap,
    weighted_moment_unity_d,
    weighted_sum,
    weighted_sum_ap,
    weighted_sums_ap,
)
from gapsums import apery_general, oracle, summarize, weighted_sums
from gapsums.paths import ClosedFormPath

AP_13 = ArithProgression(13, 3, 5)
AP_14 = ArithProgression(14, 3, 6)
AP_12 = ArithProgression(12, 5, 7)


def test_frobenius_closed_form():
    assert frobenius_ap(ArithProgression(25, 4, 9)) == 146
    assert frobenius_ap(AP_13) == 62
    assert frobenius_ap(ArithProgression(2, 1, 2)) == 1


def test_genus_closed_form():
    assert genus_ap(AP_13) == 36
    assert genus_ap(AP_14) == 37
    assert genus_ap(ArithProgression(2, 1, 2)) == 1


def test_power_sum_closed_form_reference_values():
    assert power_sum_ap(AP_13, 4) == 71099730
    assert power_sum_ap(ArithProgression(25, 4, 10), 6) == 57956823758511
    assert power_sum_ap(ArithProgression(25, 4, 12), 6) == 36249074667429


def test_power_sum_closed_form_pair_reduction():
    # with k = 2 and mu = 1 the triple sum collapses to the classical
    # (1/12)(a-1)(b-1)(2ab-a-b-1) for the pair (a, b = a + d)
    for a, b in [(2, 3), (5, 7), (9, 20), (11, 13), (20, 33)]:
        value = Fraction((a - 1) * (b - 1) * (2 * a * b - a - b - 1), 12)
        assert power_sum_ap(ArithProgression(a, b - a, 2), 1) == value


def test_power_sum_mu0_is_genus():
    for ap in random_progressions(25, seed=44):
        assert power_sum_ap(ap, 0) == genus_ap(ap)


def test_closed_forms_match_table_and_oracle_randomized():
    for ap in random_progressions(100, seed=606, max_a=60, max_d=9, max_k=8):
        table = apery_arith(ap)
        gs = oracle.gap_set(ap.generators())
        assert frobenius_ap(ap) == frobenius(table) == (max(gs.gaps) if gs.gaps else -1)
        for mu in range(6):
            value = power_sum_ap(ap, mu)
            assert value == power_sum(table, mu)
            assert value == oracle.power_sum(gs, mu)


# --- closed-form moments ----------------------------------------------------


def test_table_polynomial_structure():
    for ap in (AP_13, AP_14, AP_12, ArithProgression(2, 1, 2)):
        exponents = [0, *(base + j * ap.d for base, js in ap.rows() for j in js)]
        assert all(x < y for x, y in zip(exponents, exponents[1:]))  # strictly ascending
        assert exponents == sorted(apery_arith(ap).m)  # one entry per residue


def test_moment_without_table_matches_direct_sum():
    table = apery_arith(AP_14)
    lam = as_element(7)
    expected = sum(m * 7 ** m for m in table.m)
    assert weighted_moment_ap(AP_14, 1, lam) == expected


def test_moment_without_table_matches_table_moment():
    z5 = LambdaSpec.zeta(5).element()
    lam = z5 ** 3
    table = apery_arith(AP_12)
    for nu in range(4):
        assert weighted_moment_ap(AP_12, nu, lam) == weighted_moment(table, nu, lam)


def _row_cases(count: int, seed: int) -> list[ArithProgression]:
    """Random progressions, in turn with k = 2, k = a, r = 0 and r > 0."""
    rng = random.Random(seed)
    out: list[ArithProgression] = []
    while len(out) < count:
        a, d = rng.randint(2, 40), rng.choice([1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 30])
        kind = len(out) % 4
        ks = [2] if kind == 0 else [a] if kind == 1 else [
            k for k in range(3, a) if ((a - 1) % (k - 1) == 0) == (kind == 2)
        ]
        if gcd(a, d) == 1 and ks:
            out.append(ArithProgression(a, d, rng.choice(ks)))
    return out


def test_rows_unity_d_moments_and_sums_randomized():
    weights = [LambdaSpec.parse(w).element() for w in ("-1", "zeta(3)", "zeta(4)", "zeta(5)", "zeta(6)")]
    unity_d = 0
    for ap in _row_cases(48, seed=1010):
        rows = list(ap.rows())
        assert [base for base, _ in rows] == [s * ap.a for s in range(1, ap.q + 1 + (ap.r > 0))]
        assert all(len(js) == ap.k - 1 for _, js in rows[:ap.q])
        entries = [base + j * ap.d for base, js in rows for j in js]
        table = apery_general(ap.generators())  # the other table builder
        assert entries == sorted(table.m[1:])
        gs = oracle.gap_set(ap.generators())
        for lam in weights:
            if power_is_one(lam, ap.d) and not power_is_one(lam, ap.a):
                unity_d += 1
                for nu in range(5):
                    assert weighted_moment_unity_d(ap, nu, lam) == weighted_moment(table, nu, lam)
            values, _ = weighted_sums_ap(ap, (1, 2, 3), lam)
            assert values == {mu: oracle.weighted_sum(gs, mu, lam) for mu in (1, 2, 3)}
    assert unity_d >= 40, unity_d


def test_moment_unity_d():
    z5 = LambdaSpec.zeta(5).element()
    table = apery_arith(AP_12)  # d = 5, so z5^d = 1
    for nu in range(4):
        termwise = sum((m ** nu * z5 ** m for m in table.m), z5.ring.zero)
        assert weighted_moment_unity_d(AP_12, nu, z5) == termwise
    with pytest.raises(ValueError):
        weighted_moment_unity_d(AP_14, 1, z5)  # z5^3 != 1: wrong branch


# --- weighted closed forms --------------------------------------------------


def test_weighted_closed_form_reference_values():
    w = LambdaSpec.custom((1, 0, 1), (4, 3)).element()
    value, branch = weighted_sum_ap(AP_14, 5, w)
    assert branch == "general"
    assert value.coeffs == (
        Fraction(58604955584641578954030966530484875253297329000101560480),
        Fraction(-69984733631939902694215153740002368436325991046609895240),
    )

    z5 = LambdaSpec.zeta(5).element()
    value, branch = weighted_sum_ap(AP_12, 1, z5)
    assert branch == "unity-d"
    gs = oracle.gap_set(AP_12.generators())
    assert value == oracle.weighted_sum(gs, 1, z5)

    value, branch = weighted_sum_ap(AP_14, 2, as_element(-1))
    assert branch == "unity-a"
    assert value == -6380


def _branch(ap, lam) -> str:
    return weighted_sums_ap(ap, (1,), lam).branch


def test_weight_branch_classification():
    assert _branch(AP_14, as_element(-1)) == "unity-a"
    assert _branch(AP_13, as_element(-1)) == "general"  # 13 odd, 3 odd
    assert _branch(ArithProgression(13, 2, 5), as_element(-1)) == "unity-d"
    z5 = LambdaSpec.zeta(5).element()
    assert _branch(AP_12, z5) == "unity-d"
    assert _branch(ArithProgression(15, 2, 4), z5) == "unity-a"
    assert _branch(AP_14, as_element(7)) == "general"


@pytest.mark.parametrize("lam", [0, 1])
def test_weight_branch_refuses_weights_0_and_1(lam):
    # require_weight raises it, not an assert, so python -O keeps the check
    with pytest.raises(ValueError, match=f"weight {lam} is not allowed"):
        weighted_sums_ap(AP_14, (1,), lam)


def test_weighted_closed_form_rejects_degenerate_weights():
    with pytest.raises(ValueError):
        weighted_sum_ap(AP_14, 2, as_element(1))
    with pytest.raises(ValueError):
        weighted_sum_ap(AP_14, 2, as_element(0))
    with pytest.raises(ValueError):
        weighted_sum_ap(AP_14, 0, as_element(7))


@pytest.mark.parametrize(
    "ap, weight, branch",
    [
        (AP_14, "root(3,2)", "general"),
        (ArithProgression(9, 4, 3), "-1/2", "general"),
        (AP_12, "zeta(5)", "unity-d"),
        (ArithProgression(15, 2, 4), "zeta(5)", "unity-a"),
        (AP_14, "-1", "unity-a"),
    ],
)
def test_weighted_sums_ap_match_one_mu_at_a_time_and_the_table(ap, weight, branch):
    lam = LambdaSpec.parse(weight).element()
    values, got = weighted_sums_ap(ap, (3, 1, 4, 1), lam)
    assert got == branch and list(values) == [1, 3, 4]
    assert ClosedFormPath(ap).weighted_sums((3, 1, 4, 1), lam) == (values, f"ap-closed-form/{branch}")
    for mu, value in values.items():
        assert weighted_sum_ap(ap, mu, lam) == (value, branch)
    assert values == weighted_sums(apery_general(ap.generators()), (1, 3, 4), lam).values


@pytest.mark.parametrize(
    "ap, weight",
    [(ArithProgression(15, 2, 4), "zeta(5)"), (ArithProgression(16, 3, 6), "-1")],
)
def test_unity_a_sums_for_consecutive_mus(ap, weight):
    # one moment vector M(0..4) serves every mu; r = 2 and r = 0
    lam = LambdaSpec.parse(weight).element()
    values, branch = weighted_sums_ap(ap, (1, 2, 3), lam)
    assert branch == "unity-a" and list(values) == [1, 2, 3]
    for mu, value in values.items():
        assert weighted_sum_ap(ap, mu, lam) == (value, branch)
    assert values == weighted_sums(apery_general(ap.generators()), (1, 2, 3), lam).values


def test_weighted_closed_form_equivalence_smoke():
    weights = [spec.element() for spec in reference_weights()]
    for ap in random_progressions(6, seed=99, max_a=20, max_d=7, max_k=6):
        gens = ap.generators()
        gs = oracle.gap_set(gens)
        for lam in weights:
            value, branch = weighted_sum_ap(ap, 2, lam)
            engine_value, engine_branch = weighted_sum(gens, 2, lam)
            assert value == engine_value
            assert value == oracle.weighted_sum(gs, 2, lam)
            if branch == "unity-a":
                assert engine_branch == "unity-a"


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_general_weighted_memory_is_linear_in_a():
    # a = 4001 and d = 7 are odd, so -1 takes the general branch; the largest
    # table entry is about 1.6e7, which a dense polynomial would have to hold
    ap = ArithProgression(4001, 7, 2)
    lam = as_element(-1)
    (value, branch), closed_peak = _traced_peak_mb(lambda: weighted_sum_ap(ap, 1, lam))
    summary, table_peak = _traced_peak_mb(
        lambda: summarize(ap.generators(), weight=lam, weighted_mus=(1,), method="apery")
    )
    assert branch == "general"
    assert summary.methods["weighted_sum[1]"] == "general-apery/general"
    assert summary.weighted_sums[1] == value
    assert closed_peak < 8 and table_peak < 8, (closed_peak, table_peak)


# --- the fraction-free recombination, held to the oracle on every branch ------

RECOMBINATION_WEIGHTS = {
    spec: LambdaSpec.parse(spec).element()
    for spec in (
        "2",
        "-1",
        "-1/2",
        "2/3",
        "zeta(3)",
        "root(3,2)",
        "zeta(5)",
        "elem(minpoly=[1,0,1];coeffs=[4,3])",  # 4 + 3i
        "elem(minpoly=[1/2,0,1];coeffs=[1/3,2])",  # a modulus with a non-integral coefficient
        "root(5,1/32)",  # reducible modulus, every divisor still a unit
    )
}


@st.composite
def _weighted_progressions(draw):
    a = draw(st.integers(2, 40))
    d = draw(st.integers(1, 12).filter(lambda d: gcd(a, d) == 1))
    k = draw(st.integers(2, min(a, 6)))
    spec = draw(st.sampled_from(sorted(RECOMBINATION_WEIGHTS)))
    mus = draw(st.sets(st.integers(1, 3), min_size=1))
    return ArithProgression(a, d, k), spec, sorted(mus)


@given(_weighted_progressions())
@example((ArithProgression(10, 3, 4), "zeta(5)", [1, 2, 3]))  # unity-a
@example((ArithProgression(16, 3, 6), "-1", [1, 2, 3]))  # unity-a, r = 0, ring degree 1
@example((ArithProgression(12, 5, 4), "zeta(3)", [1, 2, 3]))  # unity-a, r = 2, ring degree 2
@example((ArithProgression(12, 5, 3), "zeta(5)", [1, 3]))  # unity-d
@example((ArithProgression(40, 7, 6), "-1/2", [3]))
@example((ArithProgression(25, 2, 2), "root(5,1/32)", [1, 2]))
def test_recombination_matches_the_oracle_on_every_branch(case):
    ap, spec, mus = case
    lam = RECOMBINATION_WEIGHTS[spec]
    unity_a, unity_d = power_is_one(lam, ap.a), power_is_one(lam, ap.d)
    table_values, table_branch = weighted_sums(apery_general(ap.generators()), mus, lam)
    closed_values, closed_branch = weighted_sums_ap(ap, mus, lam)
    assert table_branch == ("unity-a" if unity_a else "general")
    assert closed_branch == ("unity-a" if unity_a else "unity-d" if unity_d else "general")
    gs = oracle.gap_set(ap.generators())
    for mu in mus:
        want = oracle.weighted_sum(gs, mu, lam)
        assert table_values[mu] == want, (ap, spec, mu)
        assert closed_values[mu] == want, (ap, spec, mu)
