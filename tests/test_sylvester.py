"""Unit tests for the general-generator engines (table-driven sums)."""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from corpora import random_generator_sets, reference_weights
from gapsums import (
    Generators,
    LambdaSpec,
    apery_general,
    as_element,
    frobenius,
    genus,
    power_sum,
    weighted_moment,
    weighted_sum,
    weighted_sum_general,
    weighted_sum_unity_a,
)
from gapsums import apery_polynomial, oracle, stirling2, summarize, sylvester
from gapsums.numberfield import RingElement
from gapsums.sylvester import moment_from_polynomial, weighted_moments, weighted_sums

GENS_13 = Generators([13, 16, 19, 22, 25])
GENS_14 = Generators([14, 17, 20, 23, 26, 29])

POWER_SUMS_13 = {
    1: 894,
    2: 33150,
    3: 1463868,
    4: 71099730,
    5: 3663620844,
    6: 196356363450,
    7: 10815989768148,
}


def test_frobenius_examples():
    assert frobenius(apery_general(Generators([2, 3]))) == 1
    assert frobenius(apery_general(Generators(range(25, 58, 4)))) == 146
    assert frobenius(apery_general(GENS_13)) == 62


def test_genus_examples():
    assert genus(apery_general(Generators([2, 3]))) == 1
    assert genus(apery_general(GENS_13)) == 36
    assert genus(apery_general(GENS_14)) == 37


def test_power_sum_reference_values():
    table = apery_general(GENS_13)
    for mu, expected in POWER_SUMS_13.items():
        assert power_sum(table, mu) == expected


def test_power_sum_trivial_semigroup():
    table = apery_general(Generators([2, 3]))
    for mu in range(10):
        assert power_sum(table, mu) == 1  # the only gap is 1


def test_power_sum_mu0_is_genus():
    for gens in random_generator_sets(25, seed=5):
        table = apery_general(gens)
        assert power_sum(table, 0) == genus(table)


def test_two_generator_closed_forms():
    # classical closed forms for coprime pairs (a, b):
    # g = (a-1)(b-1) - 1, n = (a-1)(b-1)/2, s_1 = (1/12)(a-1)(b-1)(2ab-a-b-1)
    for a in range(2, 41):
        for b in range(a + 1, 41):
            if gcd(a, b) != 1:
                continue
            table = apery_general(Generators([a, b]))
            assert frobenius(table) == (a - 1) * (b - 1) - 1
            assert genus(table) == (a - 1) * (b - 1) // 2
            s1 = Fraction((a - 1) * (b - 1) * (2 * a * b - a - b - 1), 12)
            assert s1.denominator == 1
            assert power_sum(table, 1) == s1


def test_pair_5_7_sum_by_enumeration():
    gs = oracle.gap_set(Generators([5, 7]))
    assert oracle.power_sum(gs, 1) == 114
    assert power_sum(apery_general(Generators([5, 7])), 1) == 114


def test_power_sum_matches_oracle_randomized():
    for gens in random_generator_sets(100, seed=2024, max_a1=40, max_k=5):
        table = apery_general(gens)
        gs = oracle.gap_set(gens)
        for mu in range(6):
            assert power_sum(table, mu) == oracle.power_sum(gs, mu)


# --- weighted moments -------------------------------------------------------


def test_weighted_moment_small():
    table = apery_general(Generators([2, 3]))
    lam = as_element(5)
    assert weighted_moment(table, 0, lam) == 1 + 5 ** 3
    theta = LambdaSpec.root(3, 2).element()
    assert weighted_moment(table, 0, theta) == 1 + theta ** 3
    assert weighted_moment(table, 1, lam) == 3 * 5 ** 3


def test_weighted_moment_unit_weight_specialization():
    # internal-only specialization: at weight 1 the moment is the plain sum
    table = apery_general(GENS_13)
    lam = as_element(Fraction(1))
    assert weighted_moment(table, 1, lam) == sum(table.m)


def test_weighted_moment_alternating():
    table = apery_general(GENS_14)
    expected = sum((-1) ** m * m ** 2 for m in table.m)
    assert weighted_moment(table, 2, as_element(-1)) == expected


def test_moment_kernel_matches_dense_derivative_route():
    weights = [as_element(2), as_element(Fraction(-1, 2)), LambdaSpec.root(3, 2).element(),
               LambdaSpec.zeta(5).element()]
    for gens in (GENS_13, GENS_14, Generators([2, 3]), Generators([7, 10, 13, 19])):
        table = apery_general(gens)
        for lam in weights:
            moments = weighted_moments(sorted(table.m), 4, lam)
            for nu in range(5):
                assert moments[nu] == moment_from_polynomial(apery_polynomial(table), nu, lam)
                assert moments[nu] == weighted_moment(table, nu, lam)


def test_moment_kernel_makes_no_product_with_one(monkeypatch):
    products = []
    honest = RingElement.__mul__

    def counted(x, y):
        if isinstance(y, RingElement):
            products.append((x, y))
        return honest(x, y)

    monkeypatch.setattr(RingElement, "__mul__", counted)
    for lam in (as_element(2), LambdaSpec.root(3, 2).element(), as_element(Fraction(-1, 2))):
        for gens in (GENS_13, GENS_14, Generators([7, 10, 13, 19])):
            table = apery_general(gens)
            products.clear()
            weighted_moments(sorted(table.m), 3, lam)
            assert products and all(x != 1 and y != 1 for x, y in products)


@pytest.mark.parametrize("chunk", [3, 2048])
def test_power_sum_matches_oracle_up_to_mu_12(monkeypatch, chunk):
    # a chunk of 3 table entries puts chunk boundaries inside every table
    monkeypatch.setattr(sylvester, "_POWER_CHUNK", chunk)
    for gens in (GENS_13, GENS_14, Generators([7, 10, 13, 19]), Generators([2, 3])):
        table = apery_general(gens)
        gs = oracle.gap_set(gens)
        assert [power_sum(table, mu) for mu in range(13)] == [
            oracle.power_sum(gs, mu) for mu in range(13)
        ]


def test_moment_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        weighted_moments([0, 5, 3], 1, as_element(2))  # not ascending
    with pytest.raises(ValueError):
        weighted_moments([0, 3, 3], 1, as_element(2))  # repeated
    with pytest.raises(ValueError):
        weighted_moments([0, 3], -1, as_element(2))
    with pytest.raises(ValueError):
        weighted_moments([0, 3], 1, as_element(0))


def test_moment_route_check_fires(monkeypatch):
    # a wrong recombination weight corrupts the falling-factorial route only
    table = apery_general(GENS_14)
    monkeypatch.setattr(sylvester, "stirling2", lambda n, h: stirling2(n, h) + (n == 2 and h == 1))
    with pytest.raises(ArithmeticError, match="moment routes disagree"):
        weighted_moments(sorted(table.m), 2, as_element(3))
    with pytest.raises(ArithmeticError):
        weighted_sum(GENS_14, 2, as_element(3))


def test_unity_difference_form_check_fires(monkeypatch):
    table = apery_general(GENS_14)
    honest = sylvester._residue_differences

    def corrupted(table, top, lam):
        out = honest(table, top, lam)
        out[top] = out[top] + 1
        return out

    monkeypatch.setattr(sylvester, "_residue_differences", corrupted)
    with pytest.raises(ArithmeticError, match="unity-weight forms disagree"):
        weighted_sum_unity_a(table, 2, as_element(-1))


def test_weighted_sums_share_one_table_and_moment_vector(monkeypatch):
    calls = {"tables": 0, "moments": 0}
    for name, key in (("apery_general", "tables"), ("weighted_moments", "moments")):
        original = getattr(sylvester, name)

        def counted(*args, _original=original, _key=key):
            calls[_key] += 1
            return _original(*args)

        monkeypatch.setattr(sylvester, name, counted)
    summary = summarize(Generators([14, 17, 21]), weight=as_element(7), weighted_mus=(1, 2, 3),
                        method="apery")
    assert calls == {"tables": 1, "moments": 1}
    for mu in (1, 2, 3):
        assert summary.weighted_sums[mu] == weighted_sum(Generators([14, 17, 21]), mu, 7).value
    values, branch = weighted_sums(apery_general(GENS_14), (3, 1), as_element(-1))
    assert branch == "unity-a" and values == {1: -116, 3: -375500}


# --- weighted sums ----------------------------------------------------------


def test_weighted_general_reference_values():
    table = apery_general(GENS_14)
    assert weighted_sum_general(table, 3, as_element(7)) == Fraction(
        126153136547718860397749189364814847897329040723302499959511892
    )
    assert weighted_sum_general(table, 4, as_element(Fraction(-1, 2))) == Fraction(
        -252455039549405466513, 147573952589676412928
    )
    lam = LambdaSpec.root(3, 2).element()
    value = weighted_sum_general(table, 2, lam)
    assert value.coeffs == (Fraction(21528522), Fraction(31320173525), Fraction(659369214))
    w = LambdaSpec.custom((1, 0, 1), (4, 3)).element()
    value = weighted_sum_general(table, 5, w)
    assert value.coeffs == (
        Fraction(58604955584641578954030966530484875253297329000101560480),
        Fraction(-69984733631939902694215153740002368436325991046609895240),
    )


def test_weighted_general_tiny():
    table = apery_general(Generators([2, 3]))
    assert weighted_sum_general(table, 1, as_element(2)) == 2  # single gap 1 with weight 2


def test_weighted_unity_reference_values():
    table = apery_general(GENS_14)
    minus1 = as_element(-1)
    expected = {1: -116, 2: -6380, 3: -375500, 4: -22771652, 5: -1406886596}
    for mu, value in expected.items():
        assert weighted_sum_unity_a(table, mu, minus1) == value
    tiny = apery_general(Generators([2, 3]))
    assert weighted_sum_unity_a(tiny, 2, minus1) == -1


def test_weighted_dispatch():
    value, branch = weighted_sum(GENS_14, 1, as_element(-1))
    assert branch == "unity-a" and value == -116
    value, branch = weighted_sum(GENS_14, 3, as_element(7))
    assert branch == "general"
    z5 = LambdaSpec.zeta(5).element()
    _, branch = weighted_sum(Generators(range(12, 43, 5)), 1, z5)
    assert branch == "general"  # z5^12 = z5^2 != 1


def test_weighted_wrong_dispatch_rejected():
    table = apery_general(GENS_14)
    with pytest.raises(ValueError):
        weighted_sum_general(table, 1, as_element(-1))  # (-1)^14 = 1
    with pytest.raises(ValueError):
        weighted_sum_unity_a(table, 1, as_element(7))


def test_weighted_degenerate_weights_rejected():
    table = apery_general(GENS_14)
    for bad in (0, 1):
        with pytest.raises(ValueError):
            weighted_sum_general(table, 2, as_element(bad))
        with pytest.raises(ValueError):
            weighted_sum(GENS_14, 2, as_element(bad))
    with pytest.raises(ValueError):
        weighted_sum(GENS_14, 0, as_element(7))


def test_weighted_sum_matches_oracle_randomized():
    rng = random.Random(314)
    weights = [spec.element() for spec in reference_weights()]
    extra = [as_element(v) for v in (-2, 3, Fraction(1, 2))]
    for gens in random_generator_sets(30, seed=8, max_a1=16, max_k=4, max_value=50):
        gs = oracle.gap_set(gens)
        for lam in weights + extra:
            mu = rng.randint(1, 3)
            value, _ = weighted_sum(gens, mu, lam)
            assert value == oracle.weighted_sum(gs, mu, lam)


# --- bundled summaries ------------------------------------------------------


def test_summarize_closed_form_tags():
    from gapsums import summarize

    summary = summarize(GENS_13, power_mus=(1, 7))
    assert summary.frobenius == 62 and summary.genus == 36
    assert summary.power_sums == {1: 894, 7: 10815989768148}
    assert summary.methods["frobenius"] == "ap-closed-form"

    summary = summarize(GENS_14, weight=as_element(-1), weighted_mus=(1,))
    assert summary.methods["weighted_sum[1]"] == "ap-closed-form/unity-a"
    assert summary.weighted_sums == {1: as_element(-116)}
    assert summary.weight == as_element(-1)


def test_summarize_general_and_oracle_agree():
    from gapsums import summarize

    gens = Generators([14, 17, 21])  # not a progression
    auto = summarize(gens, power_mus=(2,), weight=as_element(7), weighted_mus=(2,))
    assert auto.methods["frobenius"] == "general-apery"
    assert auto.methods["weighted_sum[2]"].startswith("general-apery/")
    via_oracle = summarize(gens, power_mus=(2,), weight=as_element(7), weighted_mus=(2,), method="oracle")
    assert via_oracle.methods["genus"] == "oracle"
    assert auto.frobenius == via_oracle.frobenius
    assert auto.genus == via_oracle.genus
    assert auto.power_sums == via_oracle.power_sums
    assert auto.weighted_sums == via_oracle.weighted_sums
    with pytest.raises(ValueError):
        summarize(gens, method="closed-form")
    with pytest.raises(ValueError):
        summarize(gens, weighted_mus=(1,))


@pytest.mark.parametrize("method", ["auto", "apery", "closed-form", "oracle"])
@pytest.mark.parametrize("mu, weight", [(0, 7), (0, -1), (1, 1), (2, 0)])
def test_summarize_checks_weighted_arguments_on_every_path(method, mu, weight):
    inputs = [GENS_13, GENS_14] + ([] if method == "closed-form" else [Generators([14, 17, 21])])
    for gens in inputs:
        with pytest.raises(ValueError):
            summarize(gens, weight=weight, weighted_mus=(mu, 3), method=method)
