"""Unit tests for the general-generator engines (table-driven sums)."""
from __future__ import annotations

import dataclasses
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from math import gcd, perm

import pytest
from hypothesis import assume, example, given, strategies as st

from corpora import (
    FINITE_ORDER,
    power_is_one,
    random_generator_sets,
    random_progressions,
    reference_weights,
)
from gapsums import (
    ArithProgression,
    Generators,
    LambdaSpec,
    apery_general,
    as_element,
    frobenius,
    genus,
    power_sum,
    weighted_moment,
    weighted_moment_unity_d,
    weighted_sum,
    weighted_sum_general,
    weighted_sum_unity_a,
    weighted_sums_ap,
)
from gapsums import apery_polynomial, numberfield, oracle, stirling2, summarize, sylvester
from gapsums.apery import AperyTable, apery_arith
from gapsums.numberfield import NumberRing, RingElement, order
from gapsums.paths import TablePath
from gapsums.sylvester import (
    moment_from_polynomial,
    weighted_moments,
    weighted_sum_from_moments,
    weighted_sums,
)

GENS_13 = Generators([13, 16, 19, 22, 25])
GENS_14 = Generators([14, 17, 20, 23, 26, 29])
# 2 + theta in Q[theta]/Phi_5: a ring element of infinite order, which the
# kernel reaches (weights of finite order take the class sums instead)
TWO_PLUS_ZETA5 = "elem(minpoly=[1,1,1,1,1];coeffs=[2,1])"

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
            nums, q = weighted_moments(sorted(table.m), 4, lam)
            for nu in range(5):
                assert nums[nu] == q * moment_from_polynomial(apery_polynomial(table), nu, lam)
                assert nums[nu] == q * weighted_moment(table, nu, lam)


class _RecordedPower:
    """An int-path power of the kernel's v = lam * lam.den that logs the
    factors of every product it takes part in: power by power, or
    accumulator by power (an int accumulator is not logged: it is one
    integer product whatever its value, as on the ring path)."""

    def __init__(self, value, log):
        self.value, self.log = value, log

    def __mul__(self, other):
        if isinstance(other, _RecordedPower):
            self.log.append(("power", self.value, other.value))
            return _RecordedPower(self.value * other.value, self.log)
        self.log.append(("accumulator", self.value))
        return other * self.value

    __rmul__ = __mul__

    def __pow__(self, n):  # the kernel's check of the chained top power
        return _RecordedPower(self.value ** n, self.log)

    def __eq__(self, other):
        return self.value == other


def test_moment_kernel_makes_no_product_with_one(monkeypatch):
    # ring path: every product of coordinate tuples (the gap powers and the
    # ascending chain) and every power that gets a step matrix (the Horner
    # steps); int path: v is wrapped where both routes split lam, so every
    # product with a power of v
    log = []
    honest_multiply, honest_matrix, honest_split = (
        NumberRing.multiply, NumberRing.matrix, sylvester._split)

    def multiplied(ring, x, y):
        log.append(("product", x, y))
        return honest_multiply(ring, x, y)

    def stepped(ring, x):
        log.append(("step", x))
        return honest_matrix(ring, x)

    def recorded(lam, gaps):
        v, *rest = honest_split(lam, gaps)
        return (v if isinstance(v, RingElement) else _RecordedPower(v, log), *rest)

    monkeypatch.setattr(NumberRing, "multiply", multiplied)
    monkeypatch.setattr(NumberRing, "matrix", stepped)
    monkeypatch.setattr(sylvester, "_split", recorded)
    weights = {
        # zeta(5)/2 has no finite order, but its numerator zeta(5) does: v^5 = 1
        "ring": (LambdaSpec.root(3, 2).element(), LambdaSpec.parse(TWO_PLUS_ZETA5).element(),
                 LambdaSpec.parse("elem(minpoly=[1,1,1,1,1];coeffs=[0,1/2])").element()),
        "int": (as_element(2), as_element(Fraction(-1, 2)), as_element(-6)),
    }
    for path, kinds in (("ring", {"product", "step"}), ("int", {"power", "accumulator"})):
        for lam in weights[path]:
            for gens in (GENS_13, GENS_14, Generators([7, 10, 13, 19])):
                exponents = sorted(apery_general(gens).m)
                log.clear()
                nums, q = weighted_moments(exponents, 3, lam)
                assert {kind for kind, *_ in log} == kinds, (lam, gens)
                unit = (1,) + (0,) * (lam.ring.degree - 1) if path == "ring" else 1
                assert all(x != unit for _, *factors in log for x in factors), (lam, gens)
                # after the log is read: these products are the test's own
                assert nums == [q * x for x in _per_operation_moments(exponents, 3, lam)]


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


def test_power_sums_read_the_entries_from_the_levels():
    # a_1 = 50,021 in a shallow table: the power sums are read from the one
    # byte per residue (by the lookup pass, here), and no tuple of the
    # entries is built
    rng = random.Random(20)
    a = 50021
    gens = Generators([a, *(rng.randint(a + 1, 2 * a) for _ in range(40))])
    path = TablePath(gens)
    table = path.table
    tracemalloc.start()
    try:
        sums = path.power_sums((1, 2, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "m" not in vars(table)
    assert sums == oracle.power_sums(oracle.gap_set(gens), (1, 2, 3))
    m = table.m
    assert peak * 4 < sys.getsizeof(m) + sum(map(sys.getsizeof, m))


def _table_scale_table():
    """A shallow table shaped like the benchmark's table-scale cells: a_1 near
    10^4 and 40 generators, the others in (a_1, 2 a_1)."""
    a = 10007
    return apery_general(Generators([a, *random.Random(40).sample(range(a + 1, 2 * a), 39)]))


@st.composite
def _lookup_cases(draw):
    """(table, top, width): random levels below 256 (bytes) or up to 600
    (a tuple), and any window, at most a + 40 and at most ~40,000 rows."""
    a = draw(st.integers(1, 3000))
    depth = 0 if a == 1 else draw(st.one_of(st.integers(1, 255), st.integers(256, 600)))
    rng = draw(st.randoms(use_true_random=False))
    levels = [0, *(rng.randint(0, depth) for _ in range(a - 1))]
    if a > 1:
        levels[rng.randrange(1, a)] = depth
    width = draw(st.integers(1, max(1, min(a + 40, 40000 // (depth + 1)))))
    return AperyTable(levels=tuple(levels)), draw(st.integers(1, 10)), width


def _deepest(a, depth):
    """Every nonzero residue at level ``depth``: each lane of the lookup pass
    comes near its bound, a (a (depth + 1))^j."""
    return AperyTable(levels=(0, *[depth] * (a - 1)))


@given(_lookup_cases())
@example((AperyTable(levels=(0,)), 3, 1))  # a = 1
@example((_deepest(3000, 255), 10, 40))  # bytes levels at depth 255
@example((_deepest(2000, 600), 6, 66))  # tuple levels at depth 600
@example((_deepest(63, 64), 13, 1))  # a (depth + 1) = 2^12 - 1, top 13, W = 1
@example((_deepest(17, 240), 13, 17))  # a (depth + 1) = 2^12 + 1, W = a
@example((_deepest(241, 16), 13, 281))  # a (depth + 1) = 2^12 + 1, W > a
@example((_deepest(1000, 4), 13, 50))  # a depth < 2^12 < a (depth + 1): bits(a depth) is too few
@example((AperyTable(levels=(0, 300, 7, 299, 1)), 10, 9))  # tuple levels, W > a
@example((AperyTable(levels=(0, 2, 1, 2)), 1, 4))  # W = a
@example((AperyTable(levels=bytes([0, *range(1, 256)] * 11 + [0] * 9)), 7, 64))  # a % W = 9
def test_lookup_pass_matches_the_chunked_pass(case):
    table, top, width = case
    assert (type(table.levels) is tuple) == (table.depth >= 256)
    expected = sylvester._integer_power_sums(table.entries(), top)
    assert sylvester._lookup_power_sums(table, top, width) == expected


def test_the_cost_rule_picks_the_pass(monkeypatch):
    runs = []
    for name in ("_lookup_power_sums", "_integer_power_sums"):
        honest = getattr(sylvester, name)
        spy = lambda *args, honest=honest, name=name: runs.append(name) or honest(*args)  # noqa: E731
        monkeypatch.setattr(sylvester, name, spy)
    wide = _table_scale_table()
    ap400 = apery_arith(ArithProgression(400, 7, 5))  # depth about 100
    deep = apery_general(Generators([2003, 2004]))  # depth 2002, tuple levels
    # the largest sieve of the verify-cli benchmark: 6 generators at a_1 = 1850
    sieve = apery_general(Generators([1850, *random.Random(6).sample(range(1851, 3700), 5)]))
    assert wide.depth < 10 and ap400.depth > 90 and type(deep.levels) is tuple
    cases = [(wide, "_lookup_power_sums"), (ap400, "_integer_power_sums"), (deep, "_integer_power_sums"),
             (sieve, "_integer_power_sums")]
    for table, expected in cases:
        for mus in ((1,), (2, 4), (8,), (3, 9)):
            runs.clear()
            sylvester.power_sums(table, mus)
            assert runs == [expected], (table.modulus, mus)


def test_lookup_power_sums_read_no_entries(monkeypatch):
    table = _table_scale_table()
    mus = (0, 1, 2, 5, 8)
    monkeypatch.setattr(sylvester, "_lookup_width", lambda *shape: None)
    chunked = sylvester.power_sums(table, mus)
    monkeypatch.undo()
    table = _table_scale_table()  # a fresh table: m was built above

    def refuse(self):
        raise AssertionError("the entries were read")

    monkeypatch.setattr(AperyTable, "entries", refuse)
    assert sylvester.power_sums(table, mus) == chunked
    assert "m" not in vars(table)


@pytest.mark.parametrize("shape", ["table-scale", "capped"])
def test_lookup_pass_needs_no_more_memory_than_the_chunked_pass(shape):
    if shape == "table-scale":
        table, tops = _table_scale_table(), (2, 4, 9)
    else:  # W (depth + 1) reaches the row cap: a_1 = 46,326 at depth 39
        table, tops = apery_general(Generators([46326, 49491, 51074, 56213, 72202, 88986])), (4, 7)
    for top in tops:
        width = sylvester._lookup_width(table.modulus, table.depth, top)
        peaks = []
        for run in (
            lambda: sylvester._lookup_power_sums(table, top, width),
            lambda: sylvester._integer_power_sums(table.entries(), top),
        ):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert width is not None and peaks[0] <= peaks[1], (top, width, peaks)


def test_a_wrong_lane_is_caught(monkeypatch):
    table = _table_scale_table()
    sylvester.power_sums(table, (3,))  # the honest pass
    honest = sylvester._packed_values

    def off_by_one(start, count, offsets):
        # every row's lanes 1..top hold x^j + 1 in place of x^j
        ones = sum(1 << offset for offset in offsets[1:])
        return [packed + ones for packed in honest(start, count, offsets)]

    monkeypatch.setattr(sylvester, "_packed_values", off_by_one)
    with pytest.raises(ArithmeticError, match="packed power sums are wrong"):
        sylvester.power_sums(table, (3,))


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


@pytest.mark.parametrize(
    "spec", ["2", "-1/2", "root(3,2)", pytest.param(TWO_PLUS_ZETA5, id="2+zeta(5)")]
)
def test_a_wrong_cached_power_is_caught(monkeypatch, spec):
    # both routes read one table of powers of v, so the route comparison
    # cannot see a wrong entry; the chained v^E against an exponentiation
    # of its own can
    table = apery_general(Generators([53, 67, 88]))
    lam = LambdaSpec.parse(spec).element()
    assert weighted_sums(table, (1, 2), lam).branch == "general"
    honest = sylvester._gap_powers

    def corrupted(v, gaps, *product):
        powers = honest(v, gaps, *product)
        delta = max(d for d, power in powers.items() if power is not None)
        power = powers[delta]  # a ring weight's powers are coordinate tuples
        powers[delta] = tuple(3 * c for c in power) if isinstance(power, tuple) else power * 3
        return powers

    monkeypatch.setattr(sylvester, "_gap_powers", corrupted)
    with pytest.raises(ArithmeticError, match="cached powers of the weight are wrong"):
        weighted_sums(table, (1, 2), lam)


def _per_operation_moments(exponents, top, lam):
    """M(0..top) on lam itself, one reduced ring operation at a time, along
    the kernel's two routes as they ran before they were scaled to integer
    numerators: the ascending power pass and the falling-factorial Horner
    passes."""
    ring = lam.ring
    direct = [ring.zero] * (top + 1)
    power, last = ring.one, 0
    for e in exponents:
        power = power * lam ** (e - last)
        last = e
        for nu in range(top + 1):
            direct[nu] = direct[nu] + e ** nu * power
    falling = []
    for h in range(top + 1):
        acc, above = ring.zero, None
        for e in reversed([e for e in exponents if e >= h]):
            if above is not None:
                acc = acc * lam ** (above - e)
            acc = acc + perm(e, h)
            above = e
        falling.append(acc if above is None else acc * lam ** above)
    recombined = [
        sum((stirling2(nu, h) * falling[h] for h in range(nu + 1)), ring.zero)
        for nu in range(top + 1)
    ]
    assert direct == recombined
    return direct


# the last modulus, x^2 + 1/2, is not integral: its ring stores elements in
# the basis of 2 theta, whose modulus is integral, so v = lam * lam.den has
# integer coordinates and so does v * v
KERNEL_WEIGHTS = [
    "2/3",
    "-1/2",
    "3",
    "root(3,2)",
    "elem(minpoly=[1,0,1];coeffs=[4,3])",
    "elem(minpoly=[1/2,0,1];coeffs=[1/3,5/7])",
]


@pytest.mark.parametrize("spec", KERNEL_WEIGHTS)
def test_moment_kernel_matches_per_operation_routes(spec):
    lam = LambdaSpec.parse(spec).element()
    if spec.startswith("elem(minpoly=[1/2"):
        v = lam * lam.den
        assert v.den == 1 and (v * v).den == 1
    cases = [sorted(apery_general(gens).m) for gens in (GENS_13, GENS_14, Generators([7, 10, 13, 19]))]
    cases += [[0], [0, 3], [2], [1, 4, 5, 11]]  # top past every exponent; no exponent 0
    for exponents in cases:
        nums, q = weighted_moments(exponents, 4, lam)
        assert q == lam.den ** exponents[-1], exponents
        assert nums == [q * x for x in _per_operation_moments(exponents, 4, lam)], exponents
        for route in (sylvester._ascending_moments, sylvester._falling_factorial_moments):
            # a route returns D^E M(nu), which the kernel hands on as it is
            scaled = route(exponents, 4, sylvester._power_table(lam, exponents))
            assert scaled == nums, (route.__name__, exponents)


@st.composite
def _ring_kernel_cases(draw):
    """(lam, exponents, top) for the ring path: a random monic modulus of
    degree 2-6, integral or with denominators (so its ring stores elements
    in the basis of T theta, T != 1), a weight whose numerator over the
    integral modulus has the common denominator D in {1, 2, 3, 6}, and
    strictly ascending exponents from a few gaps, so that gaps repeat."""
    degree = draw(st.integers(2, 6))
    dens = st.sampled_from([1, 1, 2, 3, 4]) if draw(st.booleans()) else st.just(1)
    minpoly = [Fraction(draw(st.integers(-4, 4)), draw(dens)) for _ in range(degree)] + [1]
    ring = NumberRing(minpoly)
    den = draw(st.sampled_from([1, 2, 3, 6]))
    num = draw(st.lists(st.integers(-3, 3), min_size=degree, max_size=degree))
    assume(any(num) and gcd(den, *num) == 1)
    lam = ring.from_numerator(num) * Fraction(1, den)
    gaps = draw(st.lists(st.sampled_from(draw(st.lists(st.integers(1, 9), min_size=1, max_size=3))),
                         min_size=1, max_size=12))
    start = draw(st.sampled_from([0, 0, 1, 4]))
    exponents = [start + sum(gaps[:i]) for i in range(len(gaps))]
    return lam, exponents, draw(st.integers(0, 6))


def _kernel_case(spec, exponents, top):
    return LambdaSpec.parse(spec).element(), exponents, top


@given(_ring_kernel_cases(), st.sampled_from([1, 3, 64]))
@example(_kernel_case("root(3,2)", sorted(apery_general(GENS_13).m), 4), 64)
@example(_kernel_case(TWO_PLUS_ZETA5, [0, 2, 4, 5, 7, 9, 11], 6), 3)
@example(_kernel_case("elem(minpoly=[1/4,0,1];coeffs=[4,3])", [0, 3, 6, 9, 10], 3), 1)  # D = 2, T = 2
@example(_kernel_case("elem(minpoly=[1,0,1];coeffs=[4/3,1])", [1, 2, 4, 6, 8], 2), 3)  # D = 3
def test_each_ring_route_matches_per_operation_routes(case, chunk):
    # each route on its own, not only the two against each other, so that a
    # fault both routes share cannot hide
    lam, exponents, top = case
    assert lam.ring.degree >= 2
    expected = [lam.den ** exponents[-1] * x for x in _per_operation_moments(exponents, top, lam)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sylvester, "_COLUMN_CHUNK", chunk)  # powers kept a chunk at a time
        for route in (sylvester._ascending_columns, sylvester._falling_matrix_steps):
            got = route(exponents, top, sylvester._power_table(lam, exponents))
            assert got == expected, route.__name__


@pytest.mark.parametrize("spec", ["root(3,2)", TWO_PLUS_ZETA5, "elem(minpoly=[1,0,1];coeffs=[4/3,1])"])
def test_a_wrong_step_matrix_is_caught(monkeypatch, spec):
    # only the falling-factorial route reads step matrices: the ascending
    # route chains its powers by ring products, so one wrong matrix entry
    # makes the two routes disagree (were the matrices shared, the chained
    # power check would fire instead, with another message)
    table = apery_general(Generators([53, 67, 88]))
    lam = LambdaSpec.parse(spec).element()
    honest_values = weighted_sums(table, (1, 2), lam)
    honest, built = NumberRing.matrix, []

    def corrupted(ring, x):
        rows = [list(row) for row in honest(ring, x)]
        if not built:  # the first step matrix only, in one entry
            rows[-1][0] += 1
        built.append(x)
        return tuple(map(tuple, rows))

    monkeypatch.setattr(NumberRing, "matrix", corrupted)
    with pytest.raises(ArithmeticError, match="weighted moment routes disagree"):
        weighted_sums(table, (1, 2), lam)
    monkeypatch.undo()
    assert weighted_sums(table, (1, 2), lam) == honest_values


def test_no_moment_is_reduced_before_the_recombination(monkeypatch):
    # the kernel's D^E M(nu) reach the recombination undivided: of the gcds
    # of two operands past 2^16 bits, only each mu's final reduction is left
    gens, lam = Generators([1001, 1008, 1014]), Fraction(-1, 2)
    table = apery_general(gens)
    big = []

    def counted(honest):
        def gcd(*args):
            if len(args) > 1 and min(abs(x).bit_length() for x in args[:2]) > 1 << 16:
                big.append(len(args))
            return honest(*args)

        return gcd

    monkeypatch.setattr(math, "gcd", counted(math.gcd))  # fractions looks it up at call time
    monkeypatch.setattr(numberfield, "gcd", counted(numberfield.gcd))
    values, branch = weighted_sums(table, (1, 2, 3), lam)
    monkeypatch.undo()
    assert branch == "general" and len(big) <= len(values) == 3
    assert values[3] == oracle.weighted_sum(oracle.gap_set(gens), 3, lam)


@st.composite
def _small_generator_sets(draw):
    a1 = draw(st.integers(2, 12))
    rest = draw(st.lists(st.integers(a1 + 1, 3 * a1 + 2), min_size=1, max_size=3))
    assume(gcd(a1, *rest) == 1)
    return Generators([a1, *rest])


@given(
    _small_generator_sets(),
    st.integers(-9, 9),
    st.integers(1, 9),
    st.integers(1, 3),
)
def test_rational_weights_match_the_oracle(gens, p, q, mu):
    lam = Fraction(p, q)
    assume(lam not in (0, 1))
    assert weighted_sum(gens, mu, lam).value == oracle.weighted_sum(oracle.gap_set(gens), mu, lam)


def _lifted(lam: Fraction) -> RingElement:
    """The rational lam as an element of Q[i], a ring of degree 2: the same
    number on the ring path."""
    return LambdaSpec.custom((1, 0, 1), (lam, 0)).element()


def _same_number(rational: RingElement, lifted: RingElement) -> bool:
    return rational.ring.degree == 1 and lifted.coeffs == (rational.coeffs[0], 0)


@st.composite
def _binary_weights(draw):
    """sign * odd * 2^k / odd': +-2^s, +-1/2^t, +-2^s/odd, odd/2^t, odd/odd."""
    sign = draw(st.sampled_from([1, -1]))
    k = draw(st.integers(-4, 4))
    top, bottom = draw(st.sampled_from([1, 3, 5, 15])), draw(st.sampled_from([1, 3, 7]))
    lam = Fraction(sign * top * 2 ** max(k, 0), bottom * 2 ** max(-k, 0))
    assume(lam != 1)
    return lam


@given(_small_generator_sets(), _binary_weights())
@example(Generators([5, 7]), Fraction(-1, 2))  # v = -1
@example(Generators([6, 7, 15]), Fraction(1, 4))  # v = 1
@example(Generators([7, 10, 13]), Fraction(-4))  # D = 1
@example(Generators([4, 9]), Fraction(-1))  # D = 1, and lam^a = 1: unity-a
@example(GENS_14, Fraction(-1))
@example(Generators([8, 11, 13]), Fraction(-1))
@example(Generators([2, 3]), Fraction(-1))
def test_int_path_matches_the_ring_path(gens, lam):
    ring_lam = _lifted(lam)
    table = apery_general(gens)
    exponents = sorted(table.m)
    (nums, q), (ring_nums, ring_q) = (weighted_moments(exponents, 3, w) for w in (lam, ring_lam))
    assert q == ring_q and len(nums) == len(ring_nums) == 4
    for x, y in zip(nums, ring_nums):
        assert _same_number(as_element(x), y)
    values, branch = weighted_sums(table, (1, 2, 3), lam)
    ring_values, ring_branch = weighted_sums(table, (1, 2, 3), ring_lam)
    assert branch == ring_branch == ("unity-a" if lam ** table.modulus == 1 else "general")
    gs = oracle.gap_set(gens)
    for mu in (1, 2, 3):
        assert _same_number(values[mu], ring_values[mu])
        assert _same_number(oracle.weighted_sum(gs, mu, lam), oracle.weighted_sum(gs, mu, ring_lam))
        assert values[mu] == oracle.weighted_sum(gs, mu, lam)


def _corrupt_differences(monkeypatch):
    honest = sylvester._residue_differences

    def corrupted(table, top, lam):
        out = honest(table, top, lam)
        out[top] = out[top] + 1
        return out

    monkeypatch.setattr(sylvester, "_residue_differences", corrupted)


def _corrupt_moments(monkeypatch):
    # M(0) stays, so the pole check passes and only the difference form can see it
    honest = sylvester.weighted_moments

    def corrupted(exponents, top, lam):
        nums, q = honest(exponents, top, lam)
        nums[1] += q  # M(1) + 1
        return nums, q

    monkeypatch.setattr(sylvester, "weighted_moments", corrupted)


UNITY_A_QUERIES = {
    "table": lambda: weighted_sum_unity_a(apery_general(GENS_14), 2, as_element(-1)),
    "closed-form": lambda: weighted_sums_ap(ArithProgression(14, 3, 6), (2,), -1),
}


@pytest.mark.parametrize(
    "corrupt", [_corrupt_differences, _corrupt_moments], ids=["differences", "moments"]
)
@pytest.mark.parametrize("query", UNITY_A_QUERIES.values(), ids=UNITY_A_QUERIES.keys())
def test_unity_difference_form_check_fires(monkeypatch, query, corrupt):
    corrupt(monkeypatch)
    with pytest.raises(ArithmeticError, match="unity-weight forms disagree"):
        query()


def _termwise_differences(table, top, lam):
    """sum_{i>=1} (m_i^e - i^e) lam^{m_i} for e = 0..top, one term at a time."""
    return [
        sum(((m ** e - i ** e) * lam ** m for i, m in enumerate(table.m) if i), lam.ring.zero)
        for e in range(top + 1)
    ]


@st.composite
def _unity_a_tables(draw):
    """A residue table and a weight with lam^a = 1: -1, zeta(3..6), or zeta(a)."""
    order = draw(st.integers(2, 6))
    a = order * draw(st.integers(1, 3))
    rest = draw(st.lists(st.integers(a + 1, 3 * a + 2), min_size=1, max_size=3))
    assume(gcd(a, *rest) == 1)
    if draw(st.booleans()):
        order = a  # a weight whose order is the modulus
    return apery_general(Generators([a, *rest])), LambdaSpec.zeta(order).element()


@given(_unity_a_tables(), st.integers(0, 4))
@example((apery_general(GENS_14), as_element(-1)), 3)
@example((apery_general(Generators([12, 17, 19])), LambdaSpec.zeta(12).element()), 4)
def test_class_sums_match_termwise_differences(case, top):
    table, lam = case
    assert power_is_one(lam, table.modulus)
    assert sylvester._residue_differences(table, top, lam) == _termwise_differences(table, top, lam)


@st.composite
def _finite_order_cases(draw):
    """(branch, generators, progression or None, weight spec): a weight of
    finite order c with a residue table in each branch, c | a ("unity-a"),
    neither ("general"), or a progression with c | d ("unity-d")."""
    spec = draw(st.sampled_from(sorted(FINITE_ORDER)))
    c = FINITE_ORDER[spec]
    branch = draw(st.sampled_from(["general", "unity-a", "unity-d"]))
    if branch == "unity-d":
        d = c * draw(st.integers(1, 3))
        a = draw(st.integers(2, 30).filter(lambda a: gcd(a, d) == 1))
        ap = ArithProgression(a, d, draw(st.integers(2, min(a, 6))))
        return branch, ap.generators(), ap, spec
    if branch == "unity-a":
        a = c * draw(st.integers(1, 8))
    else:
        a = draw(st.integers(2, 40).filter(lambda a: a % c))
    rest = draw(st.lists(st.integers(a + 1, 3 * a + 2), min_size=1, max_size=3))
    assume(gcd(a, *rest) == 1)
    return branch, Generators([a, *rest]), None, spec


@given(_finite_order_cases(), st.integers(1, 3))
@example(("general", Generators([53, 67, 88]), None, "zeta(5)"), 2)
@example(("unity-d", Generators(range(12, 43, 5)), ArithProgression(12, 5, 7), "zeta(5)"), 2)
def test_class_sums_match_the_kernel_and_the_oracle(case, top_mu):
    branch, gens, ap, spec = case
    lam = LambdaSpec.parse(spec).element()
    assert order(lam) == FINITE_ORDER[spec]
    table = apery_general(gens)
    exponents, top = sorted(table.m), top_mu + 1
    nums, q = weighted_moments(exponents, top, lam)  # the class sums
    power_table, scale = sylvester._power_table(lam, exponents), lam.den ** exponents[-1]
    for route in (sylvester._ascending_moments, sylvester._falling_factorial_moments):
        # a route returns D^E M(nu): cross-multiplied with the class sums' q
        assert [x * q for x in route(exponents, top, power_table)] == [y * scale for y in nums]
    moments = [x / q for x in nums]
    mus = range(1, top_mu + 1)
    if ap is None:
        values, got = weighted_sums(table, mus, lam)
    else:
        assert [weighted_moment_unity_d(ap, nu, lam) for nu in range(top + 1)] == moments
        values, got = weighted_sums_ap(ap, mus, lam)
    assert got == branch
    gs = oracle.gap_set(gens)
    assert values == {mu: oracle.weighted_sum(gs, mu, lam) for mu in mus}


def _zeta(n):
    return LambdaSpec.zeta(n).element()


def _wrong_class_weight(monkeypatch):
    # route A chains lam^r by _power: lam^(e+1) in place of lam^e
    honest = sylvester._power
    monkeypatch.setattr(sylvester, "_power", lambda lam, e: honest(lam, e + (e > 0)))


def _wrong_class_sum(monkeypatch):
    # route B sums falling factorials: (x)_2 + x in place of (x)_2
    honest = sylvester._falling_factorial_sums

    def corrupted(values, top):
        return [s + (h == 2) * sum(values) for h, s in enumerate(honest(values, top))]

    monkeypatch.setattr(sylvester, "_falling_factorial_sums", corrupted)


CLASS_SUM_QUERIES = {
    "moments": lambda: weighted_moments(sorted(apery_general(GENS_14).m), 2, _zeta(3)),
    "general": lambda: weighted_sums(apery_general(Generators([53, 67, 88])), (2,), _zeta(5)),
    "unity-a": lambda: weighted_sums(apery_general(GENS_14), (2,), -1),
    "unity-d": lambda: weighted_sums_ap(ArithProgression(12, 5, 7), (2,), _zeta(5)),
}


@pytest.mark.parametrize("corrupt", [_wrong_class_weight, _wrong_class_sum], ids=["weight", "sum"])
@pytest.mark.parametrize("query", CLASS_SUM_QUERIES.values(), ids=CLASS_SUM_QUERIES.keys())
def test_a_wrong_class_route_is_caught(monkeypatch, query, corrupt):
    query()  # the honest routes agree
    corrupt(monkeypatch)
    with pytest.raises(ArithmeticError, match="class-sum routes disagree"):
        query()


@pytest.mark.parametrize(
    "values",
    [[], range(7, 300, 11), range(5000), [-3, 0, 5, 2 ** 70, -(2 ** 40)] * 900],
    ids=["empty", "range", "range-three-chunks", "signed-three-chunks"],
)
def test_power_sum_pass(values):
    expected = [sum(x ** e for x in values) for e in range(6)]
    assert sylvester._integer_power_sums(values, 5) == expected
    assert sylvester._integer_power_sums(values, 0) == [len(values)]


@pytest.mark.parametrize("lam", [-1, 1], ids=["unity-a", "power-sums"])
def test_pole_check_fires(lam):
    # a = 14: both weights put a pole in G(lam^a, a), which cancels only for
    # M(0) = 0 (lam = -1) and M(0) = a (lam = 1)
    table = apery_general(GENS_14)
    nums, q = weighted_moments(sorted(table.m), 3, lam)
    values = weighted_sum_from_moments(table.modulus, (1, 2), as_element(lam), nums, q)
    for mu, value in values.items():
        assert value == (weighted_sum_unity_a(table, mu, lam) if lam == -1 else power_sum(table, mu))
    nums[0] += q  # M(0) + 1
    with pytest.raises(ArithmeticError, match="t\\^-1 coefficients do not cancel"):
        weighted_sum_from_moments(table.modulus, (1, 2), as_element(lam), nums, q)


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


def test_gap_summary_has_no_instance_dict():
    summary = summarize(Generators([14, 17, 21]), power_mus=(1, 2), weight=as_element(7), weighted_mus=(1,))
    assert not hasattr(summary, "__dict__")
    names = ["generators", "frobenius", "genus", "power_sums", "weight", "weighted_sums", "methods"]
    assert [f.name for f in dataclasses.fields(summary)] == names
    assert repr(summary) == "GapSummary(" + ", ".join(f"{n}={getattr(summary, n)!r}" for n in names) + ")"
    assert summary == summarize(Generators([14, 17, 21]), power_mus=(2, 1), weight=7, weighted_mus=(1,))
    changed = dataclasses.replace(summary, genus=0)
    assert changed.genus == 0 and changed != summary
    assert dataclasses.replace(changed, genus=summary.genus) == summary
    with pytest.raises(dataclasses.FrozenInstanceError):
        summary.genus = 0


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


def test_every_path_answers_power_sums_for_an_exponent_set():
    # unsorted, repeated and with 0: each path's one call equals its per-mu functions
    from gapsums import arithprog, as_arith_progression, paths

    rng = random.Random(1303)
    corpus = random_generator_sets(20, seed=1303, max_a1=30)
    corpus += [ap.generators() for ap in random_progressions(20, seed=1304, max_a=40)]
    for gens in corpus:
        mus = rng.sample(range(1, 9), 3) + [0]
        mus += mus[1:3]
        if mus == sorted(mus):
            mus.reverse()
        expected = sorted(set(mus))
        table, gapset = apery_general(gens), oracle.gap_set(gens)
        per_mu = {
            "general-apery": lambda mu: power_sum(table, mu),
            "oracle": lambda mu: oracle.power_sum(gapset, mu),
            "ap-closed-form": lambda mu: arithprog.power_sum_ap(as_arith_progression(gens), mu),
        }
        every = paths.applicable(gens)
        assert len(every) == 2 + (as_arith_progression(gens) is not None)
        for path in every:
            got = path.power_sums(iter(mus))
            assert list(got.items()) == [(mu, per_mu[path.tag](mu)) for mu in expected], gens
            assert path.power_sums(()) == {}


def test_power_sums_of_no_exponent_make_no_pass(monkeypatch):
    table = apery_general(GENS_13)
    monkeypatch.setattr(sylvester, "weighted_sum_from_moments", None)  # a call would fail
    monkeypatch.setattr(sylvester, "mul", None)  # so would a product of the pass
    assert sylvester.power_sums(table, []) == {}
    with pytest.raises(ValueError, match="nonnegative"):
        sylvester.power_sums(table, [3, -1])
