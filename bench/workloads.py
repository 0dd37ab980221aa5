"""Seeded workloads: corpus generation, query execution and the exactness gate.

A corpus is a list of queries built from the seed alone.  It is laid out in
rounds; each round draws one query from every cell of its workload, in a
seeded order, so any prefix of whole rounds has the same mix of sizes,
weights and branches whatever the seed.  Each cell pins a size band, so two
seeds give different inputs of the same cost.

``prepare`` turns a query into a zero-argument call into the package (the
generator set and weight are built in set-up, outside the timed region).
``Gate`` checks every result against :mod:`reference` afterwards.
"""
from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass, replace
from math import gcd
from typing import Callable, NamedTuple

import reference
from reference import Weight

__all__ = [
    "WORKLOADS",
    "Gate",
    "Query",
    "build_corpus",
    "pinned_checks",
    "prepare",
    "warm_up",
]

# The ROADMAP weight panel, the unity-d weights the progressions need, and
# the rational weights of the verify-cli workload.
PANEL = {
    w.spec: w
    for w in (
        Weight("2", (0, 1), (2,)),
        Weight("-1", (0, 1), (-1,), 1, 2),
        Weight("-1/2", (0, 1), (-1,), 2),
        Weight("root(3,2)", (-2, 0, 0, 1), (0, 1, 0)),
        Weight("zeta(5)", (1, 1, 1, 1, 1), (0, 1, 0, 0), 1, 5),
        Weight("elem(minpoly=[1,0,1];coeffs=[4,3])", (1, 0, 1), (4, 3)),
        Weight("zeta(3)", (1, 1, 1), (0, 1), 1, 3),
        Weight("zeta(4)", (1, 0, 1), (0, 1), 1, 4),
        Weight("3", (0, 1), (3,)),
        Weight("2/3", (0, 1), (2,), 3),
        Weight("-2", (0, 1), (-2,)),
    )
}
GAUSS = "elem(minpoly=[1,0,1];coeffs=[4,3])"  # 4 + 3i


@dataclass(frozen=True)
class Query:
    """One query: generators (with the progression step, if they form one),
    power-sum exponents, and an optional weight with its exponents."""

    gens: tuple[int, ...]
    step: int = 0
    power_mus: tuple[int, ...] = ()
    weight: str | None = None
    weighted_mus: tuple[int, ...] = ()

    @property
    def branch(self) -> str | None:
        if self.weight is None:
            return None
        return PANEL[self.weight].branch(self.gens[0], self.step)

    def argv(self) -> list[str]:
        """The ``gapsums verify`` command line for this query."""
        if self.step:
            a, k = self.gens[0], len(self.gens)
            argv = ["verify", "--ap", f"a={a},d={self.step},k={k}"]
        else:
            argv = ["verify", "--gens", ",".join(map(str, self.gens))]
        for mu in self.power_mus or self.weighted_mus:
            argv += ["--mu", str(mu)]
        if self.weight is not None:
            argv.append(f"--lambda={self.weight}")
        return argv


# --- input generation --------------------------------------------------------

def multiple_of(m: int) -> Callable[[int], bool]:
    return lambda n: n % m == 0


def not_multiple_of(m: int) -> Callable[[int], bool]:
    return lambda n: n % m != 0


def _pick_a(rng: random.Random, lo: int, hi: int, rule) -> int:
    while True:
        a = rng.randint(lo, hi)
        if rule is None or rule(a):
            return a


def generic_gens(rng: random.Random, lo: int, hi: int, k: int, rule=None) -> tuple[int, ...]:
    """k coprime generators, smallest in [lo, hi] (and passing ``rule``), the
    rest in (a, 2a), never an arithmetic progression."""
    while True:
        a = _pick_a(rng, lo, hi, rule)
        rest = rng.sample(range(a + 1, 2 * a), k - 1)
        gens = tuple(sorted([a] + rest))
        g = 0
        for x in gens:
            g = gcd(g, x)
        steps = {y - x for x, y in zip(gens, gens[1:])}
        if g == 1 and len(steps) > 1:
            return gens


def progression(rng: random.Random, lo: int, hi: int, k, rule=None, step_rule=None) -> Query:
    """a, a+d, ..., a+(k-1)d with a in [lo, hi], gcd(a, d) = 1 and
    5 <= d <= 12, a and d passing ``rule`` and ``step_rule``; ``k`` may be a
    callable of a."""
    while True:
        a = _pick_a(rng, lo, hi, rule)
        d = rng.randint(5, 12)
        if gcd(a, d) == 1 and (step_rule is None or step_rule(d)):
            kk = k(a) if callable(k) else k
            return Query(tuple(a + j * d for j in range(kk)), step=d)


def _general_weighted(rng: random.Random) -> list[Callable[[], Query]]:
    def cell(weight, lo, hi, k, mus, rule=None):
        return lambda: Query(generic_gens(rng, lo, hi, k, rule), weight=weight, weighted_mus=mus)

    return [
        cell("2", 45, 55, 4, (1, 2, 3)),
        cell("2", 100, 110, 3, (1,)),
        cell("-1", 50, 60, 4, (1, 2), multiple_of(2)),  # unity-a
        cell("-1", 100, 110, 5, (2,), not_multiple_of(2)),
        cell("-1/2", 45, 52, 3, (1, 2, 3)),
        cell("-1/2", 100, 110, 6, (1, 2)),
        cell("root(3,2)", 50, 60, 5, (1, 2)),
        cell("root(3,2)", 100, 110, 4, (1,)),
        cell("zeta(5)", 40, 50, 6, (1,), multiple_of(5)),  # unity-a
        cell("zeta(5)", 50, 60, 6, (1,), not_multiple_of(5)),
        cell(GAUSS, 50, 60, 3, (1,)),
        cell(GAUSS, 80, 90, 5, (1,)),
    ]


def _table_scale(rng: random.Random) -> list[Callable[[], Query]]:
    def cell(lo, hi, k, mus):
        return lambda: Query(generic_gens(rng, lo, hi, k), power_mus=mus)

    return [
        cell(10000, 10500, 40, (8,)),
        cell(10000, 10500, 110, (1,)),
        cell(11000, 11500, 100, (2,)),
        cell(15000, 16000, 30, (4,)),
        cell(20000, 21000, 30, (2,)),
        cell(25000, 26000, 20, (5,)),
        cell(30000, 31500, 12, (6,)),
        cell(35000, 36000, 10, (4,)),
        cell(45000, 47500, 6, (3,)),
    ]


def _ap_closed_form(rng: random.Random) -> list[Callable[[], Query]]:
    def power(lo, hi, k, mus):
        return lambda: replace(progression(rng, lo, hi, k), power_mus=mus)

    def weighted(weight, lo, hi, k, mus, rule=None, step_rule=None):
        return lambda: replace(
            progression(rng, lo, hi, k, rule, step_rule), weight=weight, weighted_mus=mus
        )

    return [
        power(500, 600, 2, (4, 8)),  # large q = a - 1
        power(2000, 2400, 8, (2, 6)),
        power(1500, 1600, lambda a: a - rng.randint(0, 20), (4, 8)),  # q = 1
        weighted("2", 70, 80, 4, (1, 2)),
        weighted("-1/2", 70, 80, 3, (1, 2)),
        weighted("root(3,2)", 60, 70, 5, (1,)),
        weighted(GAUSS, 50, 60, 3, (1,)),
        weighted("zeta(3)", 90, 100, 4, (1, 2), not_multiple_of(3), multiple_of(3)),  # unity-d
        weighted("zeta(4)", 100, 110, 5, (1, 2), not_multiple_of(2), multiple_of(4)),  # unity-d
        weighted("-1", 90, 100, 3, (1, 2), not_multiple_of(2), multiple_of(2)),  # unity-d
        weighted("-1", 100, 110, 6, (1, 2), multiple_of(2)),  # unity-a
        weighted("zeta(3)", 110, 120, 4, (1, 2), multiple_of(3)),  # unity-a
    ]


def _verify_cli(rng: random.Random) -> list[Callable[[], Query]]:
    def generic(lo, hi, k, mus=(), weight=None):
        return lambda: Query(
            generic_gens(rng, lo, hi, k),
            power_mus=() if weight else mus,
            weight=weight,
            weighted_mus=mus if weight else (),
        )

    def ap(lo, hi, k, mus, weight=None):
        return lambda: replace(
            progression(rng, lo, hi, k),
            power_mus=() if weight else mus,
            weight=weight,
            weighted_mus=mus if weight else (),
        )

    return [
        generic(600, 650, 3, (2, 5)),
        generic(1800, 1900, 6, (3,)),  # the largest sieve: sets peak memory
        generic(1000, 1100, 4),  # Frobenius number and genus only
        generic(800, 850, 4, (1, 3)),
        ap(400, 450, 5, (2, 4)),
        generic(50, 60, 4, (1,), "-1/2"),
        generic(50, 60, 3, (2,), "2/3"),
        ap(50, 60, 4, (1,), "3"),
        ap(50, 60, 3, (1,), "-2"),
    ]


class Spec(NamedTuple):
    why: str
    cells: Callable[[random.Random], list[Callable[[], Query]]]
    rounds: int  # distinct rounds in the corpus; the timed loop cycles them
    tag: str  # the method tag every entry must carry
    branches: frozenset  # weight branches the corpus must reach
    degrees: frozenset  # weight ring degrees the corpus must reach


WORKLOADS: dict[str, Spec] = {
    "general-weighted": Spec(
        "non-progression weighted sums over the weight panel via summarize(method=apery): moment "
        "kernel and ring arithmetic ~90% of the time, table build <1%; ROADMAP item 3 shows here",
        _general_weighted, 20, "general-apery",
        frozenset({"general", "unity-a"}), frozenset({1, 2, 3, 4}),
    ),
    "table-scale": Spec(
        "non-progression a_1 1e4..5e4, k up to 110, Frobenius/genus/power sums only: the Dijkstra "
        "table build ~85% of the time, no ring arithmetic; ROADMAP item 4 shows here",
        _table_scale, 8, "general-apery", frozenset(), frozenset(),
    ),
    "ap-closed-form": Spec(
        "progressions under method=auto, q from 1 to a-1, power sums and weighted sums in the "
        "general, unity-d and unity-a regimes: arithprog does the work; cost-based auto shows here",
        _ap_closed_form, 16, "ap-closed-form",
        frozenset({"general", "unity-d", "unity-a"}), frozenset({1, 2, 3}),
    ),
    "verify-cli": Spec(
        "in-process `gapsums verify` on generic and progression inputs: the only workload that "
        "loads the oracle sieve and the cli dispatch, which ROADMAP items 2 and 5 change",
        _verify_cli, 24, "", frozenset(), frozenset(),
    ),
}


def build_corpus(workload: str, seed: int) -> list[Query]:
    """The same (workload, seed) always yields the same list of queries."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    cells = spec.cells(rng)
    corpus: list[Query] = []
    for _ in range(spec.rounds):
        order = list(range(len(cells)))
        rng.shuffle(order)
        corpus.extend(cells[i]() for i in order)
    return corpus


# --- execution ----------------------------------------------------------------


def warm_up() -> None:
    """Fill the memoized Bernoulli / Stirling / Eulerian tables every query
    reads (exponents up to 8, so indices up to 10)."""
    from gapsums import exact

    for n in range(11):
        exact.bernoulli(n)
        for m in range(n + 1):
            exact.stirling2(n, m)
            exact.eulerian(n, m)


def prepare(workload: str, query: Query) -> Callable[[], object]:
    """A zero-argument call that runs the query.  Module attributes are
    looked up at call time, so a traced run sees its wrappers."""
    from gapsums import cli, sylvester
    from gapsums.apery import Generators
    from gapsums.numberfield import LambdaSpec

    if workload == "verify-cli":
        argv = query.argv()

        def run_cli():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue(), err.getvalue()

        return run_cli

    gens = Generators(query.gens)
    weight = LambdaSpec.parse(query.weight).element() if query.weight else None
    method = "auto" if workload == "ap-closed-form" else "apery"
    return lambda: sylvester.summarize(
        gens,
        power_mus=query.power_mus,
        weight=weight,
        weighted_mus=query.weighted_mus,
        method=method,
    )


# --- exactness gate -------------------------------------------------------------


def expected_methods(query: Query, tag: str) -> dict[str, str]:
    methods = {"frobenius": tag, "genus": tag}
    for mu in query.power_mus:
        methods[f"power_sum[{mu}]"] = tag
    for mu in query.weighted_mus:
        methods[f"weighted_sum[{mu}]"] = f"{tag}/{query.branch}"
    return methods


def expected_verify_output(query: Query) -> str:
    labels = ["frobenius", "genus"]
    if query.step:
        labels.append("apery-table")
    for mu in query.power_mus or query.weighted_mus:
        labels.append(f"s_{mu}^({query.weight})" if query.weight else f"s_{mu}")
    return f"verify OK ({len(labels)} checks: {', '.join(labels)})\n"


class Answer(NamedTuple):
    frobenius: int
    genus: int
    power_sums: dict
    weighted_sums: dict  # mu -> power-basis coordinates


def reference_answer(query: Query) -> Answer:
    m = reference.apery_table(query.gens)
    frobenius, genus, sums = reference.gap_stats(m, query.power_mus)
    weighted = {}
    if query.weight is not None:
        weighted = reference.weighted_sums(
            reference.gap_list(m), query.weighted_mus, PANEL[query.weight]
        )
    return Answer(frobenius, genus, sums, weighted)


class Gate:
    """Checks results against the reference and the workload's intended path.

    ``answer`` is the reference function; it is an argument so that the
    benchmark's own tests can hand in a deliberately wrong one.
    """

    def __init__(self, workload: str, answer: Callable[[Query], Answer] = reference_answer):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.answer = answer
        self._cache: dict[Query, Answer] = {}
        self.branches: dict[str, int] = {}
        self.degrees: dict[int, int] = {}

    def problems(self, query: Query, result) -> list[str]:
        """Empty when the result is exact and took the intended path."""
        if self.workload == "verify-cli":
            code, out, err = result
            want = expected_verify_output(query)
            if code != 0 or out != want or err:
                return [f"exit {code}, stdout {out!r}, stderr {err!r}; expected exit 0, {want!r}"]
            return []
        if query.weight is not None:
            self.branches[query.branch] = self.branches.get(query.branch, 0) + 1
            degree = PANEL[query.weight].degree
            self.degrees[degree] = self.degrees.get(degree, 0) + 1
        found: list[str] = []
        methods = dict(result.methods)
        want_methods = expected_methods(query, self.spec.tag)
        if methods != want_methods:
            found.append(f"path {methods} != intended {want_methods}")
        if query not in self._cache:
            self._cache[query] = self.answer(query)
        ref = self._cache[query]
        if (result.frobenius, result.genus) != (ref.frobenius, ref.genus):
            found.append(f"frobenius/genus {(result.frobenius, result.genus)} != {ref[:2]}")
        if dict(result.power_sums) != ref.power_sums:
            found.append(f"power sums {dict(result.power_sums)} != {ref.power_sums}")
        if query.weight is not None:
            minpoly = PANEL[query.weight].minpoly
            for mu, want in ref.weighted_sums.items():
                got = result.weighted_sums.get(mu)
                if got is None or got.ring.minpoly != minpoly or got.coeffs != want:
                    found.append(f"weighted sum mu={mu}: {got} != {want}")
        return found

    def coverage_problems(self) -> list[str]:
        found = []
        missing = self.spec.branches - set(self.branches)
        if missing:
            found.append(f"weight branches never reached: {sorted(missing)}")
        missing = self.spec.degrees - set(self.degrees)
        if missing:
            found.append(f"ring degrees never reached: {sorted(missing)}")
        return found


def pinned_checks() -> list[tuple[str, Callable[[], bool]]]:
    """The README's worked answers on 14,17,20,23,26,29, held fixed."""
    from gapsums import arithprog, sylvester
    from gapsums.apery import ArithProgression, Generators
    from gapsums.numberfield import LambdaSpec

    gens = Generators([14, 17, 20, 23, 26, 29])
    ap = ArithProgression(14, 3, 6)
    root = LambdaSpec.parse("root(3,2)").element()
    coords = (21528522, 31320173525, 659369214)

    def alternating():
        value, branch = sylvester.weighted_sum(gens, 1, -1)
        return value == -116 and branch == "unity-a"

    def cube_root_table():
        value, branch = sylvester.weighted_sum(gens, 2, root)
        return value.coeffs == coords and branch == "general"

    def cube_root_closed_form():
        value, branch = arithprog.weighted_sum_ap(ap, 2, root)
        return value.coeffs == coords and branch == "general"

    return [
        ("s_1^(-1) = -116 on unity-a", alternating),
        ("s_2^(root(3,2)) by residue table", cube_root_table),
        ("s_2^(root(3,2)) by closed form", cube_root_closed_form),
    ]

