"""Seeded random corpora of generator sets and progressions, the weight
panel and weights of finite order, shared by the test modules."""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from gapsums import ArithProgression, Generators, LambdaSpec


def random_generator_sets(
    count: int, *, seed: int, max_a1: int = 40, max_k: int = 5, max_value: int = 160
) -> list[Generators]:
    rng = random.Random(seed)
    out: list[Generators] = []
    while len(out) < count:
        a1 = rng.randint(2, max_a1)
        k = rng.randint(2, max_k)
        values = {a1} | {rng.randint(a1 + 1, max_value) for _ in range(k - 1)}
        try:
            out.append(Generators(values))
        except ValueError:
            continue
    return out


def random_progressions(
    count: int, *, seed: int, max_a: int = 60, max_d: int = 9, max_k: int = 8
) -> list[ArithProgression]:
    rng = random.Random(seed)
    out: list[ArithProgression] = []
    while len(out) < count:
        a = rng.randint(2, max_a)
        d = rng.randint(1, max_d)
        if gcd(a, d) != 1:
            continue
        k = rng.randint(2, min(a, max_k))
        out.append(ArithProgression(a, d, k))
    return out


def reference_weights() -> list[LambdaSpec]:
    """The weight panel exercised across the equivalence suites."""
    return [
        LambdaSpec.rational(2),
        LambdaSpec.rational(Fraction(-1, 2)),
        LambdaSpec.rational(-1),
        LambdaSpec.root(3, 2),
        LambdaSpec.zeta(5),
        LambdaSpec.custom((1, 0, 1), (4, 3)),
    ]


# weights of finite order, each with its order: rationals, roots of unity of
# several rings, -zeta(3), and i written as theta/2 over theta^2 = -4
FINITE_ORDER = {
    "-1": 2,
    "zeta(3)": 3,
    "zeta(4)": 4,
    "zeta(5)": 5,
    "zeta(6)": 6,
    "elem(minpoly=[1,1,1];coeffs=[0,-1])": 6,
    "elem(minpoly=[1,0,1];coeffs=[0,-1])": 4,
    "elem(minpoly=[4,0,1];coeffs=[0,1/2])": 4,
}
