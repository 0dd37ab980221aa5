"""Exact gap-set arithmetic for numerical semigroups.

Given coprime generators, this package computes the Frobenius number, the
genus (gap count), power sums over the gaps, and weighted power sums
sum w^n n^mu with exact weights drawn from rings Q[theta]/(f) — all in exact
arithmetic, with closed-form fast paths when the generators form an
arithmetic progression, and a brute-force sieve oracle to certify every
formula.
"""
from .apery import (
    AperyTable,
    ArithProgression,
    Generators,
    apery_arith,
    apery_general,
    apery_polynomial,
    as_arith_progression,
)
from .arithprog import (
    frobenius_ap,
    genus_ap,
    power_sum_ap,
    weight_branch,
    weighted_moment_ap,
    weighted_moment_unity_d,
    weighted_sum_ap,
    weighted_sums_ap,
)
from .exact import bernoulli, binomial, eulerian, stirling2
from .numberfield import (
    Embedding,
    LambdaSpec,
    NumberRing,
    RATIONAL_RING,
    ReducibleModulusError,
    RingElement,
    RingMismatchError,
    as_element,
    cyclotomic,
    is_power_unity,
    numeric_eval,
)
from .sylvester import (
    GapSummary,
    frobenius,
    genus,
    power_sum,
    summarize,
    weighted_moment,
    weighted_moments,
    weighted_sum,
    weighted_sum_general,
    weighted_sum_unity_a,
    weighted_sums,
)

__version__ = "0.1.0"

__all__ = [
    "AperyTable",
    "ArithProgression",
    "Embedding",
    "GapSummary",
    "Generators",
    "LambdaSpec",
    "NumberRing",
    "RATIONAL_RING",
    "ReducibleModulusError",
    "RingElement",
    "RingMismatchError",
    "apery_arith",
    "apery_general",
    "apery_polynomial",
    "as_arith_progression",
    "as_element",
    "bernoulli",
    "binomial",
    "cyclotomic",
    "eulerian",
    "frobenius",
    "frobenius_ap",
    "genus",
    "genus_ap",
    "is_power_unity",
    "numeric_eval",
    "power_sum",
    "power_sum_ap",
    "stirling2",
    "summarize",
    "weight_branch",
    "weighted_moment",
    "weighted_moment_ap",
    "weighted_moment_unity_d",
    "weighted_moments",
    "weighted_sum",
    "weighted_sum_ap",
    "weighted_sum_general",
    "weighted_sum_unity_a",
    "weighted_sums",
    "weighted_sums_ap",
]
