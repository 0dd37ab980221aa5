"""The three evaluation paths behind one interface, and the rule that picks one.

Every path answers the same questions about one generator set: ``frobenius()``,
``genus()``, ``apery()`` (the residue table), ``power_sums(mus)`` and
``weighted_sums(mus, lam)``, the values by ascending mu (the weighted ones with
the path's tag and its weight branch).  ``tag`` names the path in every result:

* :class:`TablePath` ("general-apery"): the residue-table engine, any generators;
* :class:`ClosedFormPath` ("ap-closed-form"): the closed forms, progressions only;
* :class:`OraclePath` ("oracle"): the brute-force sieve that certifies both.

Each path builds its table or sieve on first use and keeps it, so one query
costs at most one of each; the closed forms' table
(:func:`gapsums.apery.apery_arith`) serves ``apery()`` and the table engine's
weighted sums, tagged by :func:`gapsums.arithprog.branch_ap`.  Each path calls
its own module, through module attributes, so that a caller may wrap or
replace them.  The oracle shares no engine code with the other two.
All three share one argument check for weighted sums,
:func:`gapsums.sylvester.require_weight`, so every path refuses the same
questions.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable

from . import apery, arithprog, oracle, sylvester
from .apery import ArithProgression, Generators
from .numberfield import RingElement

__all__ = ["ClosedFormPath", "OraclePath", "TablePath", "applicable", "choose"]


class TablePath:
    tag = "general-apery"

    def __init__(self, gens: Generators):
        self.gens = gens

    @cached_property
    def table(self) -> apery.AperyTable:
        # looked up on sylvester, where the tests and bench/tracing.py wrap it
        return sylvester.apery_general(self.gens)

    def frobenius(self) -> int:
        return sylvester.frobenius(self.table)

    def genus(self) -> int:
        return sylvester.genus(self.table)

    def apery(self) -> tuple[int, ...]:
        return self.table.m

    def power_sums(self, mus: Iterable[int]) -> dict[int, int]:
        return sylvester.power_sums(self.table, mus)

    def weighted_sums(self, mus: Iterable[int], lam) -> tuple[dict[int, RingElement], str]:
        values, branch = sylvester.weighted_sums(self.table, mus, lam)
        return values, f"{self.tag}/{branch}"


class ClosedFormPath:
    tag = "ap-closed-form"

    def __init__(self, ap: ArithProgression):
        self.ap = ap

    @cached_property
    def table(self) -> apery.AperyTable:
        return apery.apery_arith(self.ap)

    def frobenius(self) -> int:
        return arithprog.frobenius_ap(self.ap)

    def genus(self) -> int:
        return arithprog.genus_ap(self.ap)

    def apery(self) -> tuple[int, ...]:
        return self.table.m

    def power_sums(self, mus: Iterable[int]) -> dict[int, int]:
        return {mu: arithprog.power_sum_ap(self.ap, mu) for mu in sorted(set(mus))}

    def weighted_sums(self, mus: Iterable[int], lam) -> tuple[dict[int, RingElement], str]:
        values, branch = sylvester.weighted_sums(self.table, mus, lam)
        return values, f"{self.tag}/{arithprog.branch_ap(self.ap, lam, branch)}"


class OraclePath:
    tag = "oracle"

    def __init__(self, gens: Generators):
        self.gens = gens

    @cached_property
    def gapset(self) -> oracle.GapSet:
        return oracle.gap_set(self.gens)

    def frobenius(self) -> int:
        return self.gapset.frobenius

    def genus(self) -> int:
        return self.gapset.genus

    def apery(self) -> tuple[int, ...]:
        return self.gapset.minima

    def power_sums(self, mus: Iterable[int]) -> dict[int, int]:
        return oracle.power_sums(self.gapset, mus)

    def weighted_sums(self, mus: Iterable[int], lam) -> tuple[dict[int, RingElement], str]:
        # oracle.weighted_sum, the ground truth, takes any mu and weight; the
        # engines' check keeps this path to the questions the other two answer
        mus = sorted(set(mus))
        lam = sylvester.require_weight(mus, lam)
        return {mu: oracle.weighted_sum(self.gapset, mu, lam) for mu in mus}, self.tag


def choose(gens: Generators, method: str = "auto"):
    """The path for ``method``: "auto" takes the closed forms when the
    generators form an arithmetic progression and the table otherwise;
    "apery", "closed-form" and "oracle" force a path, and "closed-form" is
    refused unless the input is a progression."""
    ap = apery.as_arith_progression(gens)
    if method == "auto":
        method = "apery" if ap is None else "closed-form"
    if method == "apery":
        return TablePath(gens)
    if method == "oracle":
        return OraclePath(gens)
    if method != "closed-form":
        raise ValueError(f"unknown method {method!r}")
    if ap is None:
        raise ValueError("closed forms need generators in arithmetic progression")
    return ClosedFormPath(ap)


def applicable(gens: Generators) -> list:
    """Every path that can evaluate ``gens``, the table path first."""
    ap = apery.as_arith_progression(gens)
    return [TablePath(gens), OraclePath(gens), *([ClosedFormPath(ap)] if ap else [])]
