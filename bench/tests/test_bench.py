"""Tests of the benchmark itself: corpus determinism, the reference answers,
span arithmetic, the exactness gate and the contract with BENCHMARK.json.

    python3 -m pytest bench/tests -q
"""
import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import reference
import run
import tracing
import workloads
from gapsums import oracle, sylvester
from gapsums.apery import Generators, apery_general
from gapsums.numberfield import LambdaSpec
from workloads import PANEL, Gate, Query

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_corpus_is_a_function_of_the_seed(workload):
    first = workloads.build_corpus(workload, 11)
    assert first == workloads.build_corpus(workload, 11)
    assert first != workloads.build_corpus(workload, 12)
    cells = len(workloads.WORKLOADS[workload].cells(random.Random(0)))
    assert len(first) == cells * workloads.WORKLOADS[workload].rounds


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_first_round_reaches_every_required_branch_and_degree(workload):
    spec = workloads.WORKLOADS[workload]
    rounds = workloads.build_corpus(workload, 5)[: len(spec.cells(random.Random(0)))]
    weighted = [q for q in rounds if q.weight]
    assert spec.branches <= {q.branch for q in weighted}
    assert spec.degrees <= {PANEL[q.weight].degree for q in weighted}


SMALL = [(5, 7), (6, 9, 11), (7, 10, 13, 19), (11, 13, 19), (12, 17, 22, 27, 32)]


@pytest.mark.parametrize("gens", SMALL)
def test_reference_agrees_with_the_sieve(gens):
    g = Generators(gens)
    gs = oracle.gap_set(g)
    m = reference.apery_table(gens)
    assert tuple(m) == apery_general(g).m
    frob, genus, sums = reference.gap_stats(m, (0, 1, 2, 5, 8))
    assert frob == max(gs.gaps, default=-1) and genus == len(gs.gaps)
    assert sums == {mu: oracle.power_sum(gs, mu) for mu in (0, 1, 2, 5, 8)}
    assert reference.gap_list(m) == list(gs.gaps)
    for weight in PANEL.values():
        lam = LambdaSpec.parse(weight.spec).element()
        ref = reference.weighted_sums(list(gs.gaps), (1, 3), weight)
        for mu in (1, 3):
            value = oracle.weighted_sum(gs, mu, lam)
            assert value.ring.minpoly == tuple(map(Fraction, weight.minpoly))
            assert value.coeffs == ref[mu]


def test_bernoulli_numbers():
    assert reference.bernoulli_numbers(7) == [
        Fraction(1), Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)
    ]


def _span(id, parent, start, end, name="x"):
    return tracing.Span(id, parent, 0, name, start, end)


def test_self_time_subtracts_children_only_once():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 1, 1.5, 2.5),  # grandchild: counted against span 1 only
        _span(3, 0, 4.0, 8.0),
        _span(4, 0, 7.0, 9.0),  # overlaps span 3: the union is 4..9
        _span(5, None, 20.0, 21.0),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10 - 2 - 5, 1: 2 - 1, 2: 1, 3: 4, 4: 2, 5: 1})


def test_layer_metrics_from_a_synthetic_trace():
    tracer = tracing.Tracer()
    tracer.spans = [
        _span(0, None, 0.0, 4.0, "query"),
        _span(1, 0, 0.0, 1.0, "apery.apery_general"),
        _span(2, 0, 1.0, 4.0, "sylvester.weighted_sum_from_moments"),
        _span(3, 2, 1.0, 3.0, "sylvester.weighted_moment"),
        _span(4, None, 4.0, 6.0, "query"),
        _span(5, 4, 4.0, 6.0, "sylvester.weighted_moment"),
    ]
    metrics = tracing.layer_metrics(tracer, [])
    assert metrics["trace.wall_s"] == 3.0
    assert metrics["apery.build_s"] == 0.5
    assert metrics["sylvester.moment_s"] == 2.0
    assert metrics["sylvester.recombine_s"] == 0.5  # 3 s minus the 2 s moment, per 2 queries
    assert metrics["share.sylvester"] == pytest.approx(5 / 6)
    assert set(metrics) | {"exact.cache_misses", "trace.overhead_ratio"} == set(tracing.UNITS)


QUERIES = {
    "general-weighted": Query((7, 10, 13, 19), weight="-1", weighted_mus=(1, 2)),
    "table-scale": Query((11, 13, 19), power_mus=(1, 4)),
    "ap-closed-form": Query((8, 11, 14), step=3, weight="zeta(3)", weighted_mus=(1,)),
    "verify-cli": Query((6, 9, 11), power_mus=(2,)),
}


@pytest.mark.parametrize("workload", sorted(QUERIES))
def test_gate_passes_exact_answers(workload):
    query = QUERIES[workload]
    gate = Gate(workload)
    result = workloads.prepare(workload, query)()
    assert gate.problems(query, result) == []


def _wrong(query):
    answer = workloads.reference_answer(query)
    return answer._replace(genus=answer.genus + 1)


@pytest.mark.parametrize("workload", ["general-weighted", "table-scale", "ap-closed-form"])
def test_wrong_reference_raises_the_failed_ratio(workload):
    query = QUERIES[workload]
    call = workloads.prepare(workload, query)
    records = [(0, 0.0, call()), (0, 0.0, call())]
    attempted, failed, _ = run.run_gate(Gate(workload), [query], records)
    same, wrong_failed, problems = run.run_gate(Gate(workload, _wrong), [query], records)
    assert same == attempted and wrong_failed == failed + 2
    assert sum("frobenius/genus" in p for p in problems) == 2


def test_path_other_than_intended_fails():
    query = QUERIES["general-weighted"]
    result = workloads.prepare("general-weighted", query)()
    moved = replace(result, methods={**result.methods, "weighted_sum[1]": "ap-closed-form/general"})
    assert any("path" in p for p in Gate("general-weighted").problems(query, moved))


def test_cli_exit_code_and_output_are_checked():
    query = QUERIES["verify-cli"]
    code, out, err = workloads.prepare("verify-cli", query)()
    gate = Gate("verify-cli")
    assert gate.problems(query, (code, out, err)) == []
    assert gate.problems(query, (3, out, err))
    assert gate.problems(query, (code, out.replace("OK", "FAILED"), err))


def test_pinned_readme_answers_hold():
    assert all(check() for _, check in workloads.pinned_checks())


def test_tracer_restores_every_patch():
    before = (sylvester.weighted_moment, sylvester.apery_general)
    tracer = tracing.Tracer()
    tracer.install()
    assert sylvester.weighted_moment is not before[0]
    tracer.remove()
    assert (sylvester.weighted_moment, sylvester.apery_general) == before


def test_benchmark_json_matches_what_the_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: s.why for name, s in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.UNITS


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
