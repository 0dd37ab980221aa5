"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import gapsums
from corpora import reference_weights
from gapsums import ArithProgression, Generators, LambdaSpec, summarize
from gapsums import arithprog, cli, oracle, sylvester
from gapsums.cli import main
from gapsums.numberfield import element_from_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_power_sum_text(capsys):
    code, out, _ = run_cli(capsys, "power-sum", "--ap", "a=13,d=3,k=5", "--mu", "1")
    assert code == 0
    assert "s_1 = 894" in out
    assert "ap-closed-form" in out


def test_power_sum_multiple_mu_sorted(capsys):
    code, out, _ = run_cli(
        capsys, "power-sum", "--gens", "13,16,19,22,25", "--mu", "7", "--mu", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [entry["query"]["mu"] for entry in payload] == [1, 7]
    assert payload[0]["value"] == "894"
    assert payload[1]["value"] == "10815989768148"
    assert payload[0]["generators"] == [13, 16, 19, 22, 25]


def test_weighted_sum_unity_tag(capsys):
    code, out, _ = run_cli(
        capsys, "weighted-sum", "--gens", "14,17,20,23,26,29", "--mu", "1", "--lambda", "-1"
    )
    assert code == 0
    assert "-116" in out
    assert "unity-a" in out


def test_weighted_sum_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "weighted-sum",
        "--gens",
        "14,17,20,23,26,29",
        "--mu",
        "2",
        "--lambda",
        "root(3,2)",
        "--format",
        "json",
        "--numeric",
    )
    assert code == 0
    payload = json.loads(out)
    element = element_from_json(payload["value"])
    lam = LambdaSpec.parse("root(3,2)").element()
    expected = 21528522 + 31320173525 * lam + 659369214 * lam ** 2
    assert element == expected
    assert payload["numeric"]["re"] == pytest.approx(40529157816.4466, rel=1e-9)
    assert payload["numeric"]["im"] == pytest.approx(0.0, abs=1e-6)


def test_weighted_sum_numeric_root_override(capsys):
    code, out, _ = run_cli(
        capsys,
        "weighted-sum",
        "--gens",
        "14,17,20,23,26,29",
        "--mu",
        "1",
        "--lambda",
        "elem(minpoly=[1,0,1];coeffs=[0,1])",
        "--format",
        "json",
        "--numeric",
        "1",
    )
    assert code == 0
    payload = json.loads(out)
    element = element_from_json(payload["value"])
    # check the preview against the +i root explicitly
    expected = complex(float(element.coeffs[0]), float(element.coeffs[1]))
    assert payload["numeric"]["re"] == pytest.approx(expected.real, rel=1e-9)
    assert payload["numeric"]["im"] == pytest.approx(expected.imag, rel=1e-9)


def test_apery_and_gaps_commands(capsys):
    code, out, _ = run_cli(capsys, "apery", "--gens", "2,3", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == [0, 3]
    code, out, _ = run_cli(capsys, "gaps", "--gens", "13,16,19,22,25", "--format", "json")
    assert code == 0
    gaps = json.loads(out)["value"]
    assert len(gaps) == 36 and max(gaps) == 62


def test_frobenius_methods_agree(capsys):
    values = {}
    for method in ("auto", "apery", "closed-form", "oracle"):
        code, out, _ = run_cli(
            capsys, "frobenius", "--ap", "a=25,d=4,k=9", "--method", method, "--format", "json"
        )
        assert code == 0
        values[method] = json.loads(out)["value"]
    assert set(values.values()) == {"146"}


def test_unit_weight_remaps_to_power_sum(capsys):
    code, out, err = run_cli(
        capsys, "weighted-sum", "--gens", "2,3", "--mu", "3", "--lambda", "2/2"
    )
    assert code == 0
    assert "power sum" in err
    assert "s_3 = 1" in out


def test_validation_failures_exit_2(capsys):
    cases = [
        ("frobenius", "--gens", "4,6"),  # gcd 2
        ("frobenius", "--ap", "a=3,d=1,k=5"),  # k > a
        ("frobenius", "--ap", "a=6,d=3,k=3"),  # gcd(a, d) > 1
        ("weighted-sum", "--gens", "2,3", "--mu", "1", "--lambda", "0"),
        ("weighted-sum", "--gens", "2,3", "--mu", "1", "--lambda", "zeta(1)"),
        ("weighted-sum", "--gens", "2,3", "--mu", "1", "--lambda", "sqrt(2)"),
        ("weighted-sum", "--gens", "2,3", "--mu", "0", "--lambda", "2"),
        ("power-sum", "--gens", "2,3", "--mu", "-1"),
        ("power-sum", "--gens", "nonsense", "--mu", "1"),
        ("frobenius", "--ap", "a=13,k=5"),  # malformed spec
        ("frobenius", "--gens", "14,17,21", "--method", "closed-form"),  # not an AP
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert err.strip(), argv


def test_reducible_weight_ring_exits_2(capsys):
    # theta^2 = 1 factors as (theta - 1)(theta + 1): inverting lam^13 - 1 = theta - 1 fails
    code, out, err = run_cli(
        capsys, "weighted-sum", "--gens", "13,17", "--mu", "1",
        "--lambda", "elem(minpoly=[-1,0,1];coeffs=[0,1])",
    )
    assert code == 2
    assert not out
    assert err.startswith("error: modulus is reducible")
    assert "Traceback" not in err


# root(2, R) with R = 10^33 written out: the sums' coordinates pass the float range
HUGE_ROOT = f"root(2,{10 ** 33})"


@pytest.mark.parametrize(
    "lam, numeric, message",
    [
        ("-1/2", "9", "root index 9 out of range"),  # a rational has one root, index 0
        ("-1/2", "-1", "root index -1 out of range"),
        ("-1", "1", "root index 1 out of range"),
        ("root(2,-3)", "2", "root index 2 out of range"),
        ("-1/2", "x", "root index 'x' is not an integer"),
        (HUGE_ROOT, None, "numeric preview out of floating-point range"),
    ],
    ids=["rational-9", "rational-minus-1", "unity-1", "root-2", "not-an-integer", "past-floats"],
)
def test_numeric_preview_refusals_exit_2(capsys, lam, numeric, message):
    argv = ["weighted-sum", "--gens", "5,7", "--mu", "1", "--mu", "2", f"--lambda={lam}"]
    code, out, err = run_cli(capsys, *argv, "--numeric", *([numeric] if numeric else []))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@contextlib.contextmanager
def _any_digits():
    """Decimal conversion of ints of any size (Python 3.11+ caps it)."""
    cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


@pytest.mark.parametrize("form", ["text", "json"])
def test_big_exact_answer_prints(capsys, form):
    # an 88 kbit answer: about 26,500 decimal digits, past the interpreter's
    # default cap of 4,300
    cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run_cli(
        capsys, "weighted-sum", "--gens", "1001,1008,1014", "--mu", "3", "--lambda", "2",
        "--format", form,
    )
    assert (code, err) == (0, "")
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap
    value = sylvester.weighted_sum(Generators([1001, 1008, 1014]), 3, 2).value
    with _any_digits():
        if form == "json":
            assert element_from_json(json.loads(out)["value"]) == value
        else:
            assert out == f"s_3^(2) = {value}  (method: general-apery/general)\n"
            assert len(str(value)) > 26000


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no digit cap before Python 3.11"
)
def test_input_keeps_the_digit_cap(capsys):
    huge = "9" * 5000
    for argv in (
        ("genus", "--gens", f"2,{huge}"),
        ("weighted-sum", "--gens", "5,7", "--mu", "1", "--lambda", f"{huge}/7"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert err.startswith("error: "), argv


def test_internal_route_disagreement_exits_3(capsys, monkeypatch):
    honest = sylvester._falling_factorial_moments

    def corrupted(exponents, top, table):
        out = honest(exponents, top, table)
        out[0] = out[0] + 1
        return out

    monkeypatch.setattr(sylvester, "_falling_factorial_moments", corrupted)
    for lam in ("7", "root(3,2)"):  # the int path and the ring path's coordinate routes
        code, out, err = run_cli(capsys, "weighted-sum", "--gens", "14,17,21", "--mu", "1", "--lambda", lam)
        assert code == 3, lam
        assert not out
        assert err.startswith("internal fault: weighted moment routes disagree")
        assert "Traceback" not in err


def test_a_wrong_packed_lane_exits_3(capsys, monkeypatch):
    # a_1 = 10,007 with 40 generators: a shallow table, whose power sums the
    # lookup pass reads; with every packed lane 1..top off, lane 1 fails its check
    gens = ",".join(map(str, [10007, *random.Random(40).sample(range(10008, 20014), 39)]))
    code, out, _ = run_cli(capsys, "power-sum", "--gens", gens, "--mu", "3")
    assert code == 0 and out.startswith("s_3 = ")
    honest = sylvester._packed_values

    def off_by_one(start, count, offsets):
        ones = sum(1 << offset for offset in offsets[1:])
        return [packed + ones for packed in honest(start, count, offsets)]

    monkeypatch.setattr(sylvester, "_packed_values", off_by_one)
    code, out, err = run_cli(capsys, "power-sum", "--gens", gens, "--mu", "3")
    assert code == 3
    assert not out
    assert err.startswith("internal fault: packed power sums are wrong")
    assert "Traceback" not in err


def test_a_wrong_packed_oracle_lane_exits_3(capsys, monkeypatch):
    # the oracle's gap count, lane 0 of its packed power sums, must equal the
    # genus read from the sieve's bits; one more per packed entry misses it
    code, out, _ = run_cli(capsys, "power-sum", "--gens", "13,16,19,22,25", "--mu", "2",
                           "--method", "oracle")
    assert (code, out) == (0, "s_2 = 33150  (method: oracle)\n")
    honest = oracle._packed_powers

    def miscounted(width, top):
        packed, offsets, masks = honest(width, top)
        return [p + 1 for p in packed], offsets, masks

    # the honest rows of the call above are kept; a fresh cache, dropped with
    # the patch, makes the pass read rows built by the miscounted powers
    monkeypatch.setattr(oracle, "_packed_powers", miscounted)
    monkeypatch.setattr(oracle, "_window_rows", functools.lru_cache(oracle._build_rows))
    code, out, err = run_cli(capsys, "power-sum", "--gens", "13,16,19,22,25", "--mu", "2",
                             "--method", "oracle")
    assert code == 3
    assert not out
    assert err.startswith("internal fault: packed gap power sums are wrong")
    assert "Traceback" not in err
    monkeypatch.undo()
    assert run_cli(capsys, "power-sum", "--gens", "13,16,19,22,25", "--mu", "2",
                   "--method", "oracle")[:2] == (0, "s_2 = 33150  (method: oracle)\n")


def test_closed_form_requires_progression(capsys):
    code, _, err = run_cli(capsys, "genus", "--gens", "14,17,21", "--method", "closed-form")
    assert code == 2
    assert "arithmetic progression" in err


@pytest.mark.parametrize("method", ["auto", "apery", "closed-form", "oracle"])
def test_verify_and_gaps_ignore_the_method(capsys, method):
    # verify runs every applicable path and gaps reads the sieve, so --method
    # is ignored by both, closed-form on a non-progression included
    assert run_cli(capsys, "verify", "--gens", "14,17,21", "--method", method, "--mu", "1") == (
        0, "verify OK (3 checks: frobenius, genus, s_1)\n", "")
    code, out, err = run_cli(capsys, "gaps", "--gens", "14,17,21", "--method", method)
    assert (code, err) == (0, "")
    assert out == "gaps = " + ", ".join(map(str, oracle.gap_set(Generators([14, 17, 21])).gaps)) + (
        "  (method: oracle)\n")


def test_verify_ok(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "--gens",
        "14,17,20,23,26,29",
        "--mu",
        "2",
        "--mu",
        "4",
        "--lambda",
        "-1/2",
    )
    assert code == 0
    assert "verify OK" in out


def test_verify_power_sums_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ap", "a=13,d=3,k=5", "--mu", "1", "--mu", "7")
    assert code == 0
    assert "verify OK" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["weighted-sum", "--gens", "14,17,21", "--mu", "1", "--mu", "3", "--lambda", "2"],
        ["weighted-sum", "--gens", "14,17,21", "--mu", "2", "--mu", "1", "--lambda", "-1"],
        ["verify", "--gens", "14,17,21", "--mu", "1", "--mu", "2", "--mu", "3", "--lambda", "-1/2"],
        ["verify", "--ap", "a=13,d=3,k=5", "--mu", "1", "--mu", "2", "--lambda", "zeta(13)"],
    ],
)
def test_one_residue_table_per_run(capsys, monkeypatch, argv):
    from gapsums import apery, cli

    builds = []

    def counted(gens):
        builds.append(gens)
        return apery.apery_general(gens)

    monkeypatch.setattr(cli, "apery_general", counted)
    monkeypatch.setattr(sylvester, "apery_general", counted)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert len(builds) == 1
    if argv[0] == "verify":
        assert out.startswith("verify OK")
    else:
        assert out.count("(method: general-apery/") == argv.count("--mu")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--gens", "14,17,21", "--mu", "2", "--mu", "5"],
        ["power-sum", "--gens", "14,17,21", "--mu", "5", "--mu", "2", "--mu", "5"],
    ],
)
def test_power_sums_make_one_recombination(capsys, monkeypatch, argv):
    # every --mu is read from one table pass up to max mu + 1, M(0..6) here
    expected = run_cli(capsys, *argv)
    calls = []
    honest = sylvester.weighted_sum_from_moments

    def counted(modulus, mus, lam, nums, q):
        calls.append((list(mus), len(nums)))
        return honest(modulus, mus, lam, nums, q)

    monkeypatch.setattr(sylvester, "weighted_sum_from_moments", counted)
    assert run_cli(capsys, *argv) == expected
    assert calls == [([2, 5], 7)]
    if argv[0] == "verify":
        assert expected == (0, "verify OK (4 checks: frobenius, genus, s_2, s_5)\n", "")


def test_verify_builds_the_closed_form_table_once(capsys, monkeypatch):
    # the apery-table check and the weighted sums read one closed-form table
    from gapsums import apery

    builds = []
    honest = apery.apery_arith

    def counted(ap):
        builds.append(ap)
        return honest(ap)

    monkeypatch.setattr(apery, "apery_arith", counted)
    monkeypatch.setattr(arithprog, "apery_arith", counted)
    assert run_cli(capsys, "verify", "--ap", "a=14,d=3,k=6", "--mu", "2", "--lambda=-1") == (
        0,
        "verify OK (4 checks: frobenius, genus, apery-table, s_2^(-1))\n",
        "",
    )
    assert builds == [ArithProgression(14, 3, 6)]


@pytest.mark.parametrize("weight", ["-1/2", "root(3,2)"])
@pytest.mark.parametrize("options", [(), ("--numeric",), ("--format", "json"), ("--format", "json", "--numeric")])
def test_each_answer_is_converted_once(capsys, monkeypatch, weight, options):
    # the JSON coeffs and the display come from one read of the coordinates,
    # and the numeric preview reads the integer numerators
    from gapsums import paths
    from gapsums.numberfield import RingElement

    argv = ["weighted-sum", "--gens", "14,17,21", "--mu", "1", "--mu", "3", "--lambda", weight, *options]
    expected = run_cli(capsys, *argv)
    reads, answers = [], []
    coeffs = RingElement.coeffs
    honest = paths.TablePath.weighted_sums

    def recorded(path, mus, lam):
        values, tag = honest(path, mus, lam)
        answers.extend(values.values())
        return values, tag

    monkeypatch.setattr(RingElement, "coeffs", property(lambda x: reads.append(x) or coeffs.fget(x)))
    monkeypatch.setattr(paths.TablePath, "weighted_sums", recorded)
    assert run_cli(capsys, *argv) == expected
    assert expected[0] == 0 and len(answers) == 2
    assert [sum(x is answer for x in reads) for answer in answers] == [1, 1]


def test_verify_detects_injected_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(arithprog, "frobenius_ap", lambda ap: 10 ** 9)
    code, _, err = run_cli(capsys, "verify", "--ap", "a=13,d=3,k=5")
    assert code == 3
    assert "verify FAILED" in err
    assert "1000000000" in err


def test_verify_checks_the_oracle_residue_table(capsys, monkeypatch):
    honest = oracle._minima

    def corrupted(members, bound, a1):
        minima = list(honest(members, bound, a1))
        minima[1] += a1
        return tuple(minima)

    monkeypatch.setattr(oracle, "_minima", corrupted)
    code, _, err = run_cli(capsys, "verify", "--ap", "a=13,d=3,k=5")
    assert code == 3
    assert err.startswith("verify FAILED for apery-table:")
    assert "\n  oracle: " in err


# a general set, then one progression per weight regime of the closed forms
_FRONT_END_INPUTS = [
    (Generators([14, 17, 21]), ("--gens", "14,17,21"), "-1/2"),
    (ArithProgression(14, 3, 6).generators(), ("--ap", "a=14,d=3,k=6"), "root(3,2)"),
    (ArithProgression(12, 5, 7).generators(), ("--ap", "a=12,d=5,k=7"), "zeta(5)"),
    (ArithProgression(14, 3, 6).generators(), ("--ap", "a=14,d=3,k=6"), "-1"),
]


@pytest.mark.parametrize("method", ["auto", "apery", "closed-form", "oracle"])
@pytest.mark.parametrize("command", ["frobenius", "genus", "power-sum", "weighted-sum"])
@pytest.mark.parametrize(
    "gens, given, weight", _FRONT_END_INPUTS, ids=["gens", "general", "unity-d", "unity-a"]
)
def test_summarize_and_the_cli_agree(capsys, method, command, gens, given, weight):
    argv = [command, *given, "--method", method, "--format", "json"]
    if command in ("power-sum", "weighted-sum"):
        argv += ["--mu", "2"]
    if command == "weighted-sum":
        argv.append(f"--lambda={weight}")
    lam = LambdaSpec.parse(weight).element()
    try:
        summary = summarize(gens, power_mus=(2,), weight=lam, weighted_mus=(2,), method=method)
    except ValueError:
        assert method == "closed-form" and given[0] == "--gens"
        assert run_cli(capsys, *argv)[0] == 2
        return
    value, tag = {
        "frobenius": (str(summary.frobenius), summary.methods["frobenius"]),
        "genus": (str(summary.genus), summary.methods["genus"]),
        "power-sum": (str(summary.power_sums[2]), summary.methods["power_sum[2]"]),
        "weighted-sum": (summary.weighted_sums[2], summary.methods["weighted_sum[2]"]),
    }[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    if command == "weighted-sum":
        payload["value"] = element_from_json(payload["value"])
    assert (payload["value"], payload["method"]) == (value, tag)


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    with pytest.raises(SystemExit) as info:
        main(["weighted-sum", "--help"])
    assert info.value.code == 0


@pytest.mark.parametrize(
    "before, after",
    [
        (["verify", "--gens", "3,5", "--mu", "2"], ["verify", "--gens", "3,5"]),
        (
            ["weighted-sum", "--gens", "5,7", "--mu", "2", "--lambda", "-1/2", "--numeric"],
            ["weighted-sum", "--gens", "5,7", "--mu", "2", "--lambda", "-1/2"],
        ),
        (
            ["weighted-sum", "--gens", "5,7", "--mu", "2", "--numeric"],  # no --lambda
            ["weighted-sum", "--gens", "5,7", "--mu", "1", "--lambda", "2"],
        ),
    ],
    ids=["verify-mu", "numeric", "bad-argv"],
)
def test_the_cached_parser_keeps_no_state(capsys, before, after):
    cli.build_parser.cache_clear()  # as if `after` were the first call in the process
    expected = run_cli(capsys, *after)
    assert expected[0] == 0
    cli.build_parser.cache_clear()
    try:
        run_cli(capsys, *before)
    except SystemExit as exc:
        assert exc.code == 2
        capsys.readouterr()
    assert run_cli(capsys, *after) == expected
    assert cli.build_parser() is cli.build_parser()
    if before[0] == "verify":
        assert expected[1] == "verify OK (3 checks: frobenius, genus, apery-table)\n"


def test_verify_never_disagrees_on_random_inputs(capsys):
    cases = [
        ("--ap", "a=9,d=5,k=4", "--mu", "3"),
        ("--ap", "a=10,d=3,k=2", "--mu", "2", "--lambda", "-1"),
        ("--ap", "a=15,d=2,k=6", "--mu", "1", "--lambda", "zeta(5)"),
        ("--gens", "7,9,11,13", "--mu", "4"),
        ("--gens", "8,11,14,17", "--mu", "2", "--lambda", "root(3,2)"),
        ("--gens", "6,10,15", "--mu", "1", "--lambda", "elem(minpoly=[1,0,1];coeffs=[4,3])"),
    ]
    for case in cases:
        code, out, err = run_cli(capsys, "verify", *case)
        assert code == 0, (case, err)
        assert "verify OK" in out


@st.composite
def _verify_argv(draw):
    """A small generator set or progression, one or two exponents, and no
    weight or one from the panel."""
    if draw(st.booleans()):
        a = draw(st.integers(2, 24))
        d = draw(st.integers(1, 9).filter(lambda d: gcd(a, d) == 1))
        k = draw(st.integers(2, min(a, 6)))
        argv = ["verify", "--ap", f"a={a},d={d},k={k}"]
    else:
        a1 = draw(st.integers(1, 24))
        rest = draw(st.lists(st.integers(a1 + 1, 4 * a1 + 1), min_size=1, max_size=4))
        assume(gcd(a1, *rest) == 1)
        argv = ["verify", "--gens", ",".join(map(str, [a1, *rest]))]
    for mu in draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)):
        argv += ["--mu", str(mu)]
    weight = draw(st.sampled_from([None, *reference_weights()]))
    if weight is not None:
        argv.append(f"--lambda={weight}")
    return argv


@given(_verify_argv())
def test_verify_property(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, ""), argv
    assert out.getvalue().startswith("verify OK")


# every subcommand and option: small valid values, and malformed or
# out-of-range ones a sixth of the time; none is large enough to need a
# resource limit
_VALID = {
    "--gens": ["5,7", "6,10,15", "13,16,19,22,25", "14,17,21", "1,4", "7, 5,5"],
    "--ap": ["a=13,d=3,k=5", "a=7,d=2,k=2", "a=5, d=2, k=2", "a=2,d=1,k=2", "a=12,d=5,k=7"],
    "--mu": ["0", "1", "3", "5"],
    "--lambda": ["2", "-1/2", "-1", "1", "root(3,2)", "zeta(5)", "zeta(2)", "zeta(6)",
                 "elem(minpoly=[1,0,1];coeffs=[4,3])", "elem(minpoly=[-2,0,1];coeffs=[1/2,-1])",
                 HUGE_ROOT],
    "--method": ["auto", "apery", "closed-form", "oracle"],
    "--format": ["text", "json"],
    "--numeric": ["0", "1", "2"],
}
_INVALID = {
    "--gens": ["4,6", "0,3", "-5,7", "7", "", "5,x", "5,,7", "3.5,7"],
    "--ap": ["a=3,d=1,k=5", "a=6,d=3,k=3", "a=0,d=1,k=2", "a=5,d=0,k=2", "a=1,d=1,k=1",
             "a=13,k=5", "a=-5,d=2,k=2", "nonsense", ""],
    "--mu": ["-1", "x", "1.5", ""],
    "--lambda": ["0", "1/0", "3/-2", "root(0,2)", "root(2,-4)", "zeta(1)", "zeta(0)", "zeta(-3)",
                 "sqrt(2)", "4+3i", "elem(minpoly=[-1,0,1];coeffs=[0,1])", "elem(minpoly=[1];coeffs=[])",
                 "elem(minpoly=[1,0,1];coeffs=[1])", ""],
    "--method": ["bogus", ""],
    "--format": ["xml", ""],
    "--numeric": ["-1", "9", "x", ""],
}
_SUBCOMMANDS = ["apery", "frobenius", "genus", "gaps", "power-sum", "weighted-sum", "verify"]
_TAKES = {"power-sum": {"--mu"}, "weighted-sum": {"--mu", "--lambda", "--numeric"},
          "verify": {"--mu", "--lambda"}}


@st.composite
def _any_argv(draw):
    """A subcommand with --gens or --ap (now and then both or neither), and
    each further option mostly where the subcommand takes it and now and then
    where it does not: one to three --mu, --numeric bare or with a value."""
    command = draw(st.sampled_from(_SUBCOMMANDS))
    takes = _TAKES.get(command, set()) | {"--method", "--format"}
    argv = [command]

    def option(name):
        value = draw(st.sampled_from(_VALID[name] if draw(st.integers(0, 5)) else _INVALID[name]))
        argv.extend([f"{name}={value}"] if draw(st.booleans()) else [name, value])

    def present(name):
        return draw(st.integers(0, 7)) < (6 if name in takes else 1)

    for name in draw(st.sampled_from([["--gens"]] * 9 + [["--ap"]] * 9 + [["--gens", "--ap"], []])):
        option(name)
    for _ in range(draw(st.integers(1, 3)) if present("--mu") else 0):
        option("--mu")
    for name in ("--lambda", "--method", "--format", "--numeric"):
        if present(name):
            if name == "--numeric" and draw(st.booleans()):
                argv.append(name)
            else:
                option(name)
    return argv


@settings(max_examples=300)
@given(_any_argv())
@example(["weighted-sum", "--gens", "5,7", "--mu", "1", "--mu", "2", f"--lambda={HUGE_ROOT}",
          "--numeric"])
@example(["weighted-sum", "--gens", "5,7", "--mu", "1", "--lambda=-1/2", "--numeric", "9"])
def test_every_argv_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's refusals
            code = exc.code
    assert code in (0, 2, 3), argv
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    assert (out if code == 0 else err).getvalue().strip(), argv


# --- golden output: the README examples, byte for byte ----------------------

_ZETA5_JSON = """\
{
  "label": "s_2^(zeta(5))",
  "generators": [
    12,
    17,
    22,
    27,
    32,
    37,
    42
  ],
  "query": {
    "command": "weighted-sum",
    "mu": 2,
    "lambda": "zeta(5)"
  },
  "method": "ap-closed-form/unity-d",
  "value": {
    "ring": {
      "minpoly": [
        "1",
        "1",
        "1",
        "1",
        "1"
      ]
    },
    "coeffs": [
      "11996",
      "1838",
      "15894",
      "5607"
    ]
  },
  "display": "11996 + 1838*θ + 15894*θ^2 + 5607*θ^3",
  "numeric": {
    "re": -4830.701160394587,
    "im": 7794.588767283163
  }
}
"""

_CBRT2_JSON = """\
{
  "label": "s_2^(root(3,2))",
  "generators": [
    14,
    17,
    20,
    23,
    26,
    29
  ],
  "query": {
    "command": "weighted-sum",
    "mu": 2,
    "lambda": "root(3,2)"
  },
  "method": "ap-closed-form/general",
  "value": {
    "ring": {
      "minpoly": [
        "-2",
        "0",
        "0",
        "1"
      ]
    },
    "coeffs": [
      "21528522",
      "31320173525",
      "659369214"
    ]
  },
  "display": "21528522 + 31320173525*θ + 659369214*θ^2",
  "numeric": {
    "re": 40529157816.446655,
    "im": 0.0
  }
}
"""

GOLDEN = [
    (
        ["power-sum", "--ap", "a=13,d=3,k=5", "--mu", "1", "--mu", "7"],
        "s_1 = 894  (method: ap-closed-form)\ns_7 = 10815989768148  (method: ap-closed-form)\n",
    ),
    (
        ["weighted-sum", "--gens", "14,17,20,23,26,29", "--mu", "1", "--lambda", "-1"],
        "s_1^(-1) = -116  (method: ap-closed-form/unity-a)\n",
    ),
    (
        ["weighted-sum", "--ap", "a=12,d=5,k=7", "--mu", "2", "--lambda", "zeta(5)",
         "--format", "json", "--numeric"],
        _ZETA5_JSON,
    ),
    (
        ["verify", "--gens", "14,17,20,23,26,29", "--mu", "3", "--lambda", "root(3,2)"],
        "verify OK (4 checks: frobenius, genus, apery-table, s_3^(root(3,2)))\n",
    ),
    (
        ["weighted-sum", "--gens", "14,17,20,23,26,29", "--mu", "2", "--lambda", "root(3,2)",
         "--format", "json", "--numeric"],
        _CBRT2_JSON,
    ),
]


def _package_env() -> dict:
    src = str(Path(gapsums.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=src + (os.pathsep + path if path else ""),
        PYTHONIOENCODING="utf-8",
    )


@pytest.mark.parametrize("argv, stdout", GOLDEN, ids=[f"{argv[0]}-{i}" for i, (argv, _) in enumerate(GOLDEN)])
def test_readme_examples_are_byte_identical(argv, stdout):
    proc = subprocess.run(
        [sys.executable, "-m", "gapsums.cli", *argv],
        capture_output=True, env=_package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == stdout.encode("utf-8")


_GAUSS_PREVIEW = (
    ["weighted-sum", "--gens", "5,7", "--mu", "1", "--lambda", "elem(minpoly=[1,0,1];coeffs=[4,3])",
     "--numeric", "1"],
    "s_1^(elem(minpoly=[1,0,1];coeffs=[4,3])) = -168795257618002830 + 215976329595838590*θ"
    "  ≈ -1.68795257618e+17+2.15976329596e+17j  (method: ap-closed-form/general)\n",
)


@pytest.mark.parametrize("argv, stdout", [GOLDEN[4], _GAUSS_PREVIEW], ids=["root-3-2", "gauss-root-1"])
def test_previews_need_only_the_standard_library(argv, stdout):
    # mpmath made unimportable: the package imports, and a preview finds the
    # roots of its modulus with the standard library alone
    script = "import sys; sys.modules['mpmath'] = None; import gapsums, gapsums.cli; " \
             "sys.exit(gapsums.cli.main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, env=_package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    assert proc.stdout == stdout.encode("utf-8")


def test_import_leaves_mpmath_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gapsums, gapsums.cli; print('mpmath' in sys.modules)"],
        capture_output=True, env=_package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"
