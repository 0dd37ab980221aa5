"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import gapsums
from corpora import reference_weights
from gapsums import ArithProgression, Generators, LambdaSpec, summarize
from gapsums import arithprog, oracle, sylvester
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


def test_internal_route_disagreement_exits_3(capsys, monkeypatch):
    honest = sylvester._falling_factorial_moments

    def corrupted(exponents, top, lam):
        out = honest(exponents, top, lam)
        out[0] = out[0] + 1
        return out

    monkeypatch.setattr(sylvester, "_falling_factorial_moments", corrupted)
    code, out, err = run_cli(capsys, "weighted-sum", "--gens", "14,17,21", "--mu", "1", "--lambda", "7")
    assert code == 3
    assert not out
    assert err.startswith("internal fault: weighted moment routes disagree")
    assert "Traceback" not in err


def test_closed_form_requires_progression(capsys):
    code, _, err = run_cli(capsys, "genus", "--gens", "14,17,21", "--method", "closed-form")
    assert code == 2
    assert "arithmetic progression" in err


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


def test_verify_detects_injected_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(arithprog, "frobenius_ap", lambda ap: 10 ** 9)
    code, _, err = run_cli(capsys, "verify", "--ap", "a=13,d=3,k=5")
    assert code == 3
    assert "verify FAILED" in err
    assert "1000000000" in err


def test_verify_checks_the_oracle_residue_table(capsys, monkeypatch):
    honest = oracle._sieve

    def corrupted(gens):
        gaps, minima, bound = honest(gens)
        minima[1] += gens.modulus
        return gaps, minima, bound

    monkeypatch.setattr(oracle, "_sieve", corrupted)
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


def test_import_leaves_mpmath_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gapsums, gapsums.cli; print('mpmath' in sys.modules)"],
        capture_output=True, env=_package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == b"False\n"
