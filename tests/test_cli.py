"""End-to-end tests of the command-line interface."""
from __future__ import annotations

import json

import pytest

from gapsums import LambdaSpec
from gapsums import arithprog, sylvester
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


def test_verify_detects_injected_disagreement(capsys, monkeypatch):
    monkeypatch.setattr(arithprog, "frobenius_ap", lambda ap: 10 ** 9)
    code, _, err = run_cli(capsys, "verify", "--ap", "a=13,d=3,k=5")
    assert code == 3
    assert "verify FAILED" in err
    assert "1000000000" in err


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
