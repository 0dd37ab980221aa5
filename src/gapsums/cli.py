"""Command-line front end.

Subcommands: apery, frobenius, genus, power-sum, weighted-sum, gaps, verify.
Input is either --gens (explicit generators) or --ap (a=..,d=..,k=..); the
method is chosen automatically (closed form when the input is an arithmetic
progression, else the residue-table engine) unless forced with --method.

Exit codes: 0 success; 2 invalid input, including a weight ring whose modulus
turns out reducible where an inverse is needed; 3 a disagreement between
evaluation paths (`verify`) or between the internal cross-checked routes.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import arithprog, oracle, sylvester
from .apery import (
    AperyTable,
    ArithProgression,
    Generators,
    apery_arith,
    apery_general,
    as_arith_progression,
)
from .numberfield import (
    Embedding,
    LambdaSpec,
    ReducibleModulusError,
    RingElement,
    element_to_json,
    numeric_eval,
)

__all__ = ["console_main", "main"]


def _parse_gens(text: str) -> Generators:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad generator list {text!r}") from exc
    return Generators(values)


def _parse_ap(text: str) -> ArithProgression:
    compact = re.sub(r"\s+", "", text)
    m = re.fullmatch(r"a=(\d+),d=(\d+),k=(\d+)", compact)
    if not m:
        raise ValueError(f"bad progression spec {text!r} (expected a=..,d=..,k=..)")
    return ArithProgression(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapsums",
        description="Exact Frobenius numbers, gap counts, and (weighted) power sums "
        "over the gaps of a numerical semigroup.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    group = common.add_mutually_exclusive_group(required=True)
    group.add_argument("--gens", help="comma-separated generators, e.g. 13,16,19,22,25")
    group.add_argument("--ap", help="arithmetic progression, e.g. a=13,d=3,k=5")
    common.add_argument(
        "--method",
        choices=["auto", "apery", "closed-form", "oracle"],
        default="auto",
        help="evaluation path (default: auto)",
    )
    common.add_argument("--format", choices=["text", "json"], default="text")

    mu_arg = dict(type=int, action="append", required=True, help="exponent (repeatable)")

    sub.add_parser("apery", parents=[common], help="the table of least representatives per residue")
    sub.add_parser("frobenius", parents=[common], help="largest nonrepresentable integer")
    sub.add_parser("genus", parents=[common], help="number of nonrepresentable integers")
    sub.add_parser("gaps", parents=[common], help="list the nonrepresentable integers")

    p = sub.add_parser("power-sum", parents=[common], help="sum of mu-th powers of the gaps")
    p.add_argument("--mu", **mu_arg)

    p = sub.add_parser("weighted-sum", parents=[common], help="sum of w^n * n^mu over the gaps")
    p.add_argument("--mu", **mu_arg)
    p.add_argument("--lambda", dest="weight", required=True, help="weight spec (see README)")
    p.add_argument(
        "--numeric",
        nargs="?",
        const="auto",
        default=None,
        metavar="ROOT",
        help="append a decimal preview; optional root index overrides the embedding",
    )

    p = sub.add_parser("verify", parents=[common], help="run every applicable method and compare")
    p.add_argument("--mu", type=int, action="append", default=None)
    p.add_argument("--lambda", dest="weight", default=None)

    # let bare negative rationals ride along as option values (--lambda -1/2)
    matcher = re.compile(r"^-\d+(?:/\d+)?$")
    for action in sub.choices.values():
        action._negative_number_matcher = matcher
    return parser


def _resolve_input(args) -> tuple[Generators, ArithProgression | None]:
    if args.ap is not None:
        ap = _parse_ap(args.ap)
        return ap.generators(), ap
    gens = _parse_gens(args.gens)
    return gens, as_arith_progression(gens)


def _pick_method(args, ap: ArithProgression | None) -> str:
    if args.method == "auto":
        return "closed-form" if ap is not None else "apery"
    if args.method == "closed-form" and ap is None:
        raise ValueError("--method closed-form needs generators in arithmetic progression")
    return args.method


def _numeric_embedding(args, spec: LambdaSpec | None) -> Embedding:
    if args.numeric != "auto":
        return Embedding.at_index(int(args.numeric))
    return spec.embedding() if spec is not None else Embedding.at_index(0)


def _numeric_json(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


class _Runner:
    def __init__(self, args):
        self.args = args
        self.gens, self.ap = _resolve_input(args)
        self.method = _pick_method(args, self.ap)
        self._table: AperyTable | None = None
        self._gapset: oracle.GapSet | None = None

    @property
    def table(self) -> AperyTable:
        if self._table is None:
            self._table = apery_general(self.gens)
        return self._table

    @property
    def gapset(self) -> oracle.GapSet:
        if self._gapset is None:
            self._gapset = oracle.gap_set(self.gens)
        return self._gapset

    # --- scalar queries -------------------------------------------------

    def frobenius(self) -> tuple[int, str]:
        if self.method == "closed-form":
            return arithprog.frobenius_ap(self.ap), "ap-closed-form"
        if self.method == "oracle":
            return max(self.gapset.gaps, default=-1), "oracle"
        return sylvester.frobenius(self.table), "general-apery"

    def genus(self) -> tuple[int, str]:
        if self.method == "closed-form":
            return arithprog.genus_ap(self.ap), "ap-closed-form"
        if self.method == "oracle":
            return len(self.gapset.gaps), "oracle"
        return sylvester.genus(self.table), "general-apery"

    def power_sum(self, mu: int) -> tuple[int, str]:
        if self.method == "closed-form":
            return arithprog.power_sum_ap(self.ap, mu), "ap-closed-form"
        if self.method == "oracle":
            return oracle.power_sum(self.gapset, mu), "oracle"
        return sylvester.power_sum(self.table, mu), "general-apery"

    def weighted_sum(self, mu: int, lam: RingElement) -> tuple[RingElement, str]:
        if self.method == "closed-form":
            value, branch = arithprog.weighted_sum_ap(self.ap, mu, lam)
            return value, f"ap-closed-form/{branch}"
        if self.method == "oracle":
            return oracle.weighted_sum(self.gapset, mu, lam), "oracle"
        value, branch = sylvester.weighted_sum(self.gens, mu, lam)
        return value, f"general-apery/{branch}"

    def apery_table(self) -> tuple[list[int], str]:
        if self.method == "closed-form":
            return list(apery_arith(self.ap).m), "ap-closed-form"
        if self.method == "oracle":
            return list(oracle.apery_minima(self.gens)), "oracle"
        return list(self.table.m), "general-apery"


def _emit(args, results: list[dict]) -> None:
    if args.format == "json":
        payload = results[0] if len(results) == 1 else results
        print(json.dumps(payload, indent=2, ensure_ascii=False))
        return
    for r in results:
        value = r["value"]
        if isinstance(value, list):
            text = ", ".join(str(v) for v in value)
        else:
            text = r.get("display", str(value))
        line = f"{r['label']} = {text}"
        if "numeric" in r:
            n = r["numeric"]
            line += f"  ≈ {n['re']:.12g}{n['im']:+.12g}j"
        line += f"  (method: {r['method']})"
        print(line)


def _result(label: str, gens: Generators, query: dict, value, method: str) -> dict:
    return {
        "label": label,
        "generators": list(gens.values),
        "query": query,
        "method": method,
        "value": value,
    }


def _run(args) -> int:
    runner = _Runner(args)
    gens = runner.gens
    command = args.command

    if command in ("frobenius", "genus"):
        value, method = runner.frobenius() if command == "frobenius" else runner.genus()
        results = [_result(command, gens, {"command": command}, str(value), method)]
        _emit(args, results)
        return 0

    if command == "apery":
        table, method = runner.apery_table()
        results = [_result("apery", gens, {"command": "apery"}, table, method)]
        _emit(args, results)
        return 0

    if command == "gaps":
        gs = runner.gapset
        results = [_result("gaps", gens, {"command": "gaps"}, list(gs.gaps), "oracle")]
        _emit(args, results)
        return 0

    if command == "power-sum":
        results = []
        for mu in sorted(set(args.mu)):
            if mu < 0:
                raise ValueError("--mu must be nonnegative")
            value, method = runner.power_sum(mu)
            results.append(
                _result(f"s_{mu}", gens, {"command": "power-sum", "mu": mu}, str(value), method)
            )
        _emit(args, results)
        return 0

    if command == "weighted-sum":
        return _run_weighted(args, runner)

    if command == "verify":
        return _run_verify(args, runner)

    raise AssertionError(f"unhandled command {command}")  # pragma: no cover


def _run_weighted(args, runner: _Runner) -> int:
    spec = LambdaSpec.parse(args.weight)
    lam = spec.element()
    if lam == lam.ring.one:  # unreachable: parse rejects 1, but keep the guard honest
        raise ValueError("weight 1 is not allowed")
    results = []
    for mu in sorted(set(args.mu)):
        if mu < 1:
            raise ValueError("--mu must be positive for weighted sums")
        value, method = runner.weighted_sum(mu, lam)
        entry = _result(
            f"s_{mu}^({spec})",
            runner.gens,
            {"command": "weighted-sum", "mu": mu, "lambda": str(spec)},
            element_to_json(value),
            method,
        )
        entry["display"] = str(value)
        if args.numeric is not None:
            entry["numeric"] = _numeric_json(numeric_eval(value, _numeric_embedding(args, spec)))
        results.append(entry)
    _emit(args, results)
    return 0


def _run_verify(args, runner: _Runner) -> int:
    """Compute every query by all applicable methods; report any disagreement."""
    gens = runner.gens
    ap = runner.ap
    table = runner.table
    gapset = runner.gapset
    checks: list[tuple[str, list[tuple[str, object]]]] = []

    candidates: list[tuple[str, object]] = [
        ("general-apery", sylvester.frobenius(table)),
        ("oracle", max(gapset.gaps, default=-1)),
    ]
    if ap is not None:
        candidates.append(("ap-closed-form", arithprog.frobenius_ap(ap)))
    checks.append(("frobenius", candidates))

    candidates = [
        ("general-apery", sylvester.genus(table)),
        ("oracle", len(gapset.gaps)),
    ]
    if ap is not None:
        candidates.append(("ap-closed-form", arithprog.genus_ap(ap)))
    checks.append(("genus", candidates))

    if ap is not None:
        checks.append(
            ("apery-table", [("general-apery", tuple(table.m)), ("ap-closed-form", apery_arith(ap).m)])
        )

    for mu in sorted(set(args.mu or ())):
        if args.weight is None:
            candidates = [
                ("general-apery", sylvester.power_sum(table, mu)),
                ("oracle", oracle.power_sum(gapset, mu)),
            ]
            if ap is not None:
                candidates.append(("ap-closed-form", arithprog.power_sum_ap(ap, mu)))
            checks.append((f"s_{mu}", candidates))
        else:
            spec = LambdaSpec.parse(args.weight)
            lam = spec.element()
            value, branch = sylvester.weighted_sum(gens, mu, lam)
            candidates = [
                (f"general-apery/{branch}", value),
                ("oracle", oracle.weighted_sum(gapset, mu, lam)),
            ]
            if ap is not None:
                ap_value, ap_branch = arithprog.weighted_sum_ap(ap, mu, lam)
                candidates.append((f"ap-closed-form/{ap_branch}", ap_value))
            checks.append((f"s_{mu}^({spec})", candidates))

    failures = []
    for label, candidates in checks:
        reference_method, reference = candidates[0]
        for method, value in candidates[1:]:
            if value != reference:
                failures.append((label, reference_method, reference, method, value))

    if failures:
        for label, m0, v0, m1, v1 in failures:
            print(f"verify FAILED for {label}:", file=sys.stderr)
            print(f"  {m0}: {v0}", file=sys.stderr)
            print(f"  {m1}: {v1}", file=sys.stderr)
        return 3

    summary = ", ".join(label for label, _ in checks)
    print(f"verify OK ({len(checks)} checks: {summary})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # weight 1 degenerates to the unweighted power sum; remap with a notice
    if args.command == "weighted-sum" and _is_unit_weight(args.weight):
        print(
            "notice: weight 1 gives the unweighted power sum; computing power-sum instead",
            file=sys.stderr,
        )
        args.command = "power-sum"
        args.weight = None
    try:
        return _run(args)
    except (ValueError, ZeroDivisionError, ReducibleModulusError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a cross-checked internal route disagreed
        print(f"internal fault: {exc}", file=sys.stderr)
        return 3


def _is_unit_weight(text: str | None) -> bool:
    if text is None:
        return False
    compact = re.sub(r"\s+", "", text)
    if re.fullmatch(r"[+-]?\d+(?:/\d+)?", compact):
        try:
            return Fraction(compact) == 1
        except (ValueError, ZeroDivisionError):
            return False
    return False


def console_main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
