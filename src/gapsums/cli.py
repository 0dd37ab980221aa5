"""Command-line front end.

Subcommands: apery, frobenius, genus, power-sum, weighted-sum, gaps, verify.
Input is either --gens (explicit generators) or --ap (a=..,d=..,k=..); the
method is chosen automatically (closed form when the input is an arithmetic
progression, else the residue-table engine) unless forced with --method, by
the same rule as ``summarize`` (:func:`gapsums.paths.choose`).

``verify`` evaluates every label along every applicable path (the table, the
oracle, and the closed form on progressions) and compares each value with the
table path's, the reference.  The labels are frobenius, genus, apery-table
(progressions only) and one per --mu.

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

from . import oracle, paths
from .apery import ArithProgression, Generators, as_arith_progression
# bench/tracing.py wraps cli.apery_general and cli.apery_arith, so the names stay importable
from .apery import apery_arith, apery_general  # noqa: F401
from .numberfield import (
    Embedding,
    LambdaSpec,
    ReducibleModulusError,
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


def _numeric_embedding(args, spec: LambdaSpec | None) -> Embedding:
    if args.numeric != "auto":
        return Embedding.at_index(int(args.numeric))
    return spec.embedding() if spec is not None else Embedding.at_index(0)


def _numeric_json(value: complex) -> dict:
    return {"re": value.real, "im": value.imag}


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
    gens = _parse_ap(args.ap).generators() if args.ap is not None else _parse_gens(args.gens)
    path = paths.choose(gens, args.method)
    command = args.command
    if command == "weighted-sum":
        return _run_weighted(args, gens, path)
    if command == "verify":
        return _run_verify(args, gens)
    query = {"command": command}
    if command == "power-sum":
        results = [
            _result(f"s_{mu}", gens, {**query, "mu": mu}, str(path.power_sum(mu)), path.tag)
            for mu in sorted(set(args.mu))
        ]
    elif command == "gaps":
        results = [_result(command, gens, query, list(oracle.gap_set(gens).gaps), "oracle")]
    elif command == "apery":
        results = [_result(command, gens, query, list(path.apery()), path.tag)]
    else:  # frobenius, genus
        results = [_result(command, gens, query, str(getattr(path, command)()), path.tag)]
    _emit(args, results)
    return 0


def _run_weighted(args, gens: Generators, path) -> int:
    spec = LambdaSpec.parse(args.weight)
    values, method = path.weighted_sums(args.mu, spec.element())
    results = []
    for mu, value in values.items():
        entry = _result(
            f"s_{mu}^({spec})",
            gens,
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


def _run_verify(args, gens: Generators) -> int:
    """Evaluate every label along every applicable path and compare each
    value with the table path's, the first; report any disagreement."""
    every = paths.applicable(gens)
    labels = [("frobenius", lambda p: p.frobenius()), ("genus", lambda p: p.genus())]
    if as_arith_progression(gens) is not None:
        labels.append(("apery-table", lambda p: p.apery()))
    checks = [(label, [(p.tag, value(p)) for p in every]) for label, value in labels]
    mus = sorted(set(args.mu or ()))
    if args.weight is None:
        checks += [(f"s_{mu}", [(p.tag, p.power_sum(mu)) for p in every]) for mu in mus]
    elif mus:
        spec = LambdaSpec.parse(args.weight)
        lam = spec.element()
        sums = [p.weighted_sums(mus, lam) for p in every]
        checks += [(f"s_{mu}^({spec})", [(tag, values[mu]) for values, tag in sums]) for mu in mus]

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
