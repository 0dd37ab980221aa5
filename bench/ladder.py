"""One-shot size ladder: the orientation table of ROADMAP.md, measured.

    python3 bench/ladder.py

Run it from the repository root.  It is a report, not a workload, and takes
a few minutes.  Each case runs in a fresh child process whose address space
is capped at 2 GiB with ``RLIMIT_AS``, so a case that would need more memory
ends in ``MemoryError`` (reported as a refusal) instead of calling the
kernel's out-of-memory killer.  The table is written to ``bench/ladder.json``
and printed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIMIT = 2 * 2**30  # address-space cap per case, in bytes
TIMEOUT = 600  # seconds per case

CASES = [
    "weighted_sum(gens=1001,1008,1014, mu=3, lambda=2)",
    "weighted_sum(gens=3001,3008,3014, mu=3, lambda=2)",
    "apery_general(AP a=200001, d=7, k=2001)",
    "power_sum_ap(AP a=20001, d=7, k=2, mu=8)",
    "weighted_sum_ap(AP a=20001, d=7, k=2, mu=1, lambda=2)",
]


def run_case(index: int):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from gapsums import apery_general, power_sum_ap, weighted_sum, weighted_sum_ap
    from gapsums.apery import ArithProgression, Generators

    if index == 0:
        return weighted_sum(Generators([1001, 1008, 1014]), 3, 2).branch
    if index == 1:
        return weighted_sum(Generators([3001, 3008, 3014]), 3, 2).branch
    if index == 2:
        table = apery_general(ArithProgression(200001, 7, 2001).generators())
        return f"max m = {max(table.m)}"
    if index == 3:
        return f"{power_sum_ap(ArithProgression(20001, 7, 2), 8).bit_length()} bits"
    return weighted_sum_ap(ArithProgression(20001, 7, 2), 1, 2).branch


def child(index: int) -> None:
    resource.setrlimit(resource.RLIMIT_AS, (LIMIT, LIMIT))
    start = time.perf_counter()
    try:
        detail = run_case(index)
        outcome = "ok"
    except MemoryError:
        detail, outcome = f"address space capped at {LIMIT / 2**30:g} GiB", "refused: MemoryError"
    seconds = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"outcome": outcome, "seconds": seconds, "peak_rss_mb": peak, "detail": detail}))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.case is not None:
        child(args.case)
        return 0

    rows = []
    for index, name in enumerate(CASES):
        argv = [sys.executable, os.path.abspath(__file__), "--case", str(index)]
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                row = json.loads(lines[-1])
            else:
                tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
                row = {"outcome": f"failed: exit {proc.returncode}", "detail": tail[0]}
        except subprocess.TimeoutExpired:
            row = {"outcome": f"timeout after {TIMEOUT} s"}
        row = {"case": name, **row}
        rows.append(row)
        print(json.dumps(row), flush=True)
    report = {
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "address_space_limit_gb": LIMIT / 2**30,
        "cases": rows,
    }
    with open(os.path.join(HERE, "ladder.json"), "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
