"""Run one benchmark workload against the package in ``src/`` and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the package is imported from ``src/``.  One
caller issues queries in a closed loop (the next query starts when the last
one returns) over the seeded corpus until ``--seconds`` have passed.  Every
result is then checked against :mod:`reference`, outside the timed region.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
Query times are scaled to a reference machine speed, measured by a fixed
pure-Python operation run after every query (see :func:`end_to_end`).

With ``--trace 1`` it holds the per-layer metrics: each query runs traced
and untraced in turn (the difference is the tracing overhead), then once
more under ``tracemalloc`` for the allocation peaks.  The spans are written
to ``bench/out/``.  The lines before the last one are a readable summary.
"""
from __future__ import annotations

import argparse
import heapq
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 7

REFERENCE_OP_S = 0.001  # nominal duration of one reference_op at reference speed

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_package():
    """Import ``gapsums`` from this checkout's ``src/``, or exit non-zero."""
    package = os.path.join(ROOT, "src", "gapsums")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.exit(f"error: {package} not found; run from a checkout of the repository")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gapsums

    if os.path.dirname(os.path.abspath(gapsums.__file__)) != package:
        sys.exit(f"error: imported gapsums from {gapsums.__file__}, not from {package}")
    return gapsums


def set_up(workload: str, seed: int):
    """Everything before the first timed query: import, corpus, cache warm-up."""
    load_package()
    import workloads

    if workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    corpus = workloads.build_corpus(workload, seed)
    calls = [workloads.prepare(workload, q) for q in corpus]
    workloads.warm_up()
    return corpus, calls, len(corpus) // workloads.WORKLOADS[workload].rounds


def run_one(call, tracer=None, query: int = 0):
    """Run one query; returns (latency, result or the exception it raised)."""
    if tracer is not None:
        tracer.query = query
        span = tracer.open("query")
    t0 = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a failed query is counted, not fatal
        result = exc
    t1 = time.perf_counter()
    if tracer is not None:
        tracer.close(span)
    return t1 - t0, result


def reference_op() -> int:
    """Fixed pure-Python work that does not touch the package: big-integer
    and Fraction arithmetic, a dict, and a heap of tuples.  Its timing
    tracks the speed of the machine."""
    x, acc, seen, heap = 1, Fraction(0), {}, []
    for i in range(1, 200):
        x = x * 3 + i
        acc += Fraction(i, i + 1)
        seen[i % 37] = seen.get(i % 37, 0) + x % 1000
        heapq.heappush(heap, (x % 9973, i))
    while heap:
        heapq.heappop(heap)
    return acc.numerator % 97 + sum(seen.values())


def timed_loop(calls, seconds: float, round_size: int = 1, tracer=None, calibrate: bool = False):
    """Run the corpus in order, cycling, until ``seconds`` have passed and a
    round of ``round_size`` queries (one from each cell) is complete, so every
    cell is counted equally however far the loop got.

    Returns (corpus index, latency, result) per query, the elapsed wall time,
    and, with ``calibrate``, the duration of one :func:`reference_op` run
    after each query.
    """
    records, reference = [], []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        index = i % len(calls)
        latency, result = run_one(calls[index], tracer, i)
        records.append((index, latency, result))
        if calibrate:
            t0 = time.perf_counter()
            reference_op()
            reference.append(time.perf_counter() - t0)
        i += 1
        if i % round_size == 0 and time.perf_counter() >= deadline:
            return records, time.perf_counter() - start, reference


def run_gate(gate, corpus, records) -> tuple[int, int, list[str]]:
    """Check every result, the pinned answers and the branch coverage;
    returns (attempted, failed, problems)."""
    import workloads

    problems = []
    failed = 0
    for index, _, result in records:
        query = corpus[index]
        if isinstance(result, Exception):
            found = [f"raised {result!r}"]
        else:
            found = gate.problems(query, result)
        if found:
            failed += 1
            problems.append(f"{query}: {'; '.join(found)}")
    attempted = len(records)
    for label, check in workloads.pinned_checks():
        attempted += 1
        try:
            ok = check()
        except Exception as exc:
            ok = False
            label += f" raised {exc!r}"
        if not ok:
            failed += 1
            problems.append(f"pinned check failed: {label}")
    attempted += 1
    coverage = gate.coverage_problems()
    if coverage:
        failed += 1
        problems.extend(coverage)
    return attempted, failed, problems


def slowdown(repeats: int = 20) -> float:
    """How much slower than reference speed the machine runs just now."""
    start = time.perf_counter()
    for _ in range(repeats):
        reference_op()
    return (time.perf_counter() - start) / repeats / REFERENCE_OP_S


def probe_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to the end of its
    set-up, each scaled to reference speed by a calibration just before."""
    samples = []
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        factor = slowdown()
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append((time.perf_counter() - start) / factor)
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"error: set-up probe failed ({line!r}, exit {child.returncode})")
    return statistics.median(samples)


def cache_misses() -> int:
    from gapsums import exact

    return sum(f.cache_info().misses for f in (exact.bernoulli, exact.stirling2, exact.eulerian))


def end_to_end(gate, seed: int, seconds: float, corpus, calls, round_size: int):
    """Closed-loop figures.  The speed of a shared machine drifts by tens of
    percent over minutes, alike for all code; so query times are scaled by
    REFERENCE_OP_S / (mean time of :func:`reference_op`, run after each
    query), i.e. reported at reference speed."""
    records, elapsed, reference = timed_loop(calls, seconds, round_size, calibrate=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, problems = run_gate(gate, corpus, records)
    factor = statistics.fmean(reference) / REFERENCE_OP_S
    latencies = [lat / factor for _, lat, _ in records]
    metrics = {
        "setup_s": probe_setup(gate.workload, seed),
        "queries_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
        "peak_rss_mb": peak_rss_mb,
    }
    distinct = len({index for index, _, _ in records})
    print(f"{len(records)} queries ({distinct} distinct) in {elapsed:.2f} s; latency percentiles "
          f"over {len(records)} samples; machine at 1/{factor:.3f} of reference speed, "
          f"raw latency p50 {metrics['latency_p50_ms'] * factor:.2f} ms")
    return attempted, failed, problems, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def per_layer(gate, seed: int, seconds: float, corpus, calls):
    """Two passes.  First each query runs twice, traced (spans and counters)
    and untraced, alternating which goes first, for 40% of the time; the
    untraced runs give the overhead.  Then spans with ``tracemalloc`` for the
    allocation peaks (25% of the time), which would distort the times."""
    import tracemalloc

    from tracing import UNITS, Tracer, layer_metrics

    tracer = Tracer()
    traced, replayed = [], []
    before = cache_misses()
    deadline = time.perf_counter() + 0.4 * seconds
    i = 0
    while time.perf_counter() < deadline:
        index = i % len(calls)
        for with_trace in (i % 2 == 0, i % 2 == 1):
            if with_trace:
                tracer.install()
                try:
                    traced.append((index, *run_one(calls[index], tracer, i)))
                finally:
                    tracer.remove()
            else:
                replayed.append((index, *run_one(calls[index])))
        i += 1
    misses = cache_misses() - before
    memory = Tracer(memory=True)
    memory.install()
    tracemalloc.start()
    try:
        allocating, _, _ = timed_loop(calls, 0.25 * seconds, tracer=memory)
    finally:
        tracemalloc.stop()
        memory.remove()
    attempted, failed, problems = run_gate(gate, corpus, traced + replayed + allocating)
    metrics = layer_metrics(tracer, memory.spans)
    metrics["exact.cache_misses"] = misses
    traced_wall = sum(lat for _, lat, _ in traced)
    metrics["trace.overhead_ratio"] = traced_wall / sum(lat for _, lat, _ in replayed) - 1
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    tracer.write(os.path.join(out, f"spans-{gate.workload}-{seed}.jsonl"))
    memory.write(os.path.join(out, f"memory-spans-{gate.workload}-{seed}.jsonl"))
    print(f"{len(traced)} traced queries, {len(tracer.spans)} spans; "
          f"{len(allocating)} queries under tracemalloc; shares of traced wall:")
    for name in sorted(metrics, key=lambda n: -metrics[n]):
        if UNITS[name][0] == "s/query" and name != "trace.wall_s" and metrics[name]:
            print(f"  {name:36s} {metrics[name] / metrics['trace.wall_s']:7.1%}")
    return attempted, failed, problems, {k: (metrics[k], UNITS[k][0]) for k in UNITS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    corpus, calls, round_size = set_up(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    import workloads

    gate = workloads.Gate(args.workload)
    if args.trace:
        attempted, failed, problems, metrics = per_layer(gate, args.seed, args.seconds, corpus, calls)
    else:
        attempted, failed, problems, metrics = end_to_end(
            gate, args.seed, args.seconds, corpus, calls, round_size
        )
    print(f"workload {args.workload}, seed {args.seed}: failed {failed}/{attempted} "
          f"(failed_ratio {failed / attempted:.4f})")
    if gate.branches:
        print("branch coverage:", ", ".join(f"{b}={n}" for b, n in sorted(gate.branches.items())),
              "| ring degrees:", ", ".join(f"{d}={n}" for d, n in sorted(gate.degrees.items())))
    for line in problems[:20]:
        print("FAIL", line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
