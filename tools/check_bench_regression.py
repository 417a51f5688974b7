#!/usr/bin/env python3
"""CI perf-smoke gate: compare a fresh bench run against committed baselines.

Inputs:
  * a google-benchmark JSON file (``--bench-json``), compared per-benchmark
    against the ``micro_matching.real_time_ns`` table of the baseline;
  * a metrics sidecar JSON (``--stream-metrics``) from
    ``stream_throughput --metrics-json=...``, whose ``stream.throughput_qps``
    gauge must clear the baseline's ``gate_min_matching_qps`` floor;
  * a metrics sidecar JSON (``--router-metrics``) from
    ``stream_throughput --admission=coalesce --metrics-json=...``, whose
    ``router.overload.*`` gauges must satisfy the baseline's
    ``router_overload`` gates.  These response times are virtual/model
    milliseconds — deterministic for a fixed seed — so unlike the wall-clock
    gates no noise tolerance is applied.
  * a metrics sidecar JSON (``--parallel-metrics``) from
    ``fig10_parallel_speedup --metrics-json=...``, which must show the
    Section V Hong & He engine actually ran (``parallel.resumes`` and
    ``parallel.pushes`` counters > 0) on pooled shells
    (``workspace.rebuilds`` <= 2: one sequential, one parallel).

CI runners are noisy shared machines, so the timing comparison is
deliberately generous: a benchmark only fails when it is more than
``--tolerance`` (default 2.0) times slower than the committed number.
Genuine algorithmic regressions (accidentally falling off the
zero-allocation path, a kernel devolving to per-query rebuilds) show up as
3-10x slowdowns and trip the gate; scheduler jitter does not.

Exit status: 0 = within tolerance, 1 = regression or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        sys.exit(f"check_bench_regression: cannot read {path}: {exc}")


def check_bench_times(baseline: dict, bench_path: str, tolerance: float):
    """Compare fresh google-benchmark real_time against the baseline table."""
    table = baseline.get("micro_matching", {}).get("real_time_ns", {})
    if not table:
        sys.exit("baseline has no micro_matching.real_time_ns table")
    fresh = {
        b["name"]: float(b["real_time"])
        for b in load_json(bench_path).get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    }
    failures = []
    for name, base_ns in table.items():
        got = fresh.get(name)
        if got is None:
            # A benchmark that vanished is itself a regression: the gate
            # would silently stop covering it.
            failures.append(f"{name}: missing from {bench_path}")
            continue
        limit = tolerance * float(base_ns)
        verdict = "ok" if got <= limit else "REGRESSED"
        print(f"{name:55s} base={base_ns:>12.0f}ns "
              f"now={got:>12.0f}ns limit={limit:>12.0f}ns {verdict}")
        if got > limit:
            failures.append(
                f"{name}: {got:.0f}ns > {tolerance:g}x baseline "
                f"({base_ns:.0f}ns)")
    return failures


def check_stream_metrics(baseline: dict, metrics_path: str):
    """The stream run must sustain the baseline's QPS floor."""
    floor = baseline.get("stream_throughput", {}).get(
        "gate_min_matching_qps")
    if floor is None:
        sys.exit("baseline has no stream_throughput.gate_min_matching_qps")
    metrics = load_json(metrics_path)
    qps = metrics.get("gauges", {}).get("stream.throughput_qps")
    if qps is None:
        return ["stream.throughput_qps gauge not published in "
                f"{metrics_path}"]
    print(f"stream.throughput_qps = {qps:.0f} (floor {floor})")
    if qps < floor:
        return [f"stream throughput regressed: {qps:.0f} qps < {floor}"]
    return []


def check_router_metrics(baseline: dict, metrics_path: str):
    """The admission-controlled overload run must keep p99 bounded."""
    gates = baseline.get("router_overload", {})
    max_p99 = gates.get("gate_max_coalesce_p99_ms")
    min_ratio = gates.get("gate_min_off_over_coalesce_p99_ratio")
    if max_p99 is None or min_ratio is None:
        sys.exit("baseline has no router_overload gates "
                 "(gate_max_coalesce_p99_ms / "
                 "gate_min_off_over_coalesce_p99_ratio)")
    gauges = load_json(metrics_path).get("gauges", {})
    off_p99 = gauges.get("router.overload.off_p99_ms")
    coalesce_p99 = gauges.get("router.overload.coalesce_p99_ms")
    failures = []
    if off_p99 is None or coalesce_p99 is None:
        return [f"router.overload.*_p99_ms gauges not published in "
                f"{metrics_path} (run stream_throughput with "
                f"--admission=coalesce)"]
    ratio = off_p99 / coalesce_p99 if coalesce_p99 > 0 else float("inf")
    print(f"router.overload.off_p99_ms      = {off_p99:.1f}")
    print(f"router.overload.coalesce_p99_ms = {coalesce_p99:.1f} "
          f"(gate <= {max_p99})")
    print(f"off/coalesce p99 ratio          = {ratio:.1f}x "
          f"(gate >= {min_ratio}x)")
    if coalesce_p99 > max_p99:
        failures.append(
            f"coalesce p99 not bounded: {coalesce_p99:.1f} ms > "
            f"{max_p99} ms")
    if ratio < min_ratio:
        failures.append(
            f"admission control lost its edge: off/coalesce p99 ratio "
            f"{ratio:.1f}x < {min_ratio}x")
    return failures


def check_parallel_metrics(metrics_path: str):
    """The fig10 run must have exercised the Hong & He engine, and its
    alternating sequential and parallel solves must have kept one pooled
    shell each instead of rebuilding the engine per query."""
    counters = load_json(metrics_path).get("counters", {})
    failures = []
    for name in ("parallel.resumes", "parallel.pushes"):
        value = counters.get(name, 0)
        print(f"{name} = {value}")
        if not value:
            failures.append(
                f"{name} counter is {value} in {metrics_path}: the Hong & He "
                f"engine never ran")
    rebuilds = counters.get("workspace.rebuilds", 0)
    print(f"workspace.rebuilds = {rebuilds}")
    if rebuilds > 2:
        failures.append(
            f"workspace.rebuilds is {rebuilds} > 2 in {metrics_path}: solver "
            f"shells were rebuilt between queries")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="BENCH_matching.json",
                        help="committed baseline JSON")
    parser.add_argument("--bench-json",
                        help="fresh google-benchmark JSON output")
    parser.add_argument("--stream-metrics",
                        help="fresh stream_throughput metrics sidecar")
    parser.add_argument("--router-metrics",
                        help="metrics sidecar from an --admission=coalesce "
                             "overload run")
    parser.add_argument("--parallel-metrics",
                        help="fig10_parallel_speedup metrics sidecar")
    parser.add_argument("--tolerance", type=float, default=2.0,
                        help="slowdown factor that fails the gate")
    args = parser.parse_args()
    if not (args.bench_json or args.stream_metrics or args.router_metrics
            or args.parallel_metrics):
        parser.error("nothing to check: pass --bench-json, "
                     "--stream-metrics, --router-metrics, "
                     "and/or --parallel-metrics")

    baseline = load_json(args.baseline)
    failures = []
    if args.bench_json:
        failures += check_bench_times(baseline, args.bench_json,
                                      args.tolerance)
    if args.stream_metrics:
        failures += check_stream_metrics(baseline, args.stream_metrics)
    if args.router_metrics:
        failures += check_router_metrics(baseline, args.router_metrics)
    if args.parallel_metrics:
        failures += check_parallel_metrics(args.parallel_metrics)

    if failures:
        print("\nPERF REGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
