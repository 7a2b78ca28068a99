#!/usr/bin/env python3
"""matchlab benchmark: one workload per run, as a closed loop with one client
in a single process.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a matchlab checkout; matchlab is imported from `src/`.
The run builds the workload's inputs repeatedly (import included) and
reports the median as `setup_s`.  After WARMUP_PASSES untimed passes it
repeats full passes over the inputs until `--seconds` have passed, and at
least MIN_PASSES times, checking every pass's outputs.

With `--trace 0` it prints the end-to-end metrics.  With `--trace 1` it
alternates untraced and traced passes, prints the per-layer metrics of the
traced ones with the tracing overhead against the untraced ones, and writes
the first traced pass's spans to `.perfbench/spans-<workload>.csv`.  Each
metric is printed on its own line, then one JSON object as the last line of
standard output.

Exit status: 0 after a run, 1 if a pass raised, 2 if the inputs cannot be
built, e.g. without a matchlab source tree (nothing is printed on standard
output then).
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import math
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Failure, SetupError, load_matchlab, source_dir  # noqa: E402

# Set-up is repeated at least SETUP_REPS times and for SETUP_MIN_SECONDS,
# so a fast set-up (certify's is ~10 ms) still gets a steady median.
SETUP_REPS = 5
SETUP_MIN_SECONDS = 1.0
# The first pass in a process runs measurably slower (allocator and
# interpreter warm-up); it is checked but not timed.
WARMUP_PASSES = 1
MIN_PASSES = 3
# unit_tail_ms is the highest of these percentiles that leaves at least ten
# samples beyond it in MIN_PASSES passes, so it is fixed per workload.  The
# list stops at p99: on census, p99.9 falls among the pairs that absorb one
# of the ~270 generation-1 collections of a pass, and moves by +-15% between
# passes of one process.
TAIL_PERCENTILES = (50, 90, 95, 99)
OUT_DIR = os.path.join(ROOT, ".perfbench")

# (metric, unit), in output order: END_TO_END with --trace 0, PER_LAYER
# with --trace 1
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("units_per_s", "1/s"),
    ("matchings_per_s", "1/s"),
    ("unit_p50_ms", "ms"),
    ("unit_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "ratio"),
)
PER_LAYER = (
    ("groups.add.calls", "count"),
    ("groups.units.calls", "count"),
    ("matching.matching_exists.calls", "count"),
    ("matching.matching_exists.self_s", "s"),
    ("matching.iter_valid_pairs.pairs", "count"),
    ("matching.orbit_hit_ratio", "ratio"),
    ("matching.verify_group_amp.self_s", "s"),
    ("matching.enumerate_matchings.self_s", "s"),
    ("matching.acyclicity_report.self_s", "s"),
    ("matching.matchings", "count"),
    ("matching.multiplicity.calls", "count"),
    ("matching.classes", "count"),
    ("matching.witness_ratio", "ratio"),
    ("genfun.mul.calls", "count"),
    ("genfun.mul.term_products", "count"),
    ("genfun.mul.self_s", "s"),
    ("genfun.transfer_genfun.self_s", "s"),
    ("genfun.closed_form.self_s", "s"),
    ("genfun.brute_genfun.self_s", "s"),
    ("genfun.coeff_bits_max", "bits"),
    ("certify.certify_coprime6.self_s", "s"),
    ("certify.nonprime_counterexample.self_s", "s"),
    ("certify.classify.self_s", "s"),
    ("certify.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("cli.exit_codes.0", "count"),
    ("cli.exit_codes.1", "count"),
    ("cli.exit_codes.2", "count"),
    ("cli.exit_codes.3", "count"),
    ("trace.spans", "count"),
    ("trace.overhead", "ratio"),
)


def tail_percentile(units_per_pass: int) -> float:
    samples = units_per_pass * MIN_PASSES
    return max(q for q in TAIL_PERCENTILES if samples * (100 - q) / 100 >= 10
               or q == TAIL_PERCENTILES[0])


def pass_seconds(passes) -> float:
    """Time of one pass spent in calls into matchlab: the sum over timed
    calls of each call's median over the passes.  A burst of load from
    outside the process slows a few calls of one pass, and the per-call
    median discards it where a median of whole-pass times would not."""
    return sum(
        statistics.median(times)
        for times in itertools.chain(zip(*(p.unit_s for p in passes)),
                                     zip(*(p.extra_s for p in passes)))
    )


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def set_up(workload_cls, seed: int):
    """Import matchlab and build the inputs repeatedly; return the last
    workload and the median set-up time."""
    times, wl = [], None
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_SECONDS:
        wl = None
        gc.collect()
        t0 = perf_counter()
        wl = workload_cls(load_matchlab(ROOT), seed)
        times.append(perf_counter() - t0)
    return wl, statistics.median(times)


def per_layer_metrics(tracers: list[Tracer], untraced, traced) -> dict:
    """Counts come from the first traced pass (they repeat exactly); self
    times are medians over the traced passes."""
    c = tracers[0].counts
    values = {
        "groups.add.calls": c["groups.add"],
        "groups.units.calls": c["groups.units"],
        "matching.matching_exists.calls": c["matching.matching_exists"],
        "matching.iter_valid_pairs.pairs": c["matching.iter_valid_pairs.pairs"],
        "matching.orbit_hit_ratio": (
            1 - c["orbit.reports"] / c["orbit.pairs_checked"] if c["orbit.pairs_checked"] else 0.0
        ),
        "matching.matchings": c["matching.matchings"],
        "matching.multiplicity.calls": c["matching.multiplicity"],
        "matching.classes": c["matching.classes"],
        "matching.witness_ratio": (
            c["matching.singleton_classes"] / c["matching.classes"] if c["matching.classes"] else 0.0
        ),
        "genfun.mul.calls": c["genfun.mul"],
        "genfun.mul.term_products": c["genfun.mul.term_products"],
        "genfun.coeff_bits_max": tracers[0].coeff_bits_max,
        "certify.bytes": traced[0].work.get("certify.bytes", 0),
        "trace.spans": len(tracers[0].spans),
        "trace.overhead": pass_seconds(traced) / pass_seconds(untraced) - 1,
    }
    for name, _ in PER_LAYER:
        if name.startswith("cli.exit_codes."):
            values[name] = c[name]
        elif name.endswith(".self_s"):
            span = name[: -len(".self_s")]
            values[name] = statistics.median(t.self_s(span) for t in tracers)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def end_to_end_metrics(wl, passes, setup_s: float, failed: int, attempted: int) -> dict:
    wall = pass_seconds(passes)
    samples = sorted(t for p in passes for t in p.unit_s)
    q = tail_percentile(wl.units)
    print(f"# {wl.name}: {len(passes)} passes; unit_tail_ms is p{q} of {len(samples)} units; "
          "pass sums " + " ".join(f"{sum(p.unit_s) + sum(p.extra_s):.4f}" for p in passes),
          file=sys.stderr)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "units_per_s": wl.units / wall,
        "matchings_per_s": passes[0].matchings / wall,
        "unit_p50_ms": statistics.median(samples) * 1e3,
        "unit_tail_ms": percentile(samples, q) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_rate": 1 - failed / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def run(args) -> dict:
    workload_cls = WORKLOADS[args.workload]
    source_dir(ROOT)
    wl, setup_s = set_up(workload_cls, args.seed)
    gc.collect()
    # The inputs live for the whole run; keep full collections inside a
    # pass from rescanning them.
    gc.freeze()

    attempted, failures = 0, []
    for _ in range(WARMUP_PASSES):
        gc.collect()
        attempted += wl.attempted
        failures.extend(wl.check(wl.execute()))

    untraced, traced, tracers = [], [], []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if args.trace:
            if traced and untraced and elapsed >= args.seconds:
                break
            use_tracer = len(untraced) > len(traced)
        else:
            if len(untraced) >= MIN_PASSES and elapsed >= args.seconds:
                break
            use_tracer = False
        gc.collect()
        if use_tracer:
            with Tracer(wl.ml) as tracer:
                out = wl.execute(tracer.mark)
            traced.append(out)
            tracers.append(tracer)
        else:
            out = wl.execute()
            untraced.append(out)
        attempted += wl.attempted
        failures.extend(wl.check(out))

    passes = untraced + traced
    if any(p.work != passes[0].work for p in passes) or any(
            t.work_counts() != tracers[0].work_counts() for t in tracers):
        failures.append(Failure("work counters", "differ between passes of one run"))
    if args.trace:
        metrics = per_layer_metrics(tracers, untraced, traced)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracers[0].write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}.csv"))
    else:
        metrics = end_to_end_metrics(wl, untraced, setup_s, len(failures), attempted)

    for (op, message, known), times in Counter(
            (f.op, f.message, f.known_defect) for f in failures).items():
        tag = "known defect" if known else "FAILED"
        print(f"# {tag} (x{times}): {op}: {message}", file=sys.stderr)
    return {
        "correct": all(f.known_defect for f in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
