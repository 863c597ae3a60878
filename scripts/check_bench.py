#!/usr/bin/env python3
"""CI perf-regression gate over BENCH_trajectory.json.

Compares the gauges of a fresh bench trajectory against a committed
baseline (bench/BENCH_baseline.json, schema v1) and fails when a watched
gauge regresses by more than the allowed tolerance. Only gauges named in
the baseline's "watch" list are gated — phase wall-times and byte counters
jitter too much at smoke scale to gate wholesale, so the baseline states
exactly which invariants it protects and in which direction.

Baseline schema (grapple.bench_baseline.v1):

    {
      "schema": "grapple.bench_baseline.v1",
      "scale": 0.1,
      "tolerance": 0.25,
      "watch": [
        {"key": "<bench>/<subject>/<phase>/gauge:<name>",
         "value": 2.9,
         "direction": "higher_is_better",   # or lower_is_better
         "min"?: 1.0,                        # optional hard floor
         "max"?: 0.0,                        # optional hard ceiling
         "min_scale"?: 1.0,                  # skip below this GRAPPLE_SCALE
         "tolerance"?: 0.5}                  # optional per-key override
      ]
    }

A watched key must exist in the trajectory; a missing key fails the gate
(a silently dropped metric is itself a regression). Keys use gauge names
because gauges carry the bench's derived results (speedups, ratios,
identity flags); raw counters stay diffable by hand via the trajectory
file.

Usage:
    check_bench.py --baseline bench/BENCH_baseline.json TRAJECTORY.json
    check_bench.py --write-baseline bench/BENCH_baseline.json TRAJECTORY.json
    check_bench.py --baseline ... --inject-regression 2.0 TRAJECTORY.json

--inject-regression multiplies every watched trajectory value by the given
factor in the regressing direction before checking; CI uses it to prove
the gate actually fails (see scripts/ci.sh bench mode). --write-baseline
emits a fresh baseline from the trajectory, keeping the watch list and
tolerances of an existing baseline when one is present at the target path.

Re-baselining: run scripts/bench.sh at the CI scale, then
    python3 scripts/check_bench.py --write-baseline bench/BENCH_baseline.json \
        <out-dir>/BENCH_trajectory.json
and commit the result together with the change that moved the numbers.
"""

import argparse
import json
import sys

BASELINE_SCHEMA = "grapple.bench_baseline.v1"
TRAJECTORY_SCHEMA = "grapple.bench_trajectory.v1"

# Watch list used when writing a baseline from scratch. Direction encodes
# what "worse" means for each gauge; floors/ceilings are hard acceptance
# criteria that hold regardless of the baseline value.
DEFAULT_WATCH = [
    {
        "key": "table3_performance/scheduler_speedup/scheduler/gauge:sched_speedup",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        "key": "table3_performance/scheduler_speedup/scheduler/gauge:sched_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        "key": "table3_performance/io_pipeline/io_pipeline/gauge:io_speedup",
        "direction": "higher_is_better",
        "min": 1.2,
        # Wall-clock ratio of millisecond-scale phases: allow wide jitter
        # around the baseline, the floor above is the real gate.
        "tolerance": 0.5,
    },
    {
        "key": "table3_performance/io_pipeline/io_pipeline/gauge:io_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        "key": "table3_performance/io_pipeline/io_pipeline/gauge:io_seconds_on",
        "direction": "lower_is_better",
        "tolerance": 1.0,
    },
    {
        # Share of store I/O executed on the task runtime's background
        # lanes instead of blocking the foreground path, measured on the
        # spilling 16KB-budget subject. The floor guards against the store
        # quietly falling back to synchronous I/O; the baseline-relative
        # check guards gradual erosion.
        "key": "table3_performance/task_runtime/task_runtime/gauge:tr_io_overlap",
        "direction": "higher_is_better",
        "min": 0.05,
        "tolerance": 0.5,
    },
    {
        # Share of pair-affine tasks that ran on their home worker while
        # idle workers steal. A collapse here means thieves
        # stopped respecting locality hints (wasting the store's prefetch).
        "key": "table3_performance/task_runtime/task_runtime/gauge:tr_steal_efficiency",
        "direction": "higher_is_better",
        "min": 0.05,
        "tolerance": 0.75,
    },
    {
        # Two join shards may not change a single report byte vs a 1-shard
        # reference run, at any scale.
        "key": "table3_performance/task_runtime/task_runtime/gauge:tr_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Acceptance criterion of the checkpoint/resume work: time inside
        # the checkpoint phase (quiesce + manifest encode + fsync + rename
        # + GC) must stay under 5% of the checkpointing run's wall time.
        # A full-scale property — smoke runs finish in tens of milliseconds
        # and are dominated by the fixed per-manifest fsync — so the entry
        # only applies from scale 1.0 up (the nightly sweep); see
        # ckpt_per_manifest_seconds for the smoke-scale guard.
        "key": "table3_performance/checkpointing/checkpointing/gauge:ckpt_phase_fraction",
        "direction": "lower_is_better",
        "max": 0.05,
        "min_scale": 1.0,
        "tolerance": 2.0,
    },
    {
        # Scale-independent smoke guard for the same subsystem: publishing
        # one manifest (quiesce + encode + fsync + rename + GC, amortized)
        # is a few milliseconds; an order-of-magnitude regression (e.g. an
        # encode that stopped being incremental) trips the ceiling.
        "key": "table3_performance/checkpointing/checkpointing/gauge:ckpt_per_manifest_seconds",
        "direction": "lower_is_better",
        "max": 0.05,
        "tolerance": 2.0,
    },
    {
        "key": "table3_performance/checkpointing/checkpointing/gauge:ckpt_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # A checkpointing run must actually publish manifests (at least the
        # final fixpoint manifest per engine) or the overhead gate above is
        # gating nothing.
        "key": "table3_performance/checkpointing/checkpointing/gauge:ckpt_manifests_written",
        "direction": "higher_is_better",
        "min": 1.0,
        "tolerance": 1.0,
    },
    {
        # Acceptance criterion of the observability work: the flight
        # recorder costs at most 2% wall time. A full-scale
        # property — smoke runs are dominated by scheduler jitter — so the
        # ceiling applies from scale 1.0 up (the nightly sweep). The gauge
        # is clamped at zero (negative A/B deltas are jitter).
        "key": "table3_performance/obs_overhead/observability/gauge:obs_overhead",
        "direction": "lower_is_better",
        "max": 0.02,
        "min_scale": 1.0,
        "tolerance": 2.0,
    },
    {
        # Reports must stay byte-identical with the recorder on, at any
        # scale.
        "key": "table3_performance/obs_overhead/observability/gauge:obs_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Acceptance criterion of the sampling profiler: SIGPROF sampling at
        # the default 97 Hz plus ring harvesting costs at most 2% wall time.
        # Like obs_overhead, a full-scale property (smoke runs are scheduler
        # jitter), clamped at zero.
        "key": "table3_performance/prof_overhead/profiler/gauge:prof_overhead",
        "direction": "lower_is_better",
        "max": 0.02,
        "min_scale": 1.0,
        "tolerance": 2.0,
    },
    {
        # Reports must stay byte-identical with profiling on, at any scale.
        "key": "table3_performance/prof_overhead/profiler/gauge:prof_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # The constraint memo is exact: with it on and off, every preset's
        # reports are byte-identical (table4_caching), at any scale.
        "key": "table4_caching/zookeeper:cache/alias/gauge:cache_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        "key": "table4_caching/hadoop:cache/alias/gauge:cache_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        "key": "table4_caching/hdfs:cache/alias/gauge:cache_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        "key": "table4_caching/hbase:cache/alias/gauge:cache_reports_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Warm throughput of the analysis service's two-tenant burst
        # (bench/service_bench.cpp). Wall-clock over loopback HTTP, so the
        # tolerance is wide; the floor catches the service falling back to
        # cold sessions (a warm check is >10x a cold one on any subject).
        "key": "service_bench/zookeeper/service/gauge:svc_checks_per_sec",
        "direction": "higher_is_better",
        "min": 1.0,
        "tolerance": 0.75,
    },
    {
        # Warm tail latency of the same burst. Baseline-relative only
        # (allow 2x jitter): the interesting regressions are order-of-
        # magnitude — a lost session cache or serialized admission.
        "key": "service_bench/zookeeper/service/gauge:svc_p99_ms",
        "direction": "lower_is_better",
        "tolerance": 1.0,
    },
    {
        # Share of /check requests served from a resident session during
        # the bench (2 colds + 24 warms => ~0.92). A collapse means the
        # cache is thrashing or fingerprinting broke.
        "key": "service_bench/zookeeper/service/gauge:svc_warm_hit_rate",
        "direction": "higher_is_better",
        "min": 0.5,
        "tolerance": 0.5,
    },
    {
        # Every service response body — cold, warm, either tenant — must be
        # byte-identical to the one-shot analyze_file --json aggregation,
        # at any scale.
        "key": "service_bench/zookeeper/service/gauge:svc_warm_identical",
        "direction": "higher_is_better",
        "min": 1.0,
    },
    {
        # Line count of src/**/*.{cc,h} (scripts/bench.sh). Code should
        # shrink or hold; growth past 5% needs a re-baseline that says why.
        "key": "code_size/src/lines/gauge:src_lines",
        "direction": "lower_is_better",
        "tolerance": 0.05,
    },
]


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"check_bench: cannot read {path}: {err}")


def trajectory_gauges(trajectory):
    """Flattens a trajectory into {key: value} with keys
    <bench>/<subject>/<phase>/gauge:<name>."""
    if trajectory.get("schema") != TRAJECTORY_SCHEMA:
        sys.exit(
            f"check_bench: unexpected trajectory schema "
            f"{trajectory.get('schema')!r} (want {TRAJECTORY_SCHEMA!r})"
        )
    flat = {}
    for bench in trajectory.get("benches", []):
        bench_name = bench.get("bench", "?")
        for subject in bench.get("subjects", []):
            subject_name = subject.get("subject", "?")
            for phase in subject.get("phases", []):
                phase_name = phase.get("name", "?")
                gauges = phase.get("metrics", {}).get("gauges", {})
                for name, value in gauges.items():
                    key = f"{bench_name}/{subject_name}/{phase_name}/gauge:{name}"
                    flat[key] = float(value)
    return flat


def check(baseline, gauges, inject=None, scale=None, only=None):
    if baseline.get("schema") != BASELINE_SCHEMA:
        sys.exit(
            f"check_bench: unexpected baseline schema "
            f"{baseline.get('schema')!r} (want {BASELINE_SCHEMA!r})"
        )
    default_tolerance = float(baseline.get("tolerance", 0.25))
    failures = []
    checked = 0
    for watch in baseline.get("watch", []):
        key = watch["key"]
        direction = watch.get("direction", "higher_is_better")
        tolerance = float(watch.get("tolerance", default_tolerance))
        if only is not None and only not in key:
            continue
        # Entries can declare the smallest GRAPPLE_SCALE at which they are
        # meaningful (e.g. wall-time fractions that fixed per-run costs
        # dominate at smoke scale); below it they are skipped, not failed.
        if scale is not None and scale < float(watch.get("min_scale", 0)):
            continue
        if key not in gauges:
            failures.append(f"{key}: missing from trajectory (dropped metric)")
            continue
        value = gauges[key]
        if inject is not None:
            value = value / inject if direction == "higher_is_better" else value * inject
        checked += 1
        base = watch.get("value")
        if base is not None:
            base = float(base)
            if direction == "higher_is_better":
                limit = base * (1.0 - tolerance)
                ok = value >= limit
                relation = ">="
            else:
                limit = base * (1.0 + tolerance)
                ok = value <= limit
                relation = "<="
            if not ok:
                failures.append(
                    f"{key}: {value:.4g} violates {relation} {limit:.4g} "
                    f"(baseline {base:.4g}, tolerance {tolerance:.0%})"
                )
        if "min" in watch and value < float(watch["min"]):
            failures.append(f"{key}: {value:.4g} below hard floor {float(watch['min']):.4g}")
        if "max" in watch and value > float(watch["max"]):
            failures.append(f"{key}: {value:.4g} above hard ceiling {float(watch['max']):.4g}")
    return checked, failures


def write_baseline(path, trajectory, gauges):
    # Keep the curated watch list (and its directions/floors/tolerances)
    # when re-baselining; only the recorded values move.
    watch = DEFAULT_WATCH
    try:
        with open(path, "r", encoding="utf-8") as f:
            existing = json.load(f)
        if existing.get("schema") == BASELINE_SCHEMA and existing.get("watch"):
            watch = existing["watch"]
    except (OSError, json.JSONDecodeError):
        pass
    out_watch = []
    for entry in watch:
        entry = dict(entry)
        key = entry["key"]
        if key not in gauges:
            sys.exit(f"check_bench: watched key {key} absent from trajectory; not baselining")
        entry["value"] = round(gauges[key], 6)
        out_watch.append(entry)
    baseline = {
        "schema": BASELINE_SCHEMA,
        "git_sha": trajectory.get("git_sha", "unknown"),
        "scale": trajectory.get("scale", 1),
        "tolerance": 0.25,
        "watch": out_watch,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2)
        f.write("\n")
    print(f"check_bench: wrote baseline {path} ({len(out_watch)} watched gauges)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trajectory", help="BENCH_trajectory.json to check")
    parser.add_argument("--baseline", help="baseline JSON to compare against")
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write a baseline from the trajectory instead of checking",
    )
    parser.add_argument(
        "--inject-regression",
        type=float,
        metavar="FACTOR",
        help="self-test: degrade every watched value by FACTOR before checking",
    )
    parser.add_argument(
        "--only",
        metavar="SUBSTR",
        help="check only watch entries whose key contains SUBSTR "
        "(e.g. 'checkpointing' for the nightly full-scale gate)",
    )
    args = parser.parse_args()

    trajectory = load_json(args.trajectory)
    gauges = trajectory_gauges(trajectory)

    if args.write_baseline:
        write_baseline(args.write_baseline, trajectory, gauges)
        return

    if not args.baseline:
        parser.error("--baseline or --write-baseline is required")
    baseline = load_json(args.baseline)
    scale = trajectory.get("scale")
    checked, failures = check(
        baseline,
        gauges,
        inject=args.inject_regression,
        scale=float(scale) if scale is not None else None,
        only=args.only,
    )
    if failures:
        print(f"check_bench: FAIL ({len(failures)} of {checked + len(failures)} checks):")
        for failure in failures:
            print(f"  - {failure}")
        sys.exit(1)
    print(f"check_bench: OK ({checked} watched gauges within tolerance)")


if __name__ == "__main__":
    main()
