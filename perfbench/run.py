#!/usr/bin/env python3
"""End-to-end benchmark of the Manta audit, fleet and serve paths.

Builds perfbench/ (which compiles the Manta libraries from src/) with
CMake, runs one workload, prints a human-readable report, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics (measured in a traced run that
also writes a Chrome trace-event file).

Usage, from the repository root:

    python3 perfbench/run.py --workload audit-xl --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The build and all run files live under $CARGO_TARGET_DIR (default
.bench_build) in the current directory.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["audit-xl", "fleet-batch", "serve-edit"]

# The paper-facing end-to-end metrics and the workloads they apply to;
# printed by --workload all.
HEADLINE = [
    ("analyze_s", ["audit-xl"]),
    ("binaries_per_s", ["fleet-batch"]),
    ("edit_p50_ms", ["serve-edit"]),
    ("edit_p90_ms", ["serve-edit"]),
    ("restore_ms", ["serve-edit"]),
    ("setup_s", WORKLOADS),
    ("peak_rss_mib", WORKLOADS),
    ("cpu_s", WORKLOADS),
    ("type_precision", ["audit-xl", "fleet-batch"]),
    ("type_recall", ["audit-xl", "fleet-batch"]),
    ("types_incorrect", ["audit-xl", "fleet-batch"]),
    ("bug_recall", ["audit-xl", "fleet-batch"]),
    ("bug_fp_share", ["audit-xl", "fleet-batch"]),
    ("error_rate", WORKLOADS),
]


def log(message):
    print(message, file=sys.stderr, flush=True)


def jobs():
    """At most four workers, and no more than the cores this process may use."""
    return max(1, min(4, len(os.sched_getaffinity(0))))


def out_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configure and build the benchmark executable; returns its path or exits 1."""
    build_dir = os.path.join(out_dir(), "build")
    os.makedirs(build_dir, exist_ok=True)
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", str(jobs())]]
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout)
            log("perfbench: build failed: " + " ".join(step))
            sys.exit(1)
    return os.path.join(build_dir, "manta_perfbench")


def benchmark_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def clean_env():
    """The library reads MANTA_* switches; pin all but the job count."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MANTA_")}
    env["MANTA_JOBS"] = str(jobs())
    return env


def run_workload(exe, args, workload):
    work = os.path.join(out_dir(), "work")
    os.makedirs(work, exist_ok=True)
    command = [exe, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    trace_path = None
    if args.trace:
        traces = os.path.join(out_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        trace_path = os.path.join(traces,
                                  "%s-seed%d.json" % (workload, args.seed))
        command += ["--trace-out", trace_path]
    if args.tiny:
        command.append("--tiny")
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                            env=clean_env(), timeout=175)
    lines = result.stdout.splitlines()
    if result.returncode != 0 or not lines:
        log("perfbench: %s exited with %d" % (workload, result.returncode))
        sys.exit(1)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def fmt(value):
    if value is None:
        return "n/a"
    if value == 0 or 1e-3 <= abs(value) < 1e7:
        return "%.6g" % value
    return "%.4e" % value


def print_table(record):
    print("\n%s (seed %d, MANTA_JOBS=%d, %s): %d operations, %d failed" % (
        record["workload"], record["seed"], record["jobs"],
        "traced" if record["trace"] else "untraced", record["attempted"],
        record["failed"]))
    for name, metric in record["metrics"].items():
        print("  %-36s %14s %s" % (name, fmt(metric["value"]), metric["unit"]))


def result_line(record, spec, trace):
    """The result line: exactly the BENCHMARK.json metrics of this mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        got = record["metrics"].get(entry["name"])
        if got is None or got["value"] is None or \
                not math.isfinite(got["value"]) or got["unit"] != entry["unit"]:
            log("perfbench: metric %s missing, non-finite or in the wrong "
                "unit on %s" % (entry["name"], record["workload"]))
            sys.exit(1)
        metrics[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(record["correct"]) and record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def print_all(records, trace):
    """Headline metrics per workload, and per-inst cost audit vs fleet."""
    print("\nheadline end-to-end metrics:")
    print("  %-16s %-12s %s" % ("metric", "workload", "value"))
    for name, workloads in HEADLINE:
        for workload in workloads:
            record = records.get(workload)
            metric = record and record["metrics"].get(name)
            if metric:
                print("  %-16s %-12s %s %s" % (name, workload,
                                             fmt(metric["value"]),
                                             metric["unit"]))
    audit, fleet = records.get("audit-xl"), records.get("fleet-batch")
    if trace and audit and fleet:
        print("\nper-instruction cost, audit-xl over fleet-batch "
              "(> 1 = super-linear in module size):")
        for name, metric in audit["metrics"].items():
            other = fleet["metrics"].get(name)
            if name.endswith("_ns_per_inst") and other and other["value"]:
                print("  %-36s %12s %12s  x%.2f" % (
                    name, fmt(metric["value"]), fmt(other["value"]),
                    metric["value"] / other["value"]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (the self-test scale)")
    args = parser.parse_args()

    spec = benchmark_spec()
    exe = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    records = {}
    for workload in workloads:
        record = run_workload(exe, args, workload)
        print_table(record)
        records[workload] = record
    if args.workload == "all":
        print_all(records, args.trace)
        lines = {w: result_line(r, spec, args.trace)
                 for w, r in records.items()}
        print(json.dumps(lines))
    else:
        print(json.dumps(result_line(records[args.workload], spec,
                                     args.trace)))


if __name__ == "__main__":
    main()
