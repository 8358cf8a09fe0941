#!/usr/bin/env python3
"""ServerFlow benchmark: one command, from the root of a checkout.

    python3 perfbench/run.py --workload serve-scale --seed 1 --seconds 40 --trace 0

Builds the simulator and the driver from source into .bench_build/ (first
run only; later runs rebuild nothing), then runs the workload's driver
process repeatedly with the same seed for about --seconds seconds, one
single-threaded process per repetition. It checks that every repetition
quiesced, answered every request, finished every DAG and produced the same
simulated digest, and prints medians (for throughput, the 90th percentile).

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
and traced repetitions and reports the per-layer metrics, including the
tracing overhead. Metric names and units come from BENCHMARK.json. The last
line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--size tiny runs a seconds-long miniature of each workload (self-tests).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ("serve-scale", "dag-layered", "churn-mixed")
MIN_REPS = 3  # untraced repetitions; with --trace 1, pairs
MAX_REPS = 200
REP_TIMEOUT_S = 150


class BenchError(Exception):
    """A failure that leaves nothing to report."""


def build():
    """Configures (once) and builds the driver; quiet unless it fails."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def run_rep(workload, seed, traced, size, trace_out=None):
    """One driver process; returns its JSON record."""
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0", "--size", size]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    start = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"driver printed nothing (exit {proc.returncode}):\n"
                         + proc.stderr)
    rec = json.loads(lines[-1])
    if proc.returncode not in (0, 1) or (proc.returncode == 1) == rec["ok"]:
        raise BenchError(f"driver exit {proc.returncode}:\n{proc.stderr}")
    rec["wall_s"] = wall
    return rec


def repeat(workload, seed, seconds, traced, size):
    """Repetitions until the time is spent: untraced ones, and with
    `traced` a traced one after each. Returns (untraced, traced) records."""
    plain, with_trace = [], []
    deadline = time.monotonic() + seconds
    TRACES.mkdir(parents=True, exist_ok=True)
    while len(plain) < MAX_REPS:
        rec = run_rep(workload, seed, False, size)
        plain.append(rec)
        step = rec["wall_s"]
        if traced:
            out = TRACES / f"{workload}-seed{seed}-rep{len(with_trace)}.json"
            rec = run_rep(workload, seed, True, size, out)
            rec["spans"] = json.loads(out.read_text())["spans"]
            out.unlink()
            with_trace.append(rec)
            step += rec["wall_s"]
        if len(plain) >= MIN_REPS and time.monotonic() + step > deadline:
            break
    return plain, with_trace


def check(records):
    """Correctness gate: every repetition drained its workload, and the
    simulated outcome is identical across repetitions and with tracing."""
    problems = [f"{r['workload']}: {r['problem']}" for r in records if not r["ok"]]
    digests = {r["digest"] for r in records}
    if len(digests) != 1:
        problems.append(f"simulated digest differs across repetitions: {sorted(digests)}")
    return problems


def median(records, key):
    return statistics.median(r[key] for r in records)


def end_to_end(plain):
    first = plain[0]
    # Other tenants of a shared machine only ever add time, in bursts that
    # come and go over seconds to minutes. The 90th percentile of
    # per-repetition throughput tracks the code's own speed; the median
    # follows the neighbours' load.
    rates = [(r["requests"] + r["tasks"]) / r["drive_s"] for r in plain]
    return {
        "setup_s": median(plain, "setup_s"),
        "sim_ops_per_s": statistics.quantiles(rates, n=10, method="inclusive")[8],
        "peak_rss_mb": median(plain, "peak_rss_mb"),
        "sim_p50_ms": first["sim_p50_ms"],
        "sim_makespan_s": first["sim_makespan_s"],
    }


def per_layer(plain, with_trace):
    values = {}
    for key in with_trace[0]["layers"]:
        values[key] = statistics.median(r["layers"][key] for r in with_trace)
    first = with_trace[0]
    values["drive.sim_p99_ms"] = first["sim_p99_ms"]
    values["drive.latency_samples"] = first["latency_samples"]
    values["drive.requests"] = first["requests"]
    values["drive.tasks"] = first["tasks"]
    values["drive.error_rate"] = first["failed"] / first["attempted"]
    values["trace.overhead_frac"] = (
        median(with_trace, "drive_s") / median(plain, "drive_s") - 1)
    return values


def write_trace(workload, seed, with_trace, metrics):
    """Spans of every traced repetition plus the per-layer medians."""
    path = TRACES / f"{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "repetitions": [r["spans"] for r in with_trace],
        "per_layer": metrics,
    }, indent=1) + "\n")
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        build()
        plain, with_trace = repeat(args.workload, args.seed, args.seconds,
                                   args.trace == 1, args.size)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    problems = check(plain + with_trace)
    if args.trace:
        wanted = spec["per_layer"]
        values = per_layer(plain, with_trace)
        trace_file = write_trace(args.workload, args.seed, with_trace, values)
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(plain)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    first = plain[0]
    print(f"{args.workload} seed {args.seed}: {len(plain)} repetitions"
          + (f" + {len(with_trace)} traced" if args.trace else "")
          + f", {first['attempted']} operations each"
          + f" ({first['requests']} requests, {first['tasks']} DAG tasks),"
          + f" {first['latency_samples']} latency samples, digest {first['digest']}")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        print(f"  spans written to {trace_file.relative_to(ROOT)}")
    for p in problems:
        print(f"  INCORRECT: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": first["attempted"],
        "failed": first["failed"],
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
