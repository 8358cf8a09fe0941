#!/usr/bin/env bash
# Runs the engine + control-plane micro-benchmarks and the end-to-end
# figure binaries, records the numbers at the repository root:
#
#   BENCH_engine.json    — per-benchmark median CPU ns/iteration
#   BENCH_fullstack.json — wall-clock seconds per figure binary, run
#                          sequentially (SF_SWEEP_THREADS=1) and with the
#                          sweep pool at 4 threads
#   BENCH_scale.json     — scale_sweep curve: per-point wall-clock and
#                          sim-time metrics for the open-loop serving and
#                          layered-DAG points (nodes x users x DAG size)
#
# Usage:
#   bench/run_bench.sh [build-dir] [repetitions] [--rebaseline]
#                      [--only engine|fullstack|scale]
#
# Defaults: build-dir = ./build, repetitions = 5. Existing BENCH_*.json
# files are treated as the committed baseline: the script prints the
# per-benchmark speedup of the current build against them and REFUSES to
# overwrite them unless --rebaseline is given. Re-baseline only together
# with the change that produced the new numbers.
#
# --only runs one section and touches only its file: engine (the
# micro-benchmarks, BENCH_engine.json), fullstack (the figure binaries
# plus the gray and catalog ablation tables, BENCH_fullstack.json) or
# scale (scale_sweep, BENCH_scale.json). Without it, all three run.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rebaseline=0
only=""
pos=()
while (($#)); do
  case "$1" in
    --rebaseline) rebaseline=1 ;;
    --only)
      only="${2:?--only takes engine, fullstack or scale}"
      shift
      ;;
    *) pos+=("$1") ;;
  esac
  shift
done
case "$only" in
  "" | engine | fullstack | scale) ;;
  *)
    echo "error: --only takes engine, fullstack or scale" >&2
    exit 2
    ;;
esac
build_dir="${pos[0]:-$repo_root/build}"
reps="${pos[1]:-5}"
bench_bin="$build_dir/bench/micro_engine"
engine_json="$repo_root/BENCH_engine.json"
fullstack_json="$repo_root/BENCH_fullstack.json"

# True when section <name> runs: always without --only.
#   wants <name>
wants() { [[ -z "$only" || "$only" == "$1" ]]; }

# ---- Engine + control-plane micro-benchmarks ------------------------------

if wants engine; then
if [[ ! -x "$bench_bin" ]]; then
  echo "error: $bench_bin not found or not executable." >&2
  echo "Build it first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

filter='BM_EventQueueScheduleAndPop|BM_EventQueueCancelHeavy|BM_EventQueueMixedSchedule|BM_EventQueueSteadyWindow|BM_EventQueueFarTimers|BM_SimulationEventChurn|BM_PsResourceChurn|BM_FlowNetworkFanout|BM_ApiServerWatchFanout|BM_SchedulerBurst|BM_KpaObserve|BM_CondorNegotiate|BM_TraceRecordHotPath|BM_TraceRecordGated|BM_WatchFanoutNodeScoped|BM_SchedulerScaled|BM_SchedulePodScaled|BM_EndpointsChurn|BM_HeartbeatTick|BM_LifecycleSweep|BM_NodeEviction|BM_DeploymentReconcile|BM_HistogramRecord|BM_RouterPickBackend|BM_CatalogLookup|BM_CatalogLookupMap|BM_PlanLayered|BM_CondorMatchIdle'
raw_json="$(mktemp)"
trap 'rm -f "$raw_json"' EXIT

"$bench_bin" \
  --benchmark_filter="$filter" \
  --benchmark_min_time=0.2 \
  --benchmark_repetitions="$reps" \
  --benchmark_report_aggregates_only=true \
  --benchmark_format=json > "$raw_json"

python3 - "$raw_json" "$engine_json" "$reps" "$rebaseline" <<'PY'
import json
import sys

raw_path, out_path, reps, rebaseline = (
    sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")
with open(raw_path) as f:
    report = json.load(f)

# repetitions >= 2 produce _median aggregate rows; a single repetition
# produces only plain rows — accept either so `run_bench.sh build 1` works.
results = {}
plain = {}
for bench in report.get("benchmarks", []):
    name = bench.get("name", "")
    if name.endswith("_median"):
        results[name.removesuffix("_median")] = round(bench["cpu_time"], 1)
    elif bench.get("run_type") != "aggregate":
        plain[name] = round(bench["cpu_time"], 1)
if not results:
    results = plain

prev = {}
try:
    with open(out_path) as f:
        prev = json.load(f)
except (OSError, ValueError):
    pass
recorded = prev.get("results_ns", {})

if recorded:
    print(f"speedup vs recorded baseline ({out_path}):")
    width = max(len(n) for n in results)
    for name in sorted(results):
        now = results[name]
        if name in recorded and now > 0:
            ratio = recorded[name] / now
            print(f"  {name:<{width}}  {recorded[name]:>12.1f} ns -> "
                  f"{now:>12.1f} ns   {ratio:5.2f}x")
        else:
            print(f"  {name:<{width}}  {'(new)':>12} -> {now:>12.1f} ns")

if recorded and not rebaseline:
    # Never move a committed number without --rebaseline, but DO append
    # benchmarks that have no recorded entry yet — new benches land on
    # the first run instead of silently vanishing from the record.
    fresh = {n: v for n, v in results.items() if n not in recorded}
    if not fresh:
        print(f"kept {out_path} (pass --rebaseline to overwrite)")
        sys.exit(0)
    prev["results_ns"] = dict(sorted({**recorded, **fresh}.items()))
    with open(out_path, "w") as f:
        json.dump(prev, f, indent=2)
        f.write("\n")
    print(f"kept {len(recorded)} recorded entries, appended "
          f"{len(fresh)} new: {', '.join(sorted(fresh))}")
    sys.exit(0)

# Keep the recorded pre-overhaul baseline (if any) so before/after stays in
# one file across refreshes.
doc = {
    "description": "Engine micro-benchmark medians, CPU ns per iteration",
    "source": "bench/micro_engine.cpp via bench/run_bench.sh",
    "repetitions": reps,
    "results_ns": dict(sorted(results.items())),
}
if prev.get("baseline_ns"):
    doc["baseline_ns"] = dict(sorted(prev["baseline_ns"].items()))
    if prev.get("baseline_source"):
        doc["baseline_source"] = prev["baseline_source"]
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(results)} benchmarks)")
PY
fi

# ---- Full-stack figure binaries -------------------------------------------

if wants fullstack; then

python3 - "$build_dir" "$fullstack_json" "$rebaseline" <<'PY'
import json
import os
import subprocess
import sys
import time

build_dir, out_path, rebaseline = (
    sys.argv[1], sys.argv[2], sys.argv[3] == "1")

BINARIES = [
    "fig1_container_reuse",
    "fig2_parallel_scaling",
    "fig5_tradeoff_ternary",
    "fig6_makespan_bars",
    "ablate_coldstart",
    "ablate_payload",
    "ablate_concurrency",
    "ablate_clustering",
    "ablate_redirection",
    "ablate_resizing",
    "ablate_complex_workflow",
    "ablate_event_driven",
    "chaos_sweep",
]


def wall(path, threads):
    env = dict(os.environ, SF_SWEEP_THREADS=str(threads))
    t0 = time.perf_counter()
    subprocess.run([path], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


results = {}
for name in BINARIES:
    path = os.path.join(build_dir, "bench", name)
    if not os.access(path, os.X_OK):
        print(f"  skipping {name}: not built")
        continue
    seq = min(wall(path, 1) for _ in range(3))
    par = min(wall(path, 4) for _ in range(3))
    results[name] = {
        "sequential_s": round(seq, 4),
        "threads4_s": round(par, 4),
        "speedup": round(seq / par, 2) if par > 0 else 0.0,
    }
    print(f"  {name:<28} seq {seq:7.3f} s   4-thread {par:7.3f} s   "
          f"{results[name]['speedup']:.2f}x")

prev = {}
try:
    with open(out_path) as f:
        prev = json.load(f)
except (OSError, ValueError):
    pass

if prev.get("results") and not rebaseline:
    # Baseline entries are frozen without --rebaseline, but binaries that
    # are NEW since the baseline was recorded are appended so adding a
    # benchmark doesn't force a full re-baseline.
    fresh = {k: v for k, v in results.items() if k not in prev["results"]}
    if fresh:
        prev["results"].update(fresh)
        with open(out_path, "w") as f:
            json.dump(prev, f, indent=2)
            f.write("\n")
        print(f"appended {len(fresh)} new binaries to {out_path} "
              f"({', '.join(sorted(fresh))}); existing entries kept "
              f"(pass --rebaseline to refresh them)")
    else:
        print(f"kept {out_path} (pass --rebaseline to overwrite)")
    sys.exit(0)

doc = {
    "description": ("End-to-end wall-clock per figure/ablation binary, "
                    "best of 3; sequential vs SF_SWEEP_THREADS=4"),
    "source": "bench/run_bench.sh",
    "note": ("sweep-based binaries (fig2, ablate_concurrency/payload/"
             "resizing/clustering) parallelize across points; speedup "
             "depends on available cores"),
    "cores": os.cpu_count(),
    "results": results,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(results)} binaries)")
PY

# ---- Gray-failure ejection ablation ---------------------------------------
# The chaos sweep's gray table is a simulation RESULT (seed-pure makespans),
# not a timing measurement, so it is refreshed on every run regardless of
# --rebaseline: a drift here means the data plane changed behaviour.

python3 - "$build_dir" "$fullstack_json" <<'PY'
import json
import os
import re
import subprocess
import sys

build_dir, out_path = sys.argv[1], sys.argv[2]
path = os.path.join(build_dir, "bench", "chaos_sweep")
if not os.access(path, os.X_OK):
    print("  skipping gray ablation: chaos_sweep not built")
    sys.exit(0)
out = subprocess.run([path], check=True, capture_output=True,
                     text=True).stdout
rows = []
in_gray = False
for line in out.splitlines():
    if "Gray chaos: outlier ejection ablation" in line:
        in_gray = True
        continue
    if not in_gray:
        continue
    cols = line.split()
    if len(cols) == 11 and cols[1] in ("on", "off"):
        rows.append({
            "level": cols[0],
            "ejection": cols[1],
            "ejections": int(cols[5]),
            "readmissions": int(cols[6]),
            "route_retries": int(cols[7]),
            "makespan_s": float(cols[9]),
            "ok": cols[10],
        })
    elif rows:
        break
with open(out_path) as f:
    doc = json.load(f)
doc["gray_ejection_ablation"] = {
    "note": ("seed-pure gray-failure makespans from chaos_sweep; both arms "
             "share every deadline/retry knob and differ only in outlier "
             "ejection"),
    "rows": rows,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"recorded gray ejection ablation ({len(rows)} rows) in {out_path}")
PY

# ---- Catalog metadata-tier ablation ---------------------------------------
# Like the gray table: a simulation RESULT, refreshed on every run. The
# resilient arm (TTL cache + breaker + stale reads) must post a strictly
# lower makespan than the naive arm at every outage intensity, and the
# cold-start stampede must coalesce to far fewer wire fetches than
# clients — drift here means the metadata tier changed behaviour.

python3 - "$build_dir" "$fullstack_json" <<'PY'
import json
import os
import subprocess
import sys

build_dir, out_path = sys.argv[1], sys.argv[2]
path = os.path.join(build_dir, "bench", "chaos_sweep")
if not os.access(path, os.X_OK):
    print("  skipping catalog ablation: chaos_sweep not built")
    sys.exit(0)
out = subprocess.run([path], check=True, capture_output=True,
                     text=True).stdout
rows = []
stampede = []
section = None
for line in out.splitlines():
    if "Catalog ablation: metadata-tier outages" in line:
        section = "ablation"
        continue
    if "cold-start stampede" in line:
        section = "stampede"
        continue
    if section is None:
        continue
    cols = line.split()
    if section == "ablation" and len(cols) == 13 and cols[1] in ("on", "off"):
        rows.append({
            "level": cols[0],
            "resilience": cols[1],
            "outages": int(cols[2]),
            "cache_hits": int(cols[4]),
            "stale_served": int(cols[5]),
            "service_calls": int(cols[7]),
            "retries": int(cols[8]),
            "breaker_opens": int(cols[9]),
            "makespan_s": float(cols[11]),
            "ok": cols[12],
        })
    elif section == "stampede" and len(cols) == 7 and cols[0] in ("on",
                                                                  "off"):
        stampede.append({
            "coalescing": cols[0],
            "clients": int(cols[1]),
            "coalesced": int(cols[3]),
            "service_calls": int(cols[4]),
            "drain_s": float(cols[5]),
            "ok": cols[6],
        })
with open(out_path) as f:
    doc = json.load(f)
doc["catalog_ablation"] = {
    "note": ("seed-pure catalog-outage makespans from chaos_sweep; both "
             "arms share the service and retry envelope and differ only in "
             "TTL cache + circuit breaker + stale-while-revalidate"),
    "rows": rows,
    "stampede": stampede,
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"recorded catalog ablation ({len(rows)} rows, "
      f"{len(stampede)} stampede rows) in {out_path}")
PY
fi

# ---- Scale sweep curve ----------------------------------------------------

if wants scale; then

scale_json="$repo_root/BENCH_scale.json"
scale_bin="$build_dir/bench/scale_sweep"

python3 - "$scale_bin" "$scale_json" "$rebaseline" <<'PY'
import json
import os
import subprocess
import sys
import time

scale_bin, out_path, rebaseline = (
    sys.argv[1], sys.argv[2], sys.argv[3] == "1")

if not os.access(scale_bin, os.X_OK):
    print(f"  skipping scale sweep: {scale_bin} not built")
    sys.exit(0)

side = out_path + ".tmp"
env = dict(os.environ, SF_SWEEP_THREADS="4", SF_SCALE_JSON=side)
t0 = time.perf_counter()
subprocess.run([scale_bin], env=env, check=True,
               stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
total = time.perf_counter() - t0
with open(side) as f:
    curve = json.load(f)
os.unlink(side)

rows = {r["point"]: r
        for r in curve["serving"] + curve["dag"] + curve.get("mixed", [])}
for name, row in rows.items():
    print(f"  scale {name:<8} wall {row['wall_s']:8.3f} s")

prev = {}
try:
    with open(out_path) as f:
        prev = json.load(f)
except (OSError, ValueError):
    pass

if prev.get("serving") and not rebaseline:
    # Frozen baseline: append points NEW since it was recorded, so growing
    # the sweep doesn't force a refresh of the committed curve.
    known = {r["point"] for r in prev.get("serving", [])}
    known |= {r["point"] for r in prev.get("dag", [])}
    known |= {r["point"] for r in prev.get("mixed", [])}
    fresh = 0
    for key in ("serving", "dag", "mixed"):
        extra = [r for r in curve.get(key, []) if r["point"] not in known]
        prev.setdefault(key, []).extend(extra)
        fresh += len(extra)
    if fresh:
        with open(out_path, "w") as f:
            json.dump(prev, f, indent=2)
            f.write("\n")
        print(f"appended {fresh} new points to {out_path}; existing "
              f"entries kept (pass --rebaseline to refresh them)")
    else:
        print(f"kept {out_path} (pass --rebaseline to overwrite)")
    sys.exit(0)

doc = {
    "description": ("scale_sweep curve: open-loop serving points "
                    "(nodes x users x requests) and layered-DAG points; "
                    "sim-time metrics plus wall-clock per point at "
                    "SF_SWEEP_THREADS=4"),
    "source": "bench/scale_sweep.cpp via bench/run_bench.sh",
    "cores": os.cpu_count(),
    "total_wall_s": round(total, 3),
    "serving": curve["serving"],
    "dag": curve["dag"],
    "mixed": curve.get("mixed", []),
}
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(rows)} points, {total:.1f} s total)")
PY
fi
