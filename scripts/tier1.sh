#!/usr/bin/env bash
# Tier-1 verification: configure, build everything (warnings are errors),
# and run the full test suite. This is the gate every change must pass.
#
# Usage: scripts/tier1.sh [build-dir]            (default: ./build)
#        scripts/tier1.sh --release [build-dir]  (default: ./build-release)
#        scripts/tier1.sh --tsan [build-dir]     (default: ./build-tsan)
#        scripts/tier1.sh --asan [build-dir]     (default: ./build-asan)
#        scripts/tier1.sh --chaos [build-dir]    (default: ./build)
#        scripts/tier1.sh --fuzz [build-dir]     (default: ./build)
#        scripts/tier1.sh --scale [build-dir]    (default: ./build)
#        scripts/tier1.sh --figures [build-dir]  (default: ./build)
#        scripts/tier1.sh --examples [build-dir] (default: ./build)
#        scripts/tier1.sh --digests <commit>
#
# --release builds everything as CMAKE_BUILD_TYPE=Release, still with
# warnings as errors, and runs the full suite. -O3 inlining lets GCC see
# through more code and warn where the default RelWithDebInfo build does
# not.
#
# --tsan builds the engine + tests under ThreadSanitizer and runs the
# SweepRunner suite — the only code that spawns threads. Keep it green:
# a data race there silently breaks the bit-identical-results contract.
#
# --asan builds everything under AddressSanitizer + UBSan and runs the
# full suite. The failure-recovery paths cancel events and tear down
# pods/claims/containers out from under in-flight continuations; ASan is
# what catches a stale `this` or use-after-free the happy path never
# trips.
#
# The five golden legs below build their binaries, run each at 1 and 4
# sweep threads, and diff the two transcripts against each other and
# against the committed golden. Drift between thread counts means a sweep
# lost determinism; drift against the golden means a change moved a result.
#
# --chaos runs bench/chaos_sweep's structured-chaos smoke subset.
#
# --fuzz runs bench/fuzz_sim's pinned 32-point property-fuzzer smoke sweep
# (each point twice, replay fingerprints compared). Runs in seconds;
# scripts/fuzz.sh drives wider sweeps.
#
# --scale runs bench/scale_sweep's smoke subset (small open-loop serving +
# layered-DAG points): the open-loop engine and the scaled control-plane
# stores.
#
# --figures runs the twelve figure and ablation binaries, each against its
# transcript in tests/golden/figures/. All twelve together run in well
# under a second.
#
# --examples runs the deterministic examples against their transcripts in
# tests/golden/examples/. autoscaling_burst prints the traced Knative
# timeline, so this leg also pins what the trace recorder stores.
# quickstart is left out: it prints a wall-clock kernel time.
#
# --digests <commit> exports <commit> with git archive into a temporary
# directory, builds perfbench_driver there and in this checkout (under
# .bench_build/, with the cmake commands perfbench/run.py uses), runs both
# on serve-scale, dag-layered and churn-mixed at seeds 1 and 5, and fails
# unless digest, sim_p50_ms, sim_makespan_s and failed agree on every run.
# A perf change or refactor must pass it against its parent commit.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

# Configures <build-dir> with the given cmake arguments, builds everything
# and runs the full suite.
#   full_suite <build-dir> [cmake-arg...]
full_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S "$repo_root" "$@"
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
}

# Builds each <target>, runs <build-dir>/<bin-dir>/<target> at
# SF_SWEEP_THREADS=1 and 4 with <smoke-var>=1 set (none when empty), and
# fails unless both transcripts are identical and equal <golden>.
#   golden_diff <label> <build-dir> <bin-dir> <smoke-var> <target>:<golden>...
golden_diff() {
  local label="$1" build_dir="$2" bin_dir="$3" smoke="$4"
  shift 4
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" --target "${@%%:*}" -j "$(nproc)"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  local pair target golden threads
  for pair in "$@"; do
    target="${pair%%:*}"
    golden="${pair#*:}"
    for threads in 1 4; do
      env ${smoke:+"$smoke=1"} SF_SWEEP_THREADS="$threads" \
        "$build_dir/$bin_dir/$target" > "$tmp/$target.$threads.txt"
    done
    diff -u "$tmp/$target.1.txt" "$tmp/$target.4.txt" \
      || { echo "$label: $target: thread counts disagree" >&2; exit 1; }
    diff -u "$golden" "$tmp/$target.1.txt" \
      || { echo "$label: $target: drifted from golden transcript" >&2; exit 1; }
  done
  echo "$label: bit-identical at 1 and 4 threads, matches golden:" "${@%%:*}"
}

# Builds perfbench_driver of the checkout at <root> the way
# perfbench/run.py does: configure .bench_build/perfbench once, then build.
#   build_driver <root>
build_driver() {
  local build="$1/.bench_build/perfbench"
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S "$1/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=Release >/dev/null
  fi
  cmake --build "$build" --target perfbench_driver -j "$(nproc)" >/dev/null
}

# Prints the simulated outcome of one driver run of the checkout at <root>:
# digest, sim_p50_ms, sim_makespan_s and failed. The driver exits 1 when a
# run does not drain; its record still compares.
#   driver_outcome <root> <workload> <seed>
driver_outcome() {
  { "$1/.bench_build/perfbench/perfbench_driver" --workload "$2" \
      --seed "$3" --trace 0 || true; } | tail -n 1 | python3 -c '
import json, sys
r = json.load(sys.stdin)
print(*(r[k] for k in ("digest", "sim_p50_ms", "sim_makespan_s", "failed")))'
}

goldens="$repo_root/tests/golden"
case "${1:-}" in
  --figures)
    figures=()
    for fig in fig1_container_reuse fig2_parallel_scaling \
               fig5_tradeoff_ternary fig6_makespan_bars ablate_coldstart \
               ablate_payload ablate_concurrency ablate_clustering \
               ablate_redirection ablate_resizing ablate_complex_workflow \
               ablate_event_driven; do
      figures+=("$fig:$goldens/figures/$fig.txt")
    done
    golden_diff figures "${2:-$repo_root/build}" bench "" "${figures[@]}"
    ;;
  --examples)
    examples=()
    for example in autoscaling_burst concurrent_campaign tradeoff_explorer \
                   workflow_gantt; do
      examples+=("$example:$goldens/examples/$example.txt")
    done
    golden_diff examples "${2:-$repo_root/build}" examples "" "${examples[@]}"
    ;;
  --scale)
    golden_diff "scale smoke" "${2:-$repo_root/build}" bench SF_SCALE_SMOKE \
      "scale_sweep:$goldens/scale_smoke.txt"
    ;;
  --fuzz)
    golden_diff "fuzz smoke" "${2:-$repo_root/build}" bench SF_FUZZ_SMOKE \
      "fuzz_sim:$goldens/fuzz_smoke.txt"
    ;;
  --chaos)
    golden_diff "chaos smoke" "${2:-$repo_root/build}" bench SF_CHAOS_SMOKE \
      "chaos_sweep:$goldens/chaos_smoke.txt"
    ;;
  --digests)
    commit="${2:?usage: scripts/tier1.sh --digests <commit>}"
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    git -C "$repo_root" archive "$commit" | tar -x -C "$tmp"
    build_driver "$tmp"
    build_driver "$repo_root"
    moved=0
    for workload in serve-scale dag-layered churn-mixed; do
      for seed in 1 5; do
        want="$(driver_outcome "$tmp" "$workload" "$seed")"
        got="$(driver_outcome "$repo_root" "$workload" "$seed")"
        echo "digests: $workload seed $seed: $commit [$want] here [$got]"
        [[ "$want" == "$got" ]] || moved=1
      done
    done
    if ((moved)); then
      echo "digests: the simulated outcome moved against $commit" >&2
      exit 1
    fi
    echo "digests: every run matches $commit"
    ;;
  --release)
    full_suite "${2:-$repo_root/build-release}" -DCMAKE_BUILD_TYPE=Release
    ;;
  --asan)
    full_suite "${2:-$repo_root/build-asan}" \
      -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -g" \
      -DSERVERFLOW_BUILD_BENCH=OFF \
      -DSERVERFLOW_BUILD_EXAMPLES=OFF
    ;;
  --tsan)
    build_dir="${2:-$repo_root/build-tsan}"
    cmake -B "$build_dir" -S "$repo_root" \
      -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g" \
      -DSERVERFLOW_BUILD_BENCH=OFF \
      -DSERVERFLOW_BUILD_EXAMPLES=OFF
    cmake --build "$build_dir" --target sim_test -j "$(nproc)"
    ctest --test-dir "$build_dir" --output-on-failure -R 'SweepRunnerTest' \
      -j "$(nproc)"
    ;;
  *)
    full_suite "${1:-$repo_root/build}"
    ;;
esac
