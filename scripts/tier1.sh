#!/usr/bin/env bash
# Tier-1 verification: configure, build everything (warnings are errors),
# and run the full test suite. This is the gate every change must pass.
#
# Usage: scripts/tier1.sh [build-dir]            (default: ./build)
#        scripts/tier1.sh --tsan [build-dir]     (default: ./build-tsan)
#        scripts/tier1.sh --asan [build-dir]     (default: ./build-asan)
#        scripts/tier1.sh --chaos [build-dir]    (default: ./build)
#        scripts/tier1.sh --fuzz [build-dir]     (default: ./build)
#        scripts/tier1.sh --scale [build-dir]    (default: ./build)
#        scripts/tier1.sh --figures [build-dir]  (default: ./build)
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
# --chaos builds bench/chaos_sweep and runs its smoke subset at 1 and 4
# sweep threads, diffing both against the committed golden transcript.
# Any drift — between thread counts or against the golden — means the
# structured-chaos determinism contract broke.
#
# --fuzz builds bench/fuzz_sim and runs the pinned 32-point property-
# fuzzer smoke sweep (each point twice, replay fingerprints compared)
# at 1 and 4 sweep threads, diffing both against the committed golden.
# Runs in seconds; scripts/fuzz.sh drives wider sweeps.
#
# --scale builds bench/scale_sweep and runs its smoke subset (small
# open-loop serving + layered-DAG points) at 1 and 4 sweep threads,
# diffing both against the committed golden transcript. Drift means the
# open-loop engine or the scaled control-plane stores lost determinism.
#
# --figures builds the figure and ablation binaries and runs each at 1 and
# 4 sweep threads, diffing the two runs and each against its transcript in
# tests/golden/figures/. All twelve together run in well under a second;
# drift means a change moved a paper result.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

if [[ "${1:-}" == "--figures" ]]; then
  build_dir="${2:-$repo_root/build}"
  golden_dir="$repo_root/tests/golden/figures"
  figures=(fig1_container_reuse fig2_parallel_scaling fig5_tradeoff_ternary
           fig6_makespan_bars ablate_coldstart ablate_payload
           ablate_concurrency ablate_clustering ablate_redirection
           ablate_resizing ablate_complex_workflow ablate_event_driven)
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" --target "${figures[@]}" -j "$(nproc)"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  for fig in "${figures[@]}"; do
    SF_SWEEP_THREADS=1 "$build_dir/bench/$fig" > "$tmp/$fig.serial.txt"
    SF_SWEEP_THREADS=4 "$build_dir/bench/$fig" > "$tmp/$fig.parallel.txt"
    diff -u "$tmp/$fig.serial.txt" "$tmp/$fig.parallel.txt" \
      || { echo "figures: $fig: thread counts disagree" >&2; exit 1; }
    diff -u "$golden_dir/$fig.txt" "$tmp/$fig.serial.txt" \
      || { echo "figures: $fig: drifted from golden transcript" >&2; exit 1; }
  done
  echo "figures: ${#figures[@]} binaries bit-identical at 1 and 4 threads, match goldens"
  exit 0
fi

if [[ "${1:-}" == "--scale" ]]; then
  build_dir="${2:-$repo_root/build}"
  golden="$repo_root/tests/golden/scale_smoke.txt"
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" --target scale_sweep -j "$(nproc)"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  SF_SCALE_SMOKE=1 SF_SWEEP_THREADS=1 \
    "$build_dir/bench/scale_sweep" > "$tmp/serial.txt"
  SF_SCALE_SMOKE=1 SF_SWEEP_THREADS=4 \
    "$build_dir/bench/scale_sweep" > "$tmp/parallel.txt"
  diff -u "$tmp/serial.txt" "$tmp/parallel.txt" \
    || { echo "scale smoke: thread counts disagree" >&2; exit 1; }
  diff -u "$golden" "$tmp/serial.txt" \
    || { echo "scale smoke: drifted from golden transcript" >&2; exit 1; }
  echo "scale smoke: bit-identical at 1 and 4 threads, matches golden"
  exit 0
fi

if [[ "${1:-}" == "--fuzz" ]]; then
  build_dir="${2:-$repo_root/build}"
  golden="$repo_root/tests/golden/fuzz_smoke.txt"
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" --target fuzz_sim -j "$(nproc)"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  SF_FUZZ_SMOKE=1 SF_SWEEP_THREADS=1 \
    "$build_dir/bench/fuzz_sim" > "$tmp/serial.txt"
  SF_FUZZ_SMOKE=1 SF_SWEEP_THREADS=4 \
    "$build_dir/bench/fuzz_sim" > "$tmp/parallel.txt"
  diff -u "$tmp/serial.txt" "$tmp/parallel.txt" \
    || { echo "fuzz smoke: thread counts disagree" >&2; exit 1; }
  diff -u "$golden" "$tmp/serial.txt" \
    || { echo "fuzz smoke: drifted from golden transcript" >&2; exit 1; }
  echo "fuzz smoke: bit-identical at 1 and 4 threads, matches golden"
  exit 0
fi

if [[ "${1:-}" == "--chaos" ]]; then
  build_dir="${2:-$repo_root/build}"
  golden="$repo_root/tests/golden/chaos_smoke.txt"
  cmake -B "$build_dir" -S "$repo_root"
  cmake --build "$build_dir" --target chaos_sweep -j "$(nproc)"
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
  SF_CHAOS_SMOKE=1 SF_SWEEP_THREADS=1 \
    "$build_dir/bench/chaos_sweep" > "$tmp/serial.txt"
  SF_CHAOS_SMOKE=1 SF_SWEEP_THREADS=4 \
    "$build_dir/bench/chaos_sweep" > "$tmp/parallel.txt"
  diff -u "$tmp/serial.txt" "$tmp/parallel.txt" \
    || { echo "chaos smoke: thread counts disagree" >&2; exit 1; }
  diff -u "$golden" "$tmp/serial.txt" \
    || { echo "chaos smoke: drifted from golden transcript" >&2; exit 1; }
  echo "chaos smoke: bit-identical at 1 and 4 threads, matches golden"
  exit 0
fi

if [[ "${1:-}" == "--asan" ]]; then
  build_dir="${2:-$repo_root/build-asan}"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -g" \
    -DSERVERFLOW_BUILD_BENCH=OFF \
    -DSERVERFLOW_BUILD_EXAMPLES=OFF
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
  exit 0
fi

if [[ "${1:-}" == "--tsan" ]]; then
  build_dir="${2:-$repo_root/build-tsan}"
  cmake -B "$build_dir" -S "$repo_root" \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g" \
    -DSERVERFLOW_BUILD_BENCH=OFF \
    -DSERVERFLOW_BUILD_EXAMPLES=OFF
  cmake --build "$build_dir" --target sim_test -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure -R 'SweepRunnerTest' \
    -j "$(nproc)"
  exit 0
fi

build_dir="${1:-$repo_root/build}"
cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$(nproc)"
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
