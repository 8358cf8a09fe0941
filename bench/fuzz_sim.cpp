// Property fuzzer — seed-swept deterministic simulation testing.
//
// Each sweep point draws a FuzzCase (topology × workload shape ×
// provisioning × fault-plan channels) from forked SplitMix64 streams,
// runs it to quiesce under the sf::check invariant registry, and holds
// the terminal properties: every DAG accounted for, makespan finite,
// zero invariant violations, and a bit-identical fingerprint on re-run
// (each point executes twice).
//
// On failure the first failing case is shrunk — channel bisection, then
// structural fields, then horizon bisection, then channel thinning —
// and printed as a ready-to-paste gtest regression test; exit code 1.
//
// Determinism contract: points run across a SweepRunner pool and rows
// print in sweep order, so stdout is bit-identical at any
// SF_SWEEP_THREADS (asserted by the scripts/tier1.sh --fuzz golden
// diff at 1 and 4 threads).
//
// Env knobs:
//   SF_FUZZ_SMOKE=1   pinned 32-point subset with a fixed base seed
//                     (the tier-1 leg; output diffed against
//                     tests/golden/fuzz_smoke.txt)
//   SF_FUZZ_POINTS=N  sweep size outside smoke mode (default 128)
//   SF_FUZZ_BASE=N    base seed outside smoke mode (default 0xF0CC5EED)
//   SF_FUZZ_SHRINK=N  shrinker trial budget (default 150)

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "check/fuzz.hpp"
#include "fault/injector.hpp"
#include "metrics/table.hpp"
#include "sim/sweep_runner.hpp"

namespace {

using namespace sf;

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || env[0] == '\0') return fallback;
  return std::strtoull(env, nullptr, 0);
}

struct Point {
  check::FuzzCase c;
  check::FuzzOutcome out;
};

/// Active fault channels of a case, e.g. "crash+kill" (empty = calm).
std::string channel_tags(const check::FuzzCase& c) {
  std::string tags;
  for (const fault::Channel& ch : fault::kChannels) {
    if (c.faults.*ch.mean <= 0) continue;
    if (!tags.empty()) tags += '+';
    tags += ch.label;
  }
  return tags.empty() ? "calm" : tags;
}

}  // namespace

int main() {
  const char* smoke_env = std::getenv("SF_FUZZ_SMOKE");
  const bool smoke = smoke_env != nullptr && smoke_env[0] == '1';

  // Smoke mode is PINNED: fixed base seed and point count, so the output
  // is a golden. Changing either invalidates tests/golden/fuzz_smoke.txt.
  const std::uint64_t base_seed =
      smoke ? 0xF0CC5EEDull : env_u64("SF_FUZZ_BASE", 0xF0CC5EEDull);
  const std::uint64_t n_points = smoke ? 32 : env_u64("SF_FUZZ_POINTS", 128);
  const int shrink_budget =
      static_cast<int>(env_u64("SF_FUZZ_SHRINK", 150));

  sf::bench::banner(
      "Property fuzzer: seed-swept deterministic simulation testing",
      "randomized (seed x topology x workload x fault plan) points run to "
      "quiesce under the cross-stack invariant registry; every point "
      "executes twice and must replay bit-identically");

  std::cout << "base seed 0x" << std::hex << base_seed << std::dec << ", "
            << n_points << " points\n\n";

  sf::sim::SweepRunner runner;
  const std::vector<Point> points =
      runner.run(static_cast<std::size_t>(n_points), [base_seed](std::size_t i) {
        Point p;
        p.c = check::random_case(base_seed, i);
        p.out = check::run_case_checked(p.c);
        return p;
      });

  metrics::Table table({"case", "nodes", "racks", "wf", "tasks", "sfrac",
                        "ol", "channels", "makespan_s", "viol", "replay",
                        "ok"},
                       2);
  std::size_t failures = 0;
  std::uint64_t digest = 0xD16E57ull;
  for (const auto& p : points) {
    if (!p.out.ok) ++failures;
    digest = fault::SplitMix64::mix(digest, p.out.fingerprint);
    table.add_row({static_cast<std::int64_t>(p.c.id),
                   static_cast<std::int64_t>(p.c.nodes),
                   static_cast<std::int64_t>(p.c.faults.racks),
                   static_cast<std::int64_t>(p.c.workflows),
                   static_cast<std::int64_t>(p.c.tasks),
                   p.c.serverless_fraction,
                   static_cast<std::int64_t>(p.out.openloop_issued),
                   channel_tags(p.c), p.out.slowest,
                   static_cast<std::int64_t>(p.out.violation_count),
                   std::string(p.out.replay_match ? "yes" : "NO"),
                   std::string(p.out.ok ? "yes" : "NO")});
  }
  table.print_text(std::cout);
  std::cout << "\nsweep digest 0x" << std::hex << digest << std::dec << ": "
            << (n_points - failures) << "/" << n_points << " points ok\n";

  // Vacuity audit: aggregate per-invariant armed/exercised counters over
  // the whole sweep. An invariant that was never exercised held over
  // empty state everywhere — the sweep proved nothing about it.
  std::vector<std::string> inv_names;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> activity;
  for (const auto& p : points) {
    for (const auto& inv : p.out.invariants) {
      auto [it, inserted] = activity.try_emplace(inv.name, 0, 0);
      if (inserted) inv_names.push_back(inv.name);
      it->second.first += inv.evaluations;
      it->second.second += inv.exercised;
    }
  }
  metrics::Table inv_table({"invariant", "armed", "exercised", "vacuous"}, 2);
  std::size_t vacuous = 0;
  for (const auto& name : inv_names) {
    const auto& [armed, exercised] = activity.at(name);
    if (exercised == 0) ++vacuous;
    inv_table.add_row({name, static_cast<std::int64_t>(armed),
                       static_cast<std::int64_t>(exercised),
                       std::string(exercised == 0 ? "YES" : "no")});
  }
  std::cout << "\ninvariant registry activity (sweep totals):\n";
  inv_table.print_text(std::cout);
  std::cout << "\n" << (inv_names.size() - vacuous) << "/" << inv_names.size()
            << " invariants exercised against non-empty state\n";

  if (failures == 0) return 0;

  // Shrink the first failure serially and print a pasteable repro.
  for (const auto& p : points) {
    if (p.out.ok) continue;
    std::cout << "\ncase " << p.c.id << " FAILED: " << p.out.detail << "\n"
              << "shrinking (budget " << shrink_budget << " trials)...\n";
    const check::ShrinkResult shrunk = check::shrink(p.c, shrink_budget);
    std::cout << "reduced after " << shrunk.trials
              << " trials; still fails with: " << shrunk.outcome.detail
              << "\n\n"
              << check::to_cpp_repro(shrunk.reduced);
    break;
  }
  return 1;
}
