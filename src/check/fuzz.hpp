#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.hpp"

namespace sf::check {

/// One point in the property-fuzzer's search space: everything that
/// shapes a run — testbed seed, topology, workload shape, provisioning,
/// and the fault plan's horizon, racks and twelve channel intensities —
/// in one plain-old-data struct. The shrinker reduces it field by field,
/// and to_cpp_repro() prints it as a pasteable regression test.
struct FuzzCase {
  std::uint64_t id = 0;  ///< sweep point index (provenance only)
  std::uint64_t seed = 42;              ///< testbed / workload RNG seed
  std::uint64_t fault_seed = 0xC4405EEDull;  ///< fault-plan RNG seed

  // -- topology & workload shape --------------------------------------
  int nodes = 4;      ///< cluster size (node 0 = head)
  int workflows = 1;  ///< concurrent matmul chains
  int tasks = 3;      ///< tasks per chain
  int dag_retries = 4;

  // -- provisioning ---------------------------------------------------
  /// Fraction of tasks running as serverless functions (rest native).
  double serverless_fraction = 0.5;
  bool prestage = true;  ///< pre-staged images + warm pods vs deferred
  int min_scale = 1;     ///< warm pods when prestaged
  double request_timeout_s = 30;  ///< queue-proxy deadline; 0 = none
  /// Resilience axis: turns on passive outlier ejection plus the
  /// router's per-attempt deadline for the matmul function — the data
  /// plane's answer to gray failures (cpu_slow / flaky_nic / one-way
  /// partitions). Fuzzes the ejection filter, probation re-admission
  /// and the ejection-cap invariant against every fault channel.
  bool outlier_detection = false;
  /// Metadata-tier axis: stands up the catalog service + client, so
  /// stage-in/stage-out resolve over the wire through the TTL cache /
  /// retry / breaker / stale-read stack. The catalog_outage channel only
  /// bites when this is on (otherwise its events are skipped).
  bool catalog_service = false;

  // -- open-loop traffic axis (0 users = off) ---------------------------
  /// When positive, a dedicated warm KService ("fn-open") takes Poisson
  /// request streams from this many independent open-loop users while
  /// the DAG mix runs — ambient serving load riding the same faults. The
  /// engine must drain (every issued request answered) before quiesce.
  int openloop_users = 0;
  double openloop_rate_hz = 0;  ///< per-user arrival rate when on

  /// The fault plan: horizon, rack topology and channel means (0 = off;
  /// fault::kChannels lists them). Forked RNG streams per channel mean
  /// zeroing one never perturbs the others — what makes the shrinker's
  /// channel bisection meaningful.
  fault::FaultConfig faults{.horizon_s = 300};

  /// TEST-ONLY mutation hook: plants the "keep claims on startd crash"
  /// bug in the condor pool, proving the invariant registry detects it.
  bool plant_claim_leak = false;
};

/// Draws case `index` of the sweep rooted at `base_seed`: every field
/// comes from a forked SplitMix64 stream, so the same (base_seed, index)
/// is the same case forever, on any platform.
[[nodiscard]] FuzzCase random_case(std::uint64_t base_seed,
                                   std::uint64_t index);

/// Per-invariant activity from one run: how often the registry evaluated
/// the invariant and how many subjects it examined in total. `exercised
/// == 0` means the invariant passed vacuously in this run.
struct InvariantActivity {
  std::string name;
  std::uint64_t evaluations = 0;
  std::uint64_t exercised = 0;
};

/// What one fuzz point produced.
struct FuzzOutcome {
  bool ok = false;        ///< all properties held
  bool finished = false;  ///< every DAG reported in before the deadline
  bool succeeded = false; ///< every workflow succeeded (informational —
                          ///< heavy fault plans may legitimately exhaust
                          ///< retries; that is not a property violation)
  bool replayed = false;      ///< run_case_checked ran the point twice
  bool replay_match = true;   ///< fingerprints of both runs agreed
  std::uint64_t fingerprint = 0;  ///< order-sensitive run digest
  std::size_t violation_count = 0;
  double slowest = 0;  ///< slowest workflow makespan, seconds
  std::uint64_t openloop_issued = 0;  ///< open-loop requests fired (axis on)
  std::string detail;  ///< first failure, empty when ok
  /// Registry activity, in registration order (the vacuity audit the
  /// fuzzer aggregates across its sweep).
  std::vector<InvariantActivity> invariants;
};

/// Runs one case to quiesce under the invariant registry and the
/// terminal properties (workload accounted for, makespan finite,
/// registry clean).
[[nodiscard]] FuzzOutcome run_case(const FuzzCase& c);

/// run_case twice; additionally requires bit-identical fingerprints
/// (the determinism property).
[[nodiscard]] FuzzOutcome run_case_checked(const FuzzCase& c);

/// Shrinker output: the reduced case, its (still failing) outcome, and
/// how many trial runs the search spent.
struct ShrinkResult {
  FuzzCase reduced;
  FuzzOutcome outcome;
  int trials = 0;
};

/// Greedy reduction of a failing case toward defaults: fault-channel
/// bisection first (halves, then single channels), then structural
/// fields, then horizon bisection, then per-channel mean doubling
/// (fewer fault events). Every accepted step re-verifies the failure,
/// so the result is guaranteed to still fail.
[[nodiscard]] ShrinkResult shrink(const FuzzCase& failing, int budget = 150);

/// Renders the case as a ready-to-paste gtest regression test.
[[nodiscard]] std::string to_cpp_repro(const FuzzCase& c);

}  // namespace sf::check
