#include "check/fuzz.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "check/invariants.hpp"
#include "container/image.hpp"
#include "core/testbed.hpp"
#include "fault/injector.hpp"
#include "fault/splitmix.hpp"
#include "metrics/ternary.hpp"
#include "workload/open_loop.hpp"

namespace sf::check {

namespace {

using fault::SplitMix64;

// Field tags for random_case's forked streams. Adding a field means
// adding a tag; existing fields keep their draws, so old (base, index)
// cases stay stable under extension.
enum : std::uint64_t {
  kTagSeed = 0x01,
  kTagFaultSeed = 0x02,
  kTagNodes = 0x10,
  kTagRacks = 0x11,
  kTagWorkflows = 0x12,
  kTagTasks = 0x13,
  kTagServerless = 0x14,
  kTagPrestage = 0x15,
  kTagMinScale = 0x16,
  kTagTimeout = 0x17,
  kTagHorizon = 0x18,
  kTagOpenLoopUsers = 0x20,
  kTagOpenLoopRate = 0x21,
  kTagOutlier = 0x22,
  kTagCatalog = 0x23,
  // Fault channels draw from their plan stream tags (fault::kChannels).
};

}  // namespace

FuzzCase random_case(std::uint64_t base_seed, std::uint64_t index) {
  const std::uint64_t root = SplitMix64::mix(base_seed, index);
  FuzzCase c;
  c.id = index;
  c.seed = SplitMix64::mix(root, kTagSeed);
  c.fault_seed = SplitMix64::mix(root, kTagFaultSeed);

  auto draw = [root](std::uint64_t tag) { return SplitMix64::fork(root, tag); };

  c.nodes = 3 + static_cast<int>(draw(kTagNodes).next_below(3));     // 3..5
  c.faults.racks =
      1 + static_cast<std::uint32_t>(draw(kTagRacks).next_below(2));  // 1..2
  c.workflows =
      1 + static_cast<int>(draw(kTagWorkflows).next_below(3));       // 1..3
  c.tasks = 2 + static_cast<int>(draw(kTagTasks).next_below(4));     // 2..5
  c.serverless_fraction =
      0.25 * static_cast<double>(draw(kTagServerless).next_below(5));
  c.prestage = draw(kTagPrestage).next_below(2) == 0;
  c.min_scale = static_cast<int>(draw(kTagMinScale).next_below(3));  // 0..2
  c.request_timeout_s =
      draw(kTagTimeout).next_below(2) == 0 ? 0.0 : 30.0;
  // Resilience axis on roughly a third of cases: the ejection filter and
  // the router deadline must hold up under every fault channel.
  c.outlier_detection = draw(kTagOutlier).next_below(3) == 0;
  // Metadata tier on roughly a third of cases: stage-in/out over the wire
  // through the cache / retry / breaker stack, under every fault channel.
  c.catalog_service = draw(kTagCatalog).next_below(3) == 0;
  c.faults.horizon_s =
      240.0 + 60.0 * static_cast<double>(draw(kTagHorizon).next_below(4));

  // Open-loop ambient traffic on roughly a third of cases: 2..4 users at
  // 0.5/1.0/1.5 Hz each — enough to keep a service busy through the fault
  // plan without dominating the run time.
  auto ol = draw(kTagOpenLoopUsers);
  if (ol.next_below(3) == 0) {
    c.openloop_users = 2 + static_cast<int>(ol.next_below(3));
    c.openloop_rate_hz =
        0.5 + 0.5 * static_cast<double>(draw(kTagOpenLoopRate).next_below(3));
  }

  // Each channel flips on with probability 1/2; when on, its mean lands
  // in [0.3, 1.0] × horizon — a handful of events per run, not a storm.
  for (const fault::Channel& ch : fault::kChannels) {
    auto g = draw(ch.stream);
    if (g.next_below(2) == 0) continue;
    c.faults.*ch.mean = c.faults.horizon_s * (0.3 + 0.7 * g.next_double());
  }
  return c;
}

FuzzOutcome run_case(const FuzzCase& c) {
  core::TestbedOptions opts;
  opts.node_count = static_cast<std::size_t>(c.nodes);
  opts.dag_retries = c.dag_retries;
  opts.prestage_images = c.prestage;
  // Generous hang wall: any live run finishes well inside it; a run that
  // doesn't has genuinely wedged (lost callback, unreleased claim, ...).
  opts.run_deadline_s = c.faults.horizon_s + 1800.0;
  opts.catalog.enabled = c.catalog_service;
  core::PaperTestbed tb(c.seed, opts);

  fault::FaultInjector injector(tb, c.faults, c.fault_seed);

  if (c.plant_claim_leak) tb.condor().test_only_keep_claims_on_crash(true);

  const double settle_end =
      c.faults.horizon_s +
      fault::heal_window_s(c.faults, static_cast<std::uint32_t>(c.nodes)) +
      300.0;
  CheckConfig cc;
  cc.horizon_s = settle_end;
  InvariantChecker checker(tb, cc);
  checker.attach_injector(injector);
  checker.arm();
  injector.arm();

  core::ProvisioningPolicy policy =
      c.prestage ? core::ProvisioningPolicy::prestaged(c.min_scale)
                 : core::ProvisioningPolicy::deferred();
  policy.container_concurrency = 1;
  policy.request_timeout_s = c.request_timeout_s;
  if (c.outlier_detection) {
    policy.outlier.enabled = true;
    // Short windows relative to the fuzz horizon so ejection *and*
    // probation re-admission both happen inside one run.
    policy.outlier.base_ejection_s = 15.0;
    policy.outlier.max_ejection_s = 60.0;
    policy.route_timeout_s = 12.0;
  }
  tb.register_matmul_function(policy);

  // Open-loop ambient traffic: a dedicated warm KService absorbing
  // Poisson request streams while the DAG mix runs through the same
  // fault plan. The queue-proxy deadline is always on for it so every
  // request resolves (success or error) and the engine provably drains.
  std::unique_ptr<workload::OpenLoopEngine> engine;
  if (c.openloop_users > 0) {
    const container::Image image = container::make_task_image("fn-open");
    tb.registry().push(image);
    if (c.prestage) tb.kube().seed_image_everywhere(image);
    knative::KnServiceSpec spec = workload::compute_service("fn-open");
    spec.annotations.min_scale = 1;
    spec.annotations.container_concurrency = 1;
    spec.annotations.request_timeout_s = 30;
    tb.serving().create_service(std::move(spec));

    workload::OpenLoopConfig ol;
    ol.users = c.openloop_users;
    ol.rate_hz = c.openloop_rate_hz;
    ol.horizon_s = std::min(120.0, c.faults.horizon_s / 2);
    ol.services = {"fn-open"};
    ol.work_s = 0.05;
    ol.payload_bytes = 10000;
    ol.seed = SplitMix64::mix(c.seed, 0x09E2);
    engine = std::make_unique<workload::OpenLoopEngine>(
        tb.serving(), tb.cluster().node(0).net_id(), ol);
    engine->start();
  }

  metrics::MixPoint mix;
  mix.native = 1.0 - c.serverless_fraction;
  mix.serverless = c.serverless_fraction;
  const auto result = tb.run_concurrent_mix(c.workflows, c.tasks, mix);

  // Drain the ambient traffic before asserting quiesce: arrivals may
  // outlive the DAG mix, and every issued request must be answered.
  if (engine) {
    const double drain_wall = settle_end + 1800.0;
    while (!engine->quiesced() && tb.sim().has_pending_events() &&
           tb.sim().now() < drain_wall) {
      tb.sim().step();
    }
  }

  // Settle: every fault window past its heal time, autoscalers through
  // their scale-to-zero windows, watch queue drained — then quiesce.
  tb.sim().run_until(std::max(settle_end, tb.sim().now() + 300.0));
  checker.check_quiesce();

  FuzzOutcome out;
  out.finished = result.finished == c.workflows && !result.deadline_hit;
  out.succeeded = result.all_succeeded;
  out.violation_count = checker.violations().size();
  out.slowest = result.slowest;
  const bool drained = engine == nullptr || engine->quiesced();
  if (engine) out.openloop_issued = engine->stats().issued;
  out.ok = out.finished && drained && checker.ok() &&
           std::isfinite(result.slowest);
  for (const auto& inv : checker.per_invariant()) {
    out.invariants.push_back(
        InvariantActivity{inv.name, inv.evaluations, inv.exercised});
  }

  if (!out.finished) {
    out.detail = "workload hung: " + std::to_string(result.finished) + "/" +
                 std::to_string(c.workflows) + " DAGs finished by t=" +
                 std::to_string(tb.sim().now());
  } else if (!drained) {
    out.detail = "open-loop traffic never drained: " +
                 std::to_string(engine->stats().completed) + "/" +
                 std::to_string(engine->stats().issued) +
                 " requests answered by t=" + std::to_string(tb.sim().now());
  } else if (!checker.ok()) {
    const auto& v = checker.violations().front();
    std::ostringstream os;
    os << "invariant " << v.invariant << " at t=" << v.time << ": "
       << v.detail;
    out.detail = os.str();
  } else if (!std::isfinite(result.slowest)) {
    out.detail = "non-finite makespan";
  }

  // Order-sensitive digest of everything observable: two runs of the
  // same case must produce the same chain or determinism is broken.
  std::uint64_t fp = 0x5F3759DF;
  auto fold = [&fp](std::uint64_t v) { fp = SplitMix64::mix(fp, v); };
  fold(std::bit_cast<std::uint64_t>(result.slowest));
  fold(static_cast<std::uint64_t>(result.finished));
  fold(result.all_succeeded ? 1 : 0);
  fold(tb.sim().events_processed());
  fold(std::bit_cast<std::uint64_t>(
      tb.cluster().network().total_bytes_delivered()));
  fold(injector.applied_total());
  fold(tb.serving().cold_start_requests("fn-matmul"));
  fold(tb.serving().route_retries("fn-matmul"));
  fold(tb.serving().ejections("fn-matmul"));
  fold(tb.serving().outlier_guarded_picks());
  fold(tb.kube().api().watch_batches_delivered());
  fold(static_cast<std::uint64_t>(out.violation_count));
  if (engine) fold(engine->fingerprint());
  if (tb.catalog_client() != nullptr) {
    fold(tb.catalog_client()->service_calls());
    fold(tb.catalog_client()->cache_hits());
    fold(tb.catalog_client()->stale_served());
    fold(tb.catalog_client()->breaker_opens());
    fold(tb.catalog_client()->errors());
    fold(tb.catalog_service()->served());
    fold(tb.catalog_service()->outage_rejects());
  }
  out.fingerprint = fp;
  return out;
}

FuzzOutcome run_case_checked(const FuzzCase& c) {
  FuzzOutcome first = run_case(c);
  const FuzzOutcome second = run_case(c);
  first.replayed = true;
  first.replay_match = first.fingerprint == second.fingerprint;
  if (!first.replay_match) {
    first.ok = false;
    if (first.detail.empty()) {
      std::ostringstream os;
      os << "determinism: fingerprint " << std::hex << first.fingerprint
         << " != " << second.fingerprint << " on replay";
      first.detail = os.str();
    }
  }
  return first;
}

namespace {

/// One structural reduction of the shrinker's phase 2: when `applies`,
/// `reduce` moves a field toward its simplest value.
struct Reduction {
  bool (*applies)(const FuzzCase&);
  void (*reduce)(FuzzCase&);
};

/// Phase 2's reductions, tried in this order on every pass.
constexpr Reduction kReductions[] = {
    {[](const FuzzCase& c) { return c.workflows > 1; },
     [](FuzzCase& c) { c.workflows = 1; }},
    {[](const FuzzCase& c) { return c.tasks > 2; },
     [](FuzzCase& c) { c.tasks = 2; }},
    {[](const FuzzCase& c) { return c.nodes > 3; },
     [](FuzzCase& c) {
       c.nodes = c.nodes - 1;
       // Rack topology must stay valid as the cluster shrinks.
       c.faults.racks =
           std::min(c.faults.racks, static_cast<std::uint32_t>(c.nodes - 1));
     }},
    {[](const FuzzCase& c) { return c.faults.racks > 1; },
     [](FuzzCase& c) { c.faults.racks = 1; }},
    {[](const FuzzCase& c) { return c.serverless_fraction > 0; },
     [](FuzzCase& c) { c.serverless_fraction = 0; }},
    {[](const FuzzCase& c) { return c.min_scale > 0; },
     [](FuzzCase& c) { c.min_scale = 0; }},
    // The simpler configuration is the one without cold pulls.
    {[](const FuzzCase& c) { return !c.prestage; },
     [](FuzzCase& c) { c.prestage = true; }},
    {[](const FuzzCase& c) { return c.request_timeout_s != 0; },
     [](FuzzCase& c) { c.request_timeout_s = 0; }},
    {[](const FuzzCase& c) { return c.outlier_detection; },
     [](FuzzCase& c) { c.outlier_detection = false; }},
    {[](const FuzzCase& c) { return c.openloop_users > 0; },
     [](FuzzCase& c) {
       c.openloop_users = 0;
       c.openloop_rate_hz = 0;
     }},
    // Catalog outages are skipped without the tier.
    {[](const FuzzCase& c) { return c.catalog_service; },
     [](FuzzCase& c) {
       c.catalog_service = false;
       c.faults.catalog_outage_mean_s = 0;
     }},
};

}  // namespace

ShrinkResult shrink(const FuzzCase& failing, int budget) {
  ShrinkResult res;
  res.reduced = failing;
  res.outcome = run_case(failing);
  res.trials = 1;
  if (res.outcome.ok) return res;  // not actually failing; nothing to do

  // Accepts `cand` when it still fails within budget.
  auto try_reduce = [&res, budget](const FuzzCase& cand) {
    if (res.trials >= budget) return false;
    ++res.trials;
    FuzzOutcome out = run_case(cand);
    if (out.ok) return false;
    res.reduced = cand;
    res.outcome = std::move(out);
    return true;
  };

  // Phase 1 — fault-channel bisection: drop half the active channels at
  // a time, then singles, until no channel can be removed.
  bool progress = true;
  while (progress && res.trials < budget) {
    progress = false;
    std::vector<double fault::FaultConfig::*> active;
    for (const fault::Channel& ch : fault::kChannels) {
      if (res.reduced.faults.*ch.mean > 0) active.push_back(ch.mean);
    }
    if (active.size() >= 2) {
      for (int half = 0; half < 2 && !progress; ++half) {
        FuzzCase cand = res.reduced;
        const std::size_t mid = active.size() / 2;
        const std::size_t lo = half == 0 ? 0 : mid;
        const std::size_t hi = half == 0 ? mid : active.size();
        for (std::size_t i = lo; i < hi; ++i) cand.faults.*active[i] = 0;
        progress = try_reduce(cand);
      }
    }
    if (!progress) {
      for (const auto mean : active) {
        FuzzCase cand = res.reduced;
        cand.faults.*mean = 0;
        if (try_reduce(cand)) {
          progress = true;
          break;
        }
      }
    }
  }

  // Phase 2 — structural fields toward their simplest values, repeated
  // until a full pass accepts nothing.
  progress = true;
  while (progress && res.trials < budget) {
    progress = false;
    for (const Reduction& step : kReductions) {
      if (!step.applies(res.reduced)) continue;
      FuzzCase cand = res.reduced;
      step.reduce(cand);
      progress |= try_reduce(cand);
    }
  }

  // Phase 3 — horizon bisection: a shorter plan window means fewer fault
  // events and a faster repro.
  while (res.reduced.faults.horizon_s > 120 && res.trials < budget) {
    FuzzCase cand = res.reduced;
    cand.faults.horizon_s = std::max(120.0, cand.faults.horizon_s / 2);
    if (!try_reduce(cand)) break;
  }

  // Phase 4 — thin the surviving channels: doubling a mean halves its
  // expected event count while keeping the channel's stream intact.
  for (const fault::Channel& ch : fault::kChannels) {
    for (int step = 0; step < 2 && res.trials < budget; ++step) {
      if (res.reduced.faults.*ch.mean <= 0) break;
      FuzzCase cand = res.reduced;
      cand.faults.*ch.mean *= 2;
      if (!try_reduce(cand)) break;
    }
  }

  return res;
}

std::string to_cpp_repro(const FuzzCase& c) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "// Shrunk fuzz failure — paste into tests/check/ and add the\n"
        "// file to the check_test target. Fields are set exhaustively\n"
        "// so the case survives future default changes.\n";
  os << "TEST(FuzzRegression, Case" << c.id << ") {\n";
  os << "  sf::check::FuzzCase c;\n";
  os << "  c.id = " << c.id << "ull;\n";
  os << "  c.seed = 0x" << std::hex << c.seed << std::dec << "ull;\n";
  os << "  c.fault_seed = 0x" << std::hex << c.fault_seed << std::dec
     << "ull;\n";
  os << "  c.nodes = " << c.nodes << ";\n";
  os << "  c.workflows = " << c.workflows << ";\n";
  os << "  c.tasks = " << c.tasks << ";\n";
  os << "  c.dag_retries = " << c.dag_retries << ";\n";
  os << "  c.serverless_fraction = " << c.serverless_fraction << ";\n";
  os << "  c.prestage = " << (c.prestage ? "true" : "false") << ";\n";
  os << "  c.min_scale = " << c.min_scale << ";\n";
  os << "  c.request_timeout_s = " << c.request_timeout_s << ";\n";
  os << "  c.outlier_detection = " << (c.outlier_detection ? "true" : "false")
     << ";\n";
  os << "  c.catalog_service = " << (c.catalog_service ? "true" : "false")
     << ";\n";
  os << "  c.openloop_users = " << c.openloop_users << ";\n";
  os << "  c.openloop_rate_hz = " << c.openloop_rate_hz << ";\n";
  os << "  c.faults.horizon_s = " << c.faults.horizon_s << ";\n";
  os << "  c.faults.racks = " << c.faults.racks << ";\n";
  for (const fault::Channel& ch : fault::kChannels) {
    os << "  c.faults." << ch.name << " = " << c.faults.*ch.mean << ";\n";
  }
  if (c.plant_claim_leak) {
    os << "  c.plant_claim_leak = true;\n";
  }
  os << "  const auto out = sf::check::run_case_checked(c);\n";
  os << "  EXPECT_TRUE(out.ok) << out.detail;\n";
  os << "}\n";
  return os.str();
}

}  // namespace sf::check
