#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "condor/startd.hpp"
#include "condor/types.hpp"

namespace sf::condor {

/// A complete HTCondor pool: schedd (job queue + serialized dispatch),
/// negotiator (periodic matchmaking producing reusable claims), one
/// partitionable startd per worker, and the shadow/starter file-staging
/// path.
///
/// The performance-relevant behaviours are modelled explicitly:
///  * matchmaking happens in cycles (negotiation_interval_s),
///  * once a slot is claimed it is reused for subsequent jobs without
///    re-negotiation (claim reuse — what makes condor's sustained
///    throughput far better than its cycle period),
///  * job activations are serialized at the schedd
///    (dispatch_interval_s per job — Figure 2's slope),
///  * every job pays stage-in/stage-out transfers between the submit
///    node's staging volume and the worker scratch.
class CondorPool {
 public:
  CondorPool(cluster::Cluster& cluster, cluster::Node& submit_node,
             std::vector<cluster::Node*> workers, CondorConfig config = {});

  CondorPool(const CondorPool&) = delete;
  CondorPool& operator=(const CondorPool&) = delete;

  // ---- Schedd API ------------------------------------------------------

  JobId submit(JobSpec spec);

  /// Removes an idle job from the queue (condor_rm). Running jobs are not
  /// interruptible in this model; returns false for them.
  bool remove(JobId id);

  [[nodiscard]] const JobRecord* job(JobId id) const;

  [[nodiscard]] std::size_t idle_jobs() const;
  [[nodiscard]] std::size_t running_jobs() const;
  [[nodiscard]] std::uint64_t completed_jobs() const { return completed_; }
  [[nodiscard]] std::uint64_t failed_jobs() const { return failed_; }
  /// Running jobs failed by the schedd because their worker crashed
  /// (counted inside failed_jobs() as well).
  [[nodiscard]] std::uint64_t jobs_aborted() const { return aborted_; }
  [[nodiscard]] std::uint64_t negotiation_cycles() const { return cycles_; }
  [[nodiscard]] std::size_t active_claims() const { return claims_.size(); }

  /// Internal-consistency audit for the invariant registry (sf::check):
  /// state tallies match the counters, the idle queue holds exactly the
  /// idle jobs, every claim sits on a live reachable-shaped startd, busy
  /// claims point at running jobs, and per-node claimed resources agree
  /// with the startd's dynamic slots. Returns one message per violation
  /// (empty = clean). Pure read; never schedules or mutates.
  [[nodiscard]] std::vector<std::string> self_check() const;

  /// TEST-ONLY mutation hook: when set, handle_node_crash() keeps the dead
  /// node's claims (and skips the startd reset) while still aborting the
  /// victim jobs — a planted claim-release bug the invariant registry must
  /// catch (tests/check/mutation_test.cpp). Never set outside tests.
  void test_only_keep_claims_on_crash(bool keep) {
    test_keep_claims_on_crash_ = keep;
  }

  // ---- Topology --------------------------------------------------------

  [[nodiscard]] cluster::Node& submit_node() { return submit_; }
  [[nodiscard]] storage::Volume& submit_staging() { return staging_; }
  [[nodiscard]] Startd& startd(const std::string& node_name);
  [[nodiscard]] std::size_t worker_count() const { return startds_.size(); }
  /// Worker startds in negotiation fill order.
  [[nodiscard]] const std::vector<Startd*>& workers() const {
    return fill_order_;
  }
  [[nodiscard]] const CondorConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulation& sim() { return cluster_.sim(); }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }

 private:
  using ClaimId = std::uint64_t;
  struct Claim {
    std::string node_name;
    Startd* startd = nullptr;  ///< cached owner; avoids name lookups in
                               ///< the match loops
    SlotId slot = 0;
    double cpus = 0;
    double memory = 0;
    bool busy = false;
    /// Job currently activated on this claim (kNoJob when idle) — lets the
    /// crash handler find the victims bound to a dead node.
    JobId job = kNoJob;
    std::uint64_t idle_epoch = 0;
    /// Greedy-match scratch: the claim is reserved in the match pass whose
    /// stamp equals the pool's current one (no per-cycle set allocations).
    std::uint64_t reserved_stamp = 0;
  };
  using ClaimMap = std::map<ClaimId, Claim>;
  /// A requirements-free job's (request_cpus, request_memory).
  using Shape = std::pair<double, double>;
  /// One match pass's resume points: per shape, the claim after the last
  /// one a job of that shape reserved (end() once the shape found none).
  using ShapeCursors = std::map<Shape, ClaimMap::iterator>;

  void kick_negotiator();
  void negotiate();
  void pump_dispatch();
  void start_job(JobId id, ClaimId claim_id, std::uint64_t epoch);
  void run_executable(JobId id, ClaimId claim_id, std::uint64_t epoch);
  void finish_job(JobId id, ClaimId claim_id, std::uint64_t epoch, bool ok);
  void arm_claim_timeout(ClaimId claim_id);
  /// True while `id` is still the running attempt `epoch` — the guard every
  /// dispatched continuation passes before touching jobs_/claims_.
  [[nodiscard]] bool attempt_live(JobId id, std::uint64_t epoch) const;
  /// Fails a running job (worker died under it): bumps the attempt epoch so
  /// in-flight continuations die, updates counters, fires on_done so DAGMan
  /// can retry.
  void abort_job(JobId id);
  /// Startd death: drops the node's claims, resets its startd, aborts the
  /// jobs that were running there, and kicks scheduling for the requeues.
  void handle_node_crash(const std::string& node_name);
  /// True when at least one idle job cannot be greedily matched (priority
  /// order) against the free claims; early-exits on the first miss.
  [[nodiscard]] bool has_unmatched_idle();
  /// Arms the negotiator when some idle job has no free claim. Skips the
  /// poll while armed: kick_negotiator() is a no-op then, and the poll's
  /// only side effect, reservation stamps, is never read outside its pass.
  void kick_if_unmatched();
  /// Reserves, in the current match pass, the first unreserved claim in
  /// ClaimId order that fits `rec`; false when none does. A job without
  /// requirements resumes where the last job of its shape stopped: every
  /// claim before that point is reserved or does not fit the shape, and
  /// neither changes within a pass.
  bool reserve_claim(const JobRecord& rec, ShapeCursors& cursors);
  [[nodiscard]] bool claim_fits(const Claim& claim,
                                const JobRecord& rec) const;
  /// True while the schedd (submit node) can reach `node` over the flow
  /// network. A rack cut makes a healthy startd unmatchable and its idle
  /// claims unusable; the negotiator re-polls via kick_negotiator, so the
  /// pool picks the workers back up as soon as the cut heals.
  [[nodiscard]] bool reachable(const cluster::Node& node) const;
  /// Inserts into idle_queue_ keeping (priority desc, submission order).
  void enqueue_idle(JobId id);
  /// The record of `id`, which must be a submitted job.
  [[nodiscard]] JobRecord& record(JobId id) { return jobs_[id - 1]; }
  [[nodiscard]] const JobRecord& record(JobId id) const {
    return jobs_[id - 1];
  }

  cluster::Cluster& cluster_;
  cluster::Node& submit_;
  storage::Volume staging_;
  CondorConfig config_;
  std::map<std::string, std::unique_ptr<Startd>> startds_;
  std::vector<Startd*> fill_order_;  // negotiation fill order

  /// Every submitted job, the one with id `id` at `id - 1`: ids are dense
  /// from 1 and no record is erased. A deque, so that the JobRecord&
  /// finish_job and abort_job hold across on_done survives a submit.
  std::deque<JobRecord> jobs_;
  /// Idle jobs, maintained in dispatch order (priority desc, FIFO within
  /// a priority) — the order the former copy+stable_sort produced on
  /// every negotiation/dispatch pass.
  std::vector<JobId> idle_queue_;
  ClaimMap claims_;
  std::uint64_t match_stamp_ = 0;
  ClaimId next_claim_ = 1;
  bool negotiator_armed_ = false;
  bool dispatch_busy_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t cycles_ = 0;
  std::size_t running_ = 0;
  bool test_keep_claims_on_crash_ = false;
};

}  // namespace sf::condor
