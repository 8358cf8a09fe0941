#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "condor/pool.hpp"

namespace sf::condor {

/// One node of an executable workflow DAG.
struct DagNode {
  std::string name;
  JobSpec job;
  std::vector<std::string> parents;
  int retries = 0;  ///< automatic resubmissions on failure
};

/// DAGMan knobs.
struct DagConfig {
  /// DAGMan observes job completions by polling the user log; children
  /// become submittable only at the next scan boundary. This is a real
  /// per-hop latency of sequential Pegasus/condor workflows.
  double scan_interval_s = 5.0;
  /// Max jobs submitted to the schedd at once (0 = unlimited); the
  /// throttle the paper relied on to avoid overrunning the cluster.
  int max_jobs = 0;
  /// POST-script runtime charged after every node's job exits (Pegasus
  /// runs pegasus-exitcode per node); the node's completion is only
  /// observed at the scan boundary after the POST finishes. POSTs run
  /// concurrently across nodes, so this delays sequential hops without
  /// affecting parallel throughput.
  double post_script_s = 0.0;
};

/// Condor DAGMan: releases workflow nodes to the schedd as their parents
/// complete, with log-scan batching, retry handling and submission
/// throttling.
class DagMan {
 public:
  DagMan(CondorPool& pool, DagConfig config = {});

  DagMan(const DagMan&) = delete;
  DagMan& operator=(const DagMan&) = delete;

  /// Adds a node; all parents must be added before run(). Throws on
  /// duplicate names or (at run time) unknown parents / cycles.
  void add_node(DagNode node);

  /// Starts the DAG. `on_finish(success)` fires when every node completed
  /// or a node exhausted its retries. Makespan is measured from here.
  void run(std::function<void(bool success)> on_finish);

  [[nodiscard]] bool running() const { return running_; }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t completed_nodes() const { return completed_; }
  [[nodiscard]] double start_time() const { return start_time_; }
  [[nodiscard]] double makespan() const { return finish_time_ - start_time_; }
  [[nodiscard]] std::uint64_t total_retries() const { return retries_used_; }

  /// Per-node timing (valid after the node ran): submit/start/end from the
  /// last attempt's JobRecord.
  [[nodiscard]] const JobRecord* node_record(const std::string& name) const;

  /// How many DAG nodes sit in each lifecycle state right now.
  struct StateCounts {
    std::size_t waiting = 0;
    std::size_t ready = 0;
    std::size_t submitted = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
  };
  [[nodiscard]] StateCounts state_counts() const;

  /// Conservation audit for the invariant registry (sf::check): every DAG
  /// task is in exactly one state, the per-state tallies agree with the
  /// counters and queues, and retry bookkeeping is sane (a kFailed node
  /// exhausted its budget; attempts never exceed retries + 1). Returns one
  /// message per violation. Pure read.
  [[nodiscard]] std::vector<std::string> self_check() const;

 private:
  enum class NodeState { kWaiting, kReady, kSubmitted, kDone, kFailed };
  /// A node's position in nodes_; local to this DagMan.
  using NodeIndex = std::uint32_t;
  struct Node {
    DagNode spec;
    NodeState state = NodeState::kWaiting;
    std::size_t unfinished_parents = 0;
    std::vector<NodeIndex> children;  ///< in name order
    int attempts = 0;
    JobId last_job = kNoJob;
  };

  /// Sorts the nodes by name into by_name_, resolves parent names, lists
  /// each node's children in name order and checks for cycles. run()
  /// queues the roots in the same order. That order fixes the submit
  /// order, and with it JobIds and claim choices.
  void validate_and_link();
  void scan();
  void arm_scan();
  void submit_ready();
  void on_job_done(NodeIndex i, const JobRecord& rec);
  void handle_node_exit(NodeIndex i, JobState state);
  void finish(bool success);

  CondorPool& pool_;
  DagConfig config_;
  std::vector<Node> nodes_;                           // add order
  std::unordered_map<std::string, NodeIndex> index_;  // name → position
  std::vector<NodeIndex> by_name_;  // every node, in name order, from run()
  std::deque<NodeIndex> ready_;     // FIFO of submittable nodes
  std::vector<NodeIndex> completed_events_;  // awaiting next scan
  bool running_ = false;
  bool scan_armed_ = false;
  bool failed_ = false;
  std::size_t completed_ = 0;
  std::size_t submitted_live_ = 0;
  double start_time_ = 0;
  double finish_time_ = 0;
  std::uint64_t retries_used_ = 0;
  std::function<void(bool)> on_finish_;
};

}  // namespace sf::condor
