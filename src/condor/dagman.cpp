#include "condor/dagman.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace sf::condor {

DagMan::DagMan(CondorPool& pool, DagConfig config)
    : pool_(pool), config_(config) {}

void DagMan::add_node(DagNode node) {
  if (running_) {
    throw std::logic_error("DagMan: cannot add nodes while running");
  }
  const auto index = static_cast<NodeIndex>(nodes_.size());
  if (!index_.emplace(node.name, index).second) {
    throw std::invalid_argument("DagMan: duplicate node " + node.name);
  }
  nodes_.emplace_back().spec = std::move(node);
}

void DagMan::validate_and_link() {
  by_name_.resize(nodes_.size());
  std::iota(by_name_.begin(), by_name_.end(), NodeIndex{0});
  std::sort(by_name_.begin(), by_name_.end(), [this](NodeIndex a, NodeIndex b) {
    return nodes_[a].spec.name < nodes_[b].spec.name;
  });
  for (const NodeIndex i : by_name_) {
    Node& node = nodes_[i];
    node.unfinished_parents = node.spec.parents.size();
    for (const auto& parent : node.spec.parents) {
      const auto it = index_.find(parent);
      if (it == index_.end()) {
        throw std::invalid_argument("DagMan: unknown parent " + parent +
                                    " of " + node.spec.name);
      }
      nodes_[it->second].children.push_back(i);
    }
  }
  // Cycle check: Kahn's algorithm over parent counts.
  std::vector<NodeIndex> frontier;
  std::vector<std::size_t> degree(nodes_.size());
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    degree[i] = nodes_[i].spec.parents.size();
    if (degree[i] == 0) frontier.push_back(i);
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const NodeIndex current = frontier.back();
    frontier.pop_back();
    ++visited;
    for (const NodeIndex child : nodes_[current].children) {
      if (--degree[child] == 0) frontier.push_back(child);
    }
  }
  if (visited != nodes_.size()) {
    throw std::invalid_argument("DagMan: the DAG contains a cycle");
  }
}

void DagMan::run(std::function<void(bool)> on_finish) {
  if (running_) throw std::logic_error("DagMan: already running");
  if (nodes_.empty()) {
    pool_.sim().call_in(0, [cb = std::move(on_finish)] { cb(true); });
    return;
  }
  validate_and_link();
  running_ = true;
  failed_ = false;
  on_finish_ = std::move(on_finish);
  start_time_ = pool_.sim().now();
  for (const NodeIndex i : by_name_) {
    Node& node = nodes_[i];
    if (node.unfinished_parents == 0) {
      node.state = NodeState::kReady;
      ready_.push_back(i);
    }
  }
  submit_ready();  // roots go straight to the schedd
}

void DagMan::submit_ready() {
  while (!ready_.empty()) {
    if (config_.max_jobs > 0 &&
        submitted_live_ >= static_cast<std::size_t>(config_.max_jobs)) {
      return;  // throttled; resumes when something completes
    }
    const NodeIndex i = ready_.front();
    ready_.pop_front();
    Node& node = nodes_[i];
    node.state = NodeState::kSubmitted;
    ++node.attempts;
    ++submitted_live_;
    JobSpec spec = node.spec.job;
    spec.name = node.spec.name;
    spec.on_done = [this, i](const JobRecord& rec) { on_job_done(i, rec); };
    node.last_job = pool_.submit(std::move(spec));
  }
}

void DagMan::on_job_done(NodeIndex i, const JobRecord& rec) {
  // The POST script (exitcode check) runs first; its runtime delays when
  // DAGMan can observe the node's outcome.
  const JobState state = rec.state;
  if (config_.post_script_s > 0) {
    pool_.sim().call_in(config_.post_script_s,
                        [this, i, state] { handle_node_exit(i, state); });
    return;
  }
  handle_node_exit(i, state);
}

void DagMan::handle_node_exit(NodeIndex i, JobState state) {
  Node& node = nodes_[i];
  --submitted_live_;
  if (state == JobState::kCompleted) {
    completed_events_.push_back(i);
    arm_scan();
    return;
  }
  // Failure path: retry or declare the DAG failed.
  if (node.attempts <= node.spec.retries) {
    ++retries_used_;
    node.state = NodeState::kReady;
    ready_.push_back(i);
    arm_scan();
    return;
  }
  node.state = NodeState::kFailed;
  finish(false);
}

void DagMan::arm_scan() {
  if (scan_armed_ || !running_) return;
  scan_armed_ = true;
  // Completions are observed at the next log-scan boundary relative to
  // the DAG start, the way dagman polls the user log.
  const double elapsed = pool_.sim().now() - start_time_;
  const double next_boundary =
      (std::floor(elapsed / config_.scan_interval_s) + 1.0) *
      config_.scan_interval_s;
  pool_.sim().call_in(next_boundary - elapsed, [this] { scan(); });
}

void DagMan::scan() {
  scan_armed_ = false;
  if (!running_) return;
  // Process completions observed in this scan.
  for (const NodeIndex i : completed_events_) {
    Node& node = nodes_[i];
    node.state = NodeState::kDone;
    ++completed_;
    for (const NodeIndex c : node.children) {
      Node& child = nodes_[c];
      if (--child.unfinished_parents == 0 &&
          child.state == NodeState::kWaiting) {
        child.state = NodeState::kReady;
        ready_.push_back(c);
      }
    }
  }
  completed_events_.clear();
  if (completed_ == nodes_.size()) {
    finish(true);
    return;
  }
  submit_ready();
}

void DagMan::finish(bool success) {
  if (!running_) return;
  running_ = false;
  failed_ = !success;
  finish_time_ = pool_.sim().now();
  if (on_finish_) {
    auto cb = std::move(on_finish_);
    on_finish_ = nullptr;
    cb(success);
  }
}

DagMan::StateCounts DagMan::state_counts() const {
  StateCounts c;
  for (const Node& node : nodes_) {
    switch (node.state) {
      case NodeState::kWaiting:
        ++c.waiting;
        break;
      case NodeState::kReady:
        ++c.ready;
        break;
      case NodeState::kSubmitted:
        ++c.submitted;
        break;
      case NodeState::kDone:
        ++c.done;
        break;
      case NodeState::kFailed:
        ++c.failed;
        break;
    }
  }
  return c;
}

std::vector<std::string> DagMan::self_check() const {
  std::vector<std::string> out;
  const StateCounts c = state_counts();
  if (c.waiting + c.ready + c.submitted + c.done + c.failed !=
      nodes_.size()) {
    out.push_back("state tallies do not cover every node");
  }
  if (c.done != completed_) {
    out.push_back("done tally " + std::to_string(c.done) +
                  " != completed counter " + std::to_string(completed_));
  }
  if (c.ready != ready_.size()) {
    out.push_back("ready tally " + std::to_string(c.ready) +
                  " != ready queue size " + std::to_string(ready_.size()));
  }
  // Post scripts and the log-scan lag keep finished nodes in kSubmitted for
  // a while, so submitted_live_ only lower-bounds the submitted tally.
  if (c.submitted < submitted_live_) {
    out.push_back("submitted tally " + std::to_string(c.submitted) +
                  " below live counter " + std::to_string(submitted_live_));
  }
  for (const NodeIndex i : ready_) {
    if (nodes_[i].state != NodeState::kReady) {
      out.push_back("ready queue holds non-ready node " + nodes_[i].spec.name);
    }
  }
  for (const NodeIndex i : completed_events_) {
    if (nodes_[i].state != NodeState::kSubmitted) {
      out.push_back("completion backlog holds non-submitted node " +
                    nodes_[i].spec.name);
    }
  }
  // Name order. Nodes added after the last run() were never submitted, so
  // none of these checks can fail for one that by_name_ does not list yet.
  for (const NodeIndex i : by_name_) {
    const Node& node = nodes_[i];
    const std::string& name = node.spec.name;
    if (node.attempts > node.spec.retries + 1) {
      out.push_back("node " + name + " ran " +
                    std::to_string(node.attempts) +
                    " attempts with a budget of " +
                    std::to_string(node.spec.retries + 1));
    }
    if (node.state == NodeState::kFailed &&
        node.attempts != node.spec.retries + 1) {
      out.push_back("node " + name + " failed without exhausting retries");
    }
    if (running_ && node.state == NodeState::kWaiting &&
        node.unfinished_parents == 0) {
      out.push_back("node " + name + " is waiting with no unfinished parents");
    }
  }
  if (failed_ && c.failed == 0 && !nodes_.empty()) {
    out.push_back("DAG marked failed but no node is");
  }
  return out;
}

const JobRecord* DagMan::node_record(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end() || nodes_[it->second].last_job == kNoJob) {
    return nullptr;
  }
  return pool_.job(nodes_[it->second].last_job);
}

}  // namespace sf::condor
