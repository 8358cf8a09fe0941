#include "condor/pool.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "sim/async.hpp"

namespace sf::condor {

const char* to_string(JobState s) {
  switch (s) {
    case JobState::kIdle:
      return "Idle";
    case JobState::kRunning:
      return "Running";
    case JobState::kCompleted:
      return "Completed";
    case JobState::kFailed:
      return "Failed";
    case JobState::kRemoved:
      return "Removed";
  }
  return "Unknown";
}

CondorPool::CondorPool(cluster::Cluster& cluster, cluster::Node& submit_node,
                       std::vector<cluster::Node*> workers,
                       CondorConfig config)
    : cluster_(cluster),
      submit_(submit_node),
      staging_(submit_node, submit_node.name() + ".staging"),
      config_(config) {
  for (cluster::Node* w : workers) {
    const auto it =
        startds_.emplace(w->name(), std::make_unique<Startd>(*w)).first;
    fill_order_.push_back(it->second.get());
    // Startd death / restart: on crash the schedd requeues the node's
    // jobs via DAGMan's retry hook; on recovery the negotiator may carve
    // fresh claims there again.
    w->on_fail([this, name = w->name()] { handle_node_crash(name); });
    w->on_recover([this] {
      pump_dispatch();
      kick_if_unmatched();
    });
  }
}

Startd& CondorPool::startd(const std::string& node_name) {
  auto it = startds_.find(node_name);
  if (it == startds_.end()) {
    throw std::out_of_range("CondorPool: no startd on " + node_name);
  }
  return *it->second;
}

void CondorPool::enqueue_idle(JobId id) {
  const int prio = record(id).spec.priority;
  // First position whose job has strictly lower priority: equal-priority
  // jobs keep submission order, matching the old stable_sort exactly.
  const auto pos = std::upper_bound(
      idle_queue_.begin(), idle_queue_.end(), prio,
      [this](int p, JobId j) { return p > record(j).spec.priority; });
  idle_queue_.insert(pos, id);
}

JobId CondorPool::submit(JobSpec spec) {
  JobRecord& rec = jobs_.emplace_back();
  rec.id = jobs_.size();
  rec.spec = std::move(spec);
  rec.state = JobState::kIdle;
  rec.submit_time = sim().now();
  const JobId id = rec.id;
  enqueue_idle(id);
  sim().trace().record(sim().now(), "condor", "submit",
                       {{"job", rec.spec.name}});
  pump_dispatch();
  kick_if_unmatched();
  return id;
}

bool CondorPool::remove(JobId id) {
  const JobRecord* rec = job(id);
  if (rec == nullptr || rec->state != JobState::kIdle) return false;
  record(id).state = JobState::kRemoved;
  std::erase(idle_queue_, id);
  return true;
}

const JobRecord* CondorPool::job(JobId id) const {
  return id == kNoJob || id > jobs_.size() ? nullptr : &record(id);
}

std::size_t CondorPool::idle_jobs() const { return idle_queue_.size(); }
std::size_t CondorPool::running_jobs() const { return running_; }

bool CondorPool::reachable(const cluster::Node& node) const {
  return !cluster_.network().partitioned(submit_.net_id(), node.net_id());
}

bool CondorPool::claim_fits(const Claim& claim,
                            const JobRecord& rec) const {
  if (claim.busy || claim.cpus < rec.spec.request_cpus ||
      claim.memory < rec.spec.request_memory) {
    return false;
  }
  // A claim on a partitioned worker is held but unusable: activating it
  // would strand the shadow's stage-in against a dead link.
  if (!reachable(claim.startd->node())) return false;
  return !rec.spec.requirements || rec.spec.requirements(*claim.startd);
}

bool CondorPool::reserve_claim(const JobRecord& rec, ShapeCursors& cursors) {
  // Claims negotiate() carves mid-pass get higher ids and are born
  // reserved, so a cursor never skips a claim this job could take.
  ClaimMap::iterator* cursor = nullptr;
  auto it = claims_.begin();
  if (!rec.spec.requirements) {
    const Shape shape{rec.spec.request_cpus, rec.spec.request_memory};
    cursor = &cursors.try_emplace(shape, it).first->second;
    it = *cursor;
  }
  for (; it != claims_.end(); ++it) {
    Claim& claim = it->second;
    if (claim.reserved_stamp != match_stamp_ && claim_fits(claim, rec)) {
      claim.reserved_stamp = match_stamp_;
      if (cursor != nullptr) *cursor = std::next(it);
      return true;
    }
  }
  if (cursor != nullptr) *cursor = it;
  return false;
}

bool CondorPool::has_unmatched_idle() {
  // Greedy matching of idle jobs (priority order) against free claims,
  // stopping at the first job no free claim fits. Reservation uses the
  // per-claim stamp — no set insertions on this per-submit path.
  ++match_stamp_;
  ShapeCursors cursors;
  for (const JobId jid : idle_queue_) {
    if (!reserve_claim(record(jid), cursors)) return true;
  }
  return false;
}

void CondorPool::kick_if_unmatched() {
  if (!negotiator_armed_ && has_unmatched_idle()) kick_negotiator();
}

// ---- Negotiator ----------------------------------------------------------

void CondorPool::kick_negotiator() {
  if (negotiator_armed_) return;
  negotiator_armed_ = true;
  sim().call_in(config_.negotiation_interval_s, [this] { negotiate(); });
}

void CondorPool::negotiate() {
  negotiator_armed_ = false;
  ++cycles_;
  sim().trace().record(sim().now(), "condor", "negotiate",
                       {{"cycle", std::to_string(cycles_)}});
  // Grant one claim per unmatched idle job while resources last. Workers
  // are filled in round-robin order for spread (condor's default breadth-
  // first fill when slot weights are equal).
  // For each unmatched idle job (priority order), carve a claim on the
  // first machine that fits its shape and satisfies its requirements.
  ++match_stamp_;
  ShapeCursors claim_cursors;
  std::size_t cursor = 0;
  for (const JobId jid : idle_queue_) {
    const JobRecord& rec = record(jid);
    if (reserve_claim(rec, claim_cursors)) continue;
    for (std::size_t i = 0; i < fill_order_.size(); ++i) {
      Startd& sd = *fill_order_[(cursor + i) % fill_order_.size()];
      if (!sd.node().up()) continue;  // dead startds advertise nothing
      // Partitioned startds can't deliver their ClassAd to the collector.
      if (!reachable(sd.node())) continue;
      if (rec.spec.requirements && !rec.spec.requirements(sd)) continue;
      const auto slot =
          sd.claim_slot(rec.spec.request_cpus, rec.spec.request_memory);
      if (slot.has_value()) {
        Claim claim;
        claim.node_name = sd.node().name();
        claim.startd = &sd;
        claim.slot = *slot;
        claim.cpus = rec.spec.request_cpus;
        claim.memory = rec.spec.request_memory;
        claim.reserved_stamp = match_stamp_;
        const ClaimId cid = next_claim_++;
        claims_.emplace(cid, std::move(claim));
        cursor = (cursor + i + 1) % fill_order_.size();
        break;
      }
    }
  }
  pump_dispatch();
  kick_if_unmatched();
}

// ---- Schedd dispatch ------------------------------------------------------

void CondorPool::pump_dispatch() {
  if (dispatch_busy_ || idle_queue_.empty()) return;
  if (config_.max_running_jobs > 0 &&
      running_ >= static_cast<std::size_t>(config_.max_running_jobs)) {
    return;
  }
  // Highest-priority idle job that has a free fitting claim (FIFO ties).
  JobId jid = kNoJob;
  ClaimId chosen = 0;
  for (const JobId candidate : idle_queue_) {
    const JobRecord& rec = record(candidate);
    for (auto& [cid, claim] : claims_) {
      if (claim_fits(claim, rec)) {
        jid = candidate;
        chosen = cid;
        break;
      }
    }
    if (jid != kNoJob) break;
  }
  if (jid == kNoJob) {
    kick_negotiator();
    return;
  }
  std::erase(idle_queue_, jid);
  Claim& cl = claims_.at(chosen);
  cl.busy = true;
  cl.job = jid;
  JobRecord& rec = record(jid);
  rec.state = JobState::kRunning;
  ++running_;
  dispatch_busy_ = true;
  const std::uint64_t epoch = rec.attempt;
  // Serialized activation: the shadow-spawn pipeline.
  sim().call_in(config_.dispatch_interval_s, [this, jid, chosen, epoch] {
    dispatch_busy_ = false;
    if (attempt_live(jid, epoch)) start_job(jid, chosen, epoch);
    pump_dispatch();
  });
}

bool CondorPool::attempt_live(JobId id, std::uint64_t epoch) const {
  const JobRecord* rec = job(id);
  return rec != nullptr && rec->attempt == epoch &&
         rec->state == JobState::kRunning;
}

void CondorPool::start_job(JobId id, ClaimId claim_id, std::uint64_t epoch) {
  const Claim& claim = claims_.at(claim_id);
  JobRecord& rec = record(id);
  rec.worker = claim.node_name;
  sim().trace().record(sim().now(), "condor", "job_start",
                       {{"job", rec.spec.name}, {"node", claim.node_name}});
  // Worker-side setup (starter + wrapper), then stage-in. Every
  // continuation from here on re-checks attempt_live: a node crash aborts
  // the attempt out from under these callbacks and erases the claim.
  sim().call_in(config_.job_setup_overhead_s, [this, id, claim_id, epoch] {
    if (!attempt_live(id, epoch)) return;
    Startd& sd = *claims_.at(claim_id).startd;
    // Stage inputs sequentially, as pegasus-lite does.
    sim::for_each_async(
        record(id).spec.inputs.size(),
        [this, id, epoch, &sd](std::size_t i, sim::AsyncNext next) {
          const JobSpec& spec = record(id).spec;
          if (spec.submit_volume == nullptr) {
            next(false);
            return;
          }
          // A dead attempt drops `next`, which ends and frees the loop.
          storage::stage_file(
              cluster_.network(), *spec.submit_volume, sd.scratch(),
              spec.inputs[i].lfn,
              [this, id, epoch, next = std::move(next)](bool ok) {
                if (attempt_live(id, epoch)) next(ok);
              });
        },
        [this, id, claim_id, epoch](bool ok) {
          if (ok) {
            run_executable(id, claim_id, epoch);
          } else {
            finish_job(id, claim_id, epoch, false);
          }
        });
  });
}

void CondorPool::run_executable(JobId id, ClaimId claim_id,
                                std::uint64_t epoch) {
  JobRecord& rec = record(id);
  rec.start_time = sim().now();
  Startd& sd = *claims_.at(claim_id).startd;
  auto ctx = std::make_shared<ExecContext>();
  ctx->sim = &sim();
  ctx->node = &sd.node();
  ctx->scratch = &sd.scratch();
  ctx->cpus = rec.spec.request_cpus;
  if (!rec.spec.executable) {
    finish_job(id, claim_id, epoch, false);
    return;
  }
  rec.spec.executable(*ctx, [this, id, claim_id, epoch, ctx](bool ok) {
    if (!attempt_live(id, epoch)) return;
    if (!ok) {
      finish_job(id, claim_id, epoch, false);
      return;
    }
    // Stage outputs back to the submit node sequentially.
    Startd& sd2 = *claims_.at(claim_id).startd;
    sim::for_each_async(
        record(id).spec.outputs.size(),
        [this, id, epoch, &sd2](std::size_t i, sim::AsyncNext next) {
          const JobSpec& spec = record(id).spec;
          if (spec.submit_volume == nullptr) {
            next(false);
            return;
          }
          storage::stage_file(
              cluster_.network(), sd2.scratch(), *spec.submit_volume,
              spec.outputs[i],
              [this, id, epoch, next = std::move(next)](bool staged) {
                if (attempt_live(id, epoch)) next(staged);
              });
        },
        [this, id, claim_id, epoch](bool staged) {
          finish_job(id, claim_id, epoch, staged);
        });
  });
}

void CondorPool::finish_job(JobId id, ClaimId claim_id, std::uint64_t epoch,
                            bool ok) {
  if (!attempt_live(id, epoch)) return;
  JobRecord& rec = record(id);
  rec.state = ok ? JobState::kCompleted : JobState::kFailed;
  rec.end_time = sim().now();
  --running_;
  (ok ? completed_ : failed_)++;
  sim().trace().record(sim().now(), "condor",
                       ok ? "job_complete" : "job_failed",
                       {{"job", rec.spec.name}});
  auto it = claims_.find(claim_id);
  if (it != claims_.end()) {
    it->second.busy = false;
    it->second.job = kNoJob;
    ++it->second.idle_epoch;
    arm_claim_timeout(claim_id);
  }
  // Copy the handler: pump/dispatch below must not race with reentrant
  // submits from the callback.
  if (rec.spec.on_done) {
    auto cb = rec.spec.on_done;
    cb(rec);
  }
  pump_dispatch();
}

void CondorPool::abort_job(JobId id) {
  JobRecord& rec = record(id);
  if (rec.state != JobState::kRunning) return;
  rec.state = JobState::kFailed;
  rec.end_time = sim().now();
  // Invalidate every continuation the dead attempt still has in flight
  // (dispatch timers, stage callbacks, exec completions).
  ++rec.attempt;
  --running_;
  ++failed_;
  ++aborted_;
  sim().trace().record(sim().now(), "condor", "job_aborted",
                       {{"job", rec.spec.name}, {"node", rec.worker}});
  if (rec.spec.on_done) {
    auto cb = rec.spec.on_done;
    cb(rec);  // DAGMan's retry path resubmits as a fresh JobId
  }
}

void CondorPool::handle_node_crash(const std::string& node_name) {
  // Drop the node's claims and reset its startd BEFORE aborting victims:
  // abort_job fires on_done, whose resubmits must not match dead claims.
  std::vector<JobId> victims;
  for (auto it = claims_.begin(); it != claims_.end();) {
    if (it->second.node_name != node_name) {
      ++it;
      continue;
    }
    if (it->second.busy && it->second.job != kNoJob) {
      victims.push_back(it->second.job);
    }
    if (test_keep_claims_on_crash_) {
      ++it;  // planted bug: leak the dead node's claims (see pool.hpp)
    } else {
      it = claims_.erase(it);
    }
  }
  if (!test_keep_claims_on_crash_) startds_.at(node_name)->reset();
  sim().trace().record(sim().now(), "condor", "startd_death",
                       {{"node", node_name},
                        {"victims", std::to_string(victims.size())}});
  for (const JobId jid : victims) abort_job(jid);
  pump_dispatch();
  kick_if_unmatched();
}

std::vector<std::string> CondorPool::self_check() const {
  std::vector<std::string> out;
  constexpr double kEps = 1e-9;

  // State tallies vs counters.
  std::size_t idle = 0;
  std::size_t running = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  for (const JobRecord& rec : jobs_) {
    switch (rec.state) {
      case JobState::kIdle:
        ++idle;
        break;
      case JobState::kRunning:
        ++running;
        break;
      case JobState::kCompleted:
        ++completed;
        break;
      case JobState::kFailed:
        ++failed;
        break;
      case JobState::kRemoved:
        break;
    }
  }
  if (running != running_) {
    out.push_back("running tally " + std::to_string(running) +
                  " != counter " + std::to_string(running_));
  }
  if (completed != completed_) {
    out.push_back("completed tally " + std::to_string(completed) +
                  " != counter " + std::to_string(completed_));
  }
  if (failed != failed_) {
    out.push_back("failed tally " + std::to_string(failed) +
                  " != counter " + std::to_string(failed_));
  }
  if (idle != idle_queue_.size()) {
    out.push_back("idle tally " + std::to_string(idle) + " != queue size " +
                  std::to_string(idle_queue_.size()));
  }
  for (const JobId jid : idle_queue_) {
    const JobRecord* rec = job(jid);
    if (rec == nullptr || rec->state != JobState::kIdle) {
      out.push_back("idle queue holds non-idle job " + std::to_string(jid));
    }
  }

  // Claims: live startds only, busy ⇔ running job, per-node accounting.
  std::map<std::string, double> node_cpus;
  std::map<std::string, double> node_memory;
  std::map<std::string, std::size_t> node_claims;
  for (const auto& [cid, claim] : claims_) {
    if (claim.startd == nullptr || !claim.startd->node().up()) {
      out.push_back("claim " + std::to_string(cid) + " on down node " +
                    claim.node_name);
      continue;
    }
    node_cpus[claim.node_name] += claim.cpus;
    node_memory[claim.node_name] += claim.memory;
    ++node_claims[claim.node_name];
    if (claim.busy) {
      const JobRecord* rec = job(claim.job);
      if (rec == nullptr || rec->state != JobState::kRunning) {
        out.push_back("busy claim " + std::to_string(cid) + " on " +
                      claim.node_name + " has no running job");
      } else if (rec->worker != claim.node_name && !rec->worker.empty()) {
        out.push_back("claim " + std::to_string(cid) + " node " +
                      claim.node_name + " != job worker " + rec->worker);
      }
    } else if (claim.job != kNoJob) {
      out.push_back("idle claim " + std::to_string(cid) +
                    " still references job " + std::to_string(claim.job));
    }
  }
  for (const auto& [name, sd] : startds_) {
    const cluster::NodeSpec& spec = sd->node().spec();
    if (sd->free_cpus() < -kEps || sd->free_memory() < -kEps) {
      out.push_back("startd " + name + " has negative free resources");
    }
    if (std::abs(sd->free_cpus() + sd->claimed_cpus() - spec.cores) > 1e-6) {
      out.push_back("startd " + name + " cpu accounting drifted: free " +
                    std::to_string(sd->free_cpus()) + " + claimed " +
                    std::to_string(sd->claimed_cpus()) + " != " +
                    std::to_string(spec.cores));
    }
    if (std::abs(sd->free_memory() + sd->claimed_memory() -
                 spec.memory_bytes) > 1.0) {
      out.push_back("startd " + name + " memory accounting drifted");
    }
    const auto it = node_claims.find(name);
    const std::size_t pool_claims = it == node_claims.end() ? 0 : it->second;
    if (pool_claims != sd->dynamic_slots()) {
      out.push_back("startd " + name + " has " +
                    std::to_string(sd->dynamic_slots()) +
                    " dynamic slots but the pool holds " +
                    std::to_string(pool_claims) + " claims there");
    }
    const auto cit = node_cpus.find(name);
    if (cit != node_cpus.end() && cit->second > spec.cores + 1e-6) {
      out.push_back("claims on " + name + " oversubscribe cpus: " +
                    std::to_string(cit->second));
    }
    const auto mit = node_memory.find(name);
    if (mit != node_memory.end() && mit->second > spec.memory_bytes + 1.0) {
      out.push_back("claims on " + name + " oversubscribe memory");
    }
  }
  return out;
}

void CondorPool::arm_claim_timeout(ClaimId claim_id) {
  const auto it = claims_.find(claim_id);
  if (it == claims_.end()) return;
  const std::uint64_t epoch = it->second.idle_epoch;
  sim().call_in(config_.claim_idle_timeout_s, [this, claim_id, epoch] {
    auto jt = claims_.find(claim_id);
    if (jt == claims_.end() || jt->second.busy ||
        jt->second.idle_epoch != epoch) {
      return;  // claim was reused or already gone
    }
    jt->second.startd->release_slot(jt->second.slot);
    claims_.erase(jt);
  });
}

}  // namespace sf::condor
