#include "pegasus/abstract_workflow.hpp"

#include <algorithm>
#include <set>

namespace sf::pegasus {

std::vector<std::string> AbstractJob::inputs() const {
  std::vector<std::string> out;
  for (const auto& use : uses) {
    if (use.link == LinkType::kInput) out.push_back(use.lfn);
  }
  return out;
}

std::vector<std::string> AbstractJob::outputs() const {
  std::vector<std::string> out;
  for (const auto& use : uses) {
    if (use.link == LinkType::kOutput) out.push_back(use.lfn);
  }
  return out;
}

void AbstractWorkflow::declare_file(const std::string& lfn, double bytes) {
  files_[lfn] = bytes;
}

double AbstractWorkflow::file_bytes(const std::string& lfn) const {
  auto it = files_.find(lfn);
  if (it == files_.end()) {
    throw std::out_of_range("AbstractWorkflow: undeclared file " + lfn);
  }
  return it->second;
}

void AbstractWorkflow::add_job(AbstractJob job) {
  if (index_.contains(job.id)) {
    throw std::invalid_argument("AbstractWorkflow: duplicate job " + job.id);
  }
  for (const auto& use : job.uses) {
    if (!files_.contains(use.lfn)) {
      throw std::invalid_argument("AbstractWorkflow: undeclared file " +
                                  use.lfn + " used by " + job.id);
    }
    if (use.link == LinkType::kOutput) {
      auto [it, inserted] = producer_.emplace(use.lfn, job.id);
      if (!inserted) {
        throw std::invalid_argument("AbstractWorkflow: file " + use.lfn +
                                    " produced twice");
      }
    }
  }
  index_.emplace(job.id, jobs_.size());
  jobs_.push_back(std::move(job));
}

const AbstractJob& AbstractWorkflow::job(const std::string& id) const {
  auto it = index_.find(id);
  if (it == index_.end()) {
    throw std::out_of_range("AbstractWorkflow: no job " + id);
  }
  return jobs_[it->second];
}

std::string AbstractWorkflow::producer_of(const std::string& lfn) const {
  auto it = producer_.find(lfn);
  return it == producer_.end() ? std::string{} : it->second;
}

std::vector<std::string> AbstractWorkflow::initial_inputs() const {
  std::set<std::string> initial;
  for (const auto& j : jobs_) {
    for (const auto& lfn : j.inputs()) {
      if (!producer_.contains(lfn)) initial.insert(lfn);
    }
  }
  return {initial.begin(), initial.end()};
}

std::vector<std::string> AbstractWorkflow::final_outputs() const {
  std::set<std::string> consumed;
  for (const auto& j : jobs_) {
    for (const auto& lfn : j.inputs()) consumed.insert(lfn);
  }
  std::vector<std::string> out;
  for (const auto& [lfn, producer] : producer_) {
    if (!consumed.contains(lfn)) out.push_back(lfn);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> AbstractWorkflow::parents_of(
    const std::string& id) const {
  std::set<std::string> parents;
  for (const auto& lfn : job(id).inputs()) {
    const std::string producer = producer_of(lfn);
    if (!producer.empty()) parents.insert(producer);
  }
  return {parents.begin(), parents.end()};
}

}  // namespace sf::pegasus
