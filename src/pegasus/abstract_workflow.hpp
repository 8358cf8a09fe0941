#pragma once

#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace sf::pegasus {

/// Direction of a file use, as in the Pegasus workflow API.
enum class LinkType { kInput, kOutput };

struct Use {
  std::string lfn;
  LinkType link = LinkType::kInput;
};

/// One task of the abstract (site-independent) workflow: a reference to a
/// transformation plus its file uses. Dependencies are inferred from
/// producer→consumer file relationships, exactly as Pegasus does.
struct AbstractJob {
  std::string id;
  std::string transformation;
  std::vector<Use> uses;

  [[nodiscard]] std::vector<std::string> inputs() const;
  [[nodiscard]] std::vector<std::string> outputs() const;
};

/// A DAX: the abstract workflow the scientist writes, with declared file
/// sizes (needed up front for transfer planning).
class AbstractWorkflow {
 public:
  explicit AbstractWorkflow(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Declares a logical file and its expected size in bytes.
  void declare_file(const std::string& lfn, double bytes);

  [[nodiscard]] double file_bytes(const std::string& lfn) const;
  [[nodiscard]] bool has_file(const std::string& lfn) const {
    return files_.contains(lfn);
  }

  /// Adds a job. Every used lfn must have been declared. Throws on
  /// duplicate ids or two producers of the same file.
  void add_job(AbstractJob job);

  [[nodiscard]] const std::vector<AbstractJob>& jobs() const { return jobs_; }
  [[nodiscard]] const AbstractJob& job(const std::string& id) const;

  /// The job producing `lfn`, or "" for workflow-initial inputs.
  [[nodiscard]] std::string producer_of(const std::string& lfn) const;

  /// Files no job produces: must come from the replica catalog.
  [[nodiscard]] std::vector<std::string> initial_inputs() const;

  /// Files no job consumes: the workflow's final products, sorted.
  [[nodiscard]] std::vector<std::string> final_outputs() const;

  /// Parent job ids of `id`, inferred from file dependencies.
  [[nodiscard]] std::vector<std::string> parents_of(
      const std::string& id) const;

 private:
  std::string name_;
  std::vector<AbstractJob> jobs_;
  std::unordered_map<std::string, std::size_t> index_;  // id → jobs_ position
  std::unordered_map<std::string, double> files_;        // lfn → bytes
  std::unordered_map<std::string, std::string> producer_;  // lfn → job id
};

}  // namespace sf::pegasus
