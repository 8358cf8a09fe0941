#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>

#include "cluster/node.hpp"

namespace sf::storage {

/// A logical file: name plus size. The simulation tracks metadata only —
/// actual contents live in typed payloads where needed.
struct FileRef {
  std::string lfn;  ///< logical file name
  double bytes = 0;

  friend bool operator==(const FileRef&, const FileRef&) = default;
};

/// A directory-like file store on one node's local disk. Reads and writes
/// pay the node's disk bandwidth; `put_instant` seeds pre-existing data
/// (e.g. the workflow's initial input matrices on the submit node).
class Volume {
 public:
  Volume(cluster::Node& node, std::string name);

  Volume(const Volume&) = delete;
  Volume& operator=(const Volume&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] cluster::Node& node() { return node_; }
  [[nodiscard]] const cluster::Node& node() const { return node_; }

  [[nodiscard]] bool contains(const std::string& lfn) const {
    return files_.contains(lfn);
  }
  [[nodiscard]] std::optional<FileRef> stat(const std::string& lfn) const;
  [[nodiscard]] std::size_t file_count() const { return files_.size(); }
  [[nodiscard]] double total_bytes() const;

  /// Writes a file, paying disk bandwidth. Overwrites silently.
  void write(const FileRef& file, std::function<void()> on_done);

  /// Reads a file, paying disk bandwidth. `on_done(found, file)`; when the
  /// file is absent, fires immediately with found=false.
  void read(const std::string& lfn,
            std::function<void(bool found, FileRef file)> on_done);

  /// Bookkeeping-only insertion (no simulated I/O cost).
  void put_instant(const FileRef& file) { files_[file.lfn] = file.bytes; }

  /// Removes a file; returns true iff it existed.
  bool remove(const std::string& lfn) { return files_.erase(lfn) > 0; }

 private:
  cluster::Node& node_;
  std::string name_;
  std::unordered_map<std::string, double> files_;  // lfn → bytes
};

/// Copies `lfn` from `src` to `dst`: source disk read, network transfer,
/// destination disk write, in sequence. `on_done(ok)` fires with ok=false
/// when the source lacks the file.
void stage_file(net::FlowNetwork& network, Volume& src, Volume& dst,
                const std::string& lfn, std::function<void(bool ok)> on_done);

}  // namespace sf::storage
