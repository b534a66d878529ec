#ifndef APMBENCH_LSM_VERSION_H_
#define APMBENCH_LSM_VERSION_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "lsm/options.h"

namespace apmbench::lsm {

/// Metadata of one SSTable known to the database.
struct FileMeta {
  uint64_t number = 0;
  uint64_t file_size = 0;
  uint64_t num_entries = 0;
  /// On-disk table format the file was written with (kTableFormatV2).
  /// The table footer remains authoritative (Table::Open reads it); this
  /// field keeps the manifest record layout stable.
  uint32_t format_version = 0;
  std::string smallest;
  std::string largest;
};

/// A batch of metadata changes applied atomically: files added to a level
/// and files removed (identified by number, from any level).
struct VersionEdit {
  struct Addition {
    int level;
    FileMeta file;
  };
  std::vector<Addition> added;
  std::vector<uint64_t> removed;
  /// When set (non-zero), updates the WAL number whose contents are now
  /// fully contained in SSTables.
  uint64_t log_number = 0;
  bool has_log_number = false;
};

/// Tracks the live set of SSTables per level plus the file-number,
/// sequence-number, and WAL counters. Persisted as a whole-state MANIFEST
/// file rewritten atomically (write temp + rename) on every change; at the
/// scale of this engine the rewrite is a few kilobytes.
///
/// Level usage: size-tiered compaction keeps every table in level 0;
/// leveled compaction uses levels 0..kNumLevels-1 with disjoint key ranges
/// within levels >= 1.
///
/// Thread-compatibility: externally synchronized by the DB mutex.
class VersionSet {
 public:
  VersionSet(const Options& options, Env* env);

  /// Loads the MANIFEST if present; `*found` reports whether one existed.
  Status Recover(bool* found);

  /// Applies `edit` in memory and persists the new state.
  Status LogAndApply(const VersionEdit& edit);

  /// Thread-safe: table/WAL numbers are allocated by background work
  /// while writers hold the DB mutex.
  uint64_t NewFileNumber() { return next_file_number_.fetch_add(1); }
  /// Exposes the counter so recovery can bump it past replayed WAL files.
  void BumpFileNumber(uint64_t floor) {
    uint64_t cur = next_file_number_.load();
    while (cur <= floor && !next_file_number_.compare_exchange_weak(cur, floor + 1)) {
    }
  }

  uint64_t last_seq() const { return last_seq_; }
  void set_last_seq(uint64_t seq) { last_seq_ = seq; }

  uint64_t log_number() const { return log_number_; }
  void set_log_number(uint64_t n) { log_number_ = n; }

  const std::vector<FileMeta>& files(int level) const {
    return levels_[level];
  }
  int NumFiles(int level) const {
    return static_cast<int>(levels_[level].size());
  }
  uint64_t LevelBytes(int level) const;
  int NumLevels() const { return Options::kNumLevels; }
  uint64_t TotalFiles() const;

  /// Persists current state; called internally by LogAndApply, exposed for
  /// the initial manifest of a fresh database.
  Status Persist();

  // --- In-flight compaction claims (externally synchronized, like the
  // rest of this class). A compaction job claims its input files at pick
  // time; picking skips claimed files, so two concurrently running jobs
  // can never merge overlapping inputs. Claims survive until the job
  // releases them (success or failure).

  /// True if any file in `files` is claimed by an in-flight job.
  bool AnyClaimed(const std::vector<FileMeta>& files) const;
  bool IsClaimed(uint64_t number) const {
    return claimed_.count(number) != 0;
  }
  void ClaimFiles(const std::vector<FileMeta>& files);
  void ReleaseFiles(const std::vector<FileMeta>& files);
  size_t NumClaimed() const { return claimed_.size(); }

  /// Round-robin cursor for picking the next file to compact out of
  /// `level` (LevelDB's compact_pointer_): the largest key of the last
  /// compacted file. Empty = start from the beginning.
  const std::string& CompactPointer(int level) const {
    return compact_pointer_[level];
  }
  void SetCompactPointer(int level, std::string key) {
    compact_pointer_[level] = std::move(key);
  }

 private:
  std::string ManifestPath() const;

  const Options& options_;
  Env* env_;
  std::vector<std::vector<FileMeta>> levels_;
  std::atomic<uint64_t> next_file_number_{1};
  uint64_t last_seq_ = 0;
  uint64_t log_number_ = 0;
  std::unordered_set<uint64_t> claimed_;
  std::vector<std::string> compact_pointer_{Options::kNumLevels};
};

}  // namespace apmbench::lsm

#endif  // APMBENCH_LSM_VERSION_H_
