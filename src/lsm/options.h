#ifndef APMBENCH_LSM_OPTIONS_H_
#define APMBENCH_LSM_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/compression.h"

namespace apmbench {
class Env;
}

namespace apmbench::lsm {

/// How SSTables are grouped for compaction.
enum class CompactionStyle {
  /// Cassandra-style: merge runs of similar-sized tables once
  /// `size_tiered_min_files` of them accumulate in a size bucket.
  kSizeTiered,
  /// LevelDB/HBase-major-compaction style: tiered levels with size budgets;
  /// a table from level n is merged with the overlapping tables of n+1.
  kLeveled,
};

/// Tuning knobs of the LSM engine. Defaults are sized for benchmark
/// datasets of a few hundred MB per instance.
struct Options {
  /// Directory holding WAL, SSTables, and MANIFEST. Must be set.
  std::string dir;

  /// Filesystem to use; Env::Default() when null.
  Env* env = nullptr;

  /// Memtable capacity; a full memtable becomes immutable and is flushed
  /// to an SSTable in the background.
  size_t memtable_bytes = 8 * 1024 * 1024;

  /// Arena block size for memtable bump allocation. A memtable has one
  /// arena, so it can overshoot `memtable_bytes` by at most one arena
  /// block (plus one oversized value): smaller blocks mean tighter flush
  /// accounting and larger blocks mean fewer mallocs per memtable.
  /// DB::Open clamps this to `memtable_bytes / 4` (floor 256) so a tiny
  /// write buffer never degenerates into a flush per write.
  size_t arena_block_bytes = 4 * 1024;

  /// Target uncompressed size of one SSTable data block.
  size_t block_size = 4 * 1024;

  /// Number of entries between restart points in a table block.
  /// Keys between restarts share a prefix with their predecessor; larger
  /// intervals compress better, smaller intervals make in-block seeks
  /// cheaper. Clamped to >= 1.
  int block_restart_interval = 16;

  /// Bloom filter bits per row (see lsm/row.h; a key without a '\0' is
  /// its own row) in each SSTable (0 disables filters).
  int bloom_bits_per_key = 10;

  /// Per-block compression of SSTable data blocks. The paper ran all
  /// systems uncompressed ("the disk usage can be reduced by using
  /// compression which, however, will decrease the throughput"); the
  /// tradeoff is measured by bench/ablation_compression.
  CompressionType compression = CompressionType::kNone;

  /// Capacity of the shared LRU block cache, split over
  /// kDefaultCacheShardBits (16) independently locked shards.
  size_t block_cache_bytes = 32 * 1024 * 1024;

  /// fsync the WAL on every write (the paper's systems run with
  /// group-commit / periodic sync; default off to match).
  bool sync_writes = false;

  CompactionStyle compaction_style = CompactionStyle::kSizeTiered;

  /// Size-tiered: minimum number of similar-sized tables to merge
  /// (tables within [avg/2, avg*1.5] of a bucket's mean form one bucket).
  int size_tiered_min_files = 4;

  /// Leveled: level-0 file count that triggers a compaction.
  int level0_compaction_trigger = 4;
  /// Leveled: byte budget of level 1; each deeper level is 10x larger.
  uint64_t level1_max_bytes = 32ull * 1024 * 1024;

  /// Size of the compaction thread pool. Flushes always run on their own
  /// dedicated thread; these threads only run compactions, so a long
  /// merge can never delay memtable flushes. Each job is one serial merge
  /// of its inputs on the thread that picked it. Clamped to >= 1.
  int compaction_threads = 2;

  /// Write admission control (RocksDB semantics). When the number of
  /// level-0 sorted runs reaches `level0_slowdown_trigger`, each write is
  /// delayed once by ~1ms to let compaction gain ground; at
  /// `level0_stop_trigger` writers block until the count drops. Under the
  /// size-tiered style every table lives in L0, so these bound the total
  /// sorted-run count (universal-compaction style). 0 disables a trigger.
  int level0_slowdown_trigger = 20;
  int level0_stop_trigger = 36;

  /// Number of levels maintained by the leveled strategy.
  static constexpr int kNumLevels = 7;
};

/// Read-time options.
struct ReadOptions {
  /// Fill the block cache with blocks read by this operation.
  bool fill_cache = true;
};

}  // namespace apmbench::lsm

#endif  // APMBENCH_LSM_OPTIONS_H_
