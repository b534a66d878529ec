// The benchmark's closed-loop driver: seeded inputs, one trial of one
// workload on a fresh directory, and the correctness checks on every
// result the program returns.
#ifndef APMBENCH_E2EBENCH_DRIVER_H_
#define APMBENCH_E2EBENCH_DRIVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "ycsb/db.h"

namespace apmbench::e2ebench {

/// One workload: a store, a Table-1 operation mix and fixed sizes. The
/// operation count is fixed (not a duration), so every trial of a workload
/// ends in the same store state whatever the host's speed.
struct WorkloadSpec {
  std::string name;
  std::string store;  ///< paper name, as stores::CreateStore takes it
  bool served = false;  ///< behind net::Server / net::RemoteStore on loopback
  uint64_t preload = 0;  ///< records loaded before measuring
  uint64_t ops = 0;      ///< measured operations, all client threads
  double read = 0, scan = 0, insert = 0;  ///< mix; sums to 1
  int scan_length = 50;
  int threads = 2;      ///< closed-loop client threads
  int connections = 0;  ///< served only
  size_t block_cache_bytes = 0;  ///< 0 keeps the store default
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Record shape of the paper: 25-byte key, 5 fields of 10 bytes.
constexpr int kKeyLength = 25;
constexpr int kFieldCount = 5;
constexpr int kFieldLength = 10;
constexpr uint64_t kUserBytesPerRecord = kKeyLength + kFieldCount * kFieldLength;

/// Key of record number `keynum` ("user" + zero-padded hash, so inserts
/// scatter uniformly over the key space).
std::string KeyFor(uint64_t keynum);
/// The record the generator writes under `key` for `seed`; reads are
/// checked against it.
ycsb::Record RecordFor(uint64_t seed, const std::string& key);

struct TrialOptions {
  uint64_t seed = 1;
  bool trace = false;
  /// Multiplies preload and ops; tests run reduced-size smokes with it.
  double scale = 1.0;
  std::string dir;  ///< fresh directory the trial owns
  /// When set, the measured phase's clients call the store through the
  /// decorator this returns; tests inject faults with it.
  std::function<std::unique_ptr<ycsb::DB>(ycsb::DB*)> wrap_store;
};

struct TrialResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failures as text, capped; empty when every check passed.
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, double>> metrics;
  /// Throughput and median latencies of each equal-operation segment of
  /// the measured phase, in order.
  std::vector<std::vector<std::pair<std::string, double>>> segments;
};

/// Runs one trial: preload, quiesce, the measured closed loop, quiesce,
/// disk usage. A non-OK status means the trial could not run at all;
/// failed operations and wrong results land in `result` instead.
Status RunTrial(const WorkloadSpec& spec, const TrialOptions& options,
                TrialResult* result);

/// Seconds taken by a fixed reference spin loop, recorded beside every
/// result to make slow-host spells visible (never used to rescale).
double SpinSeconds();

}  // namespace apmbench::e2ebench

#endif  // APMBENCH_E2EBENCH_DRIVER_H_
