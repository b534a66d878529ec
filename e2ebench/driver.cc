#include "driver.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "common/env.h"
#include "net/client.h"
#include "net/remote_store.h"
#include "net/server.h"
#include "stores/cassandra_store.h"
#include "stores/factory.h"
#include "stores/hbase_store.h"
#include "stores/mysql_store.h"
#include "tracing.h"

namespace apmbench::e2ebench {

namespace {

const char* const kTable = "usertable";
constexpr size_t kMaxErrors = 8;
/// The measured phase is cut into equal-operation segments, so that a run
/// can summarize its timings over segments rather than whole trials (see
/// run.py): a host slow spell then spoils a few segments, not the result.
/// As many segments as keep every timed operation class at this many
/// samples per segment, within [kMinSegments, kMaxSegments].
constexpr uint64_t kSamplesPerSegment = 400;
constexpr uint64_t kMinSegments = 5;
constexpr uint64_t kMaxSegments = 20;

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Fnv1a64(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < n; i++) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The benchmark's own generator, independent of the program's Random so
/// that a change to the program never changes the inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() { return SplitMix64(&state_); }
  uint64_t Uniform(uint64_t n) { return Next() % n; }
  double NextDouble() { return (Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

double Percentile(std::vector<uint64_t>* ns, double q) {
  if (ns->empty()) return 0;
  size_t k = static_cast<size_t>(q * static_cast<double>(ns->size() - 1));
  std::nth_element(ns->begin(), ns->begin() + static_cast<long>(k),
                   ns->end());
  return static_cast<double>((*ns)[k]) / 1000.0;
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Sums the engine counters over every node of an LSM-backed store.
bool LsmStats(ycsb::DB* db, lsm::DB::Stats* out) {
  if (auto* c = dynamic_cast<stores::CassandraStore*>(db)) {
    *out = c->NodeStats(0);
    return true;
  }
  if (auto* h = dynamic_cast<stores::HBaseStore*>(db)) {
    *out = h->NodeStats(0);
    return true;
  }
  return false;
}

/// Waits until no flush or compaction is running: the engine reports none
/// running and its flush and compaction counts stay unchanged for several
/// consecutive polls. Stores without background work return at once.
void Quiesce(ycsb::DB* db) {
  lsm::DB::Stats stats;
  if (!LsmStats(db, &stats)) return;
  constexpr int kStablePolls = 5;
  uint64_t last_flushes = ~0ULL, last_compactions = ~0ULL;
  int stable = 0;
  while (stable < kStablePolls) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    LsmStats(db, &stats);
    const bool idle = stats.running_compactions == 0 &&
                      stats.pending_writers == 0 &&
                      stats.num_flushes == last_flushes &&
                      stats.num_compactions == last_compactions;
    stable = idle ? stable + 1 : 0;
    last_flushes = stats.num_flushes;
    last_compactions = stats.num_compactions;
  }
}

/// Raw loopback TCP echo round trips: the floor under the serving stack.
Status EchoP50(int rounds, double* p50_us) {
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return Status::IOError("echo socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listener, 1) != 0 ||
      getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    close(listener);
    return Status::IOError("echo bind");
  }
  constexpr size_t kMsg = 32;
  auto full = [](int fd, char* buf, bool send_side) {
    size_t done = 0;
    while (done < kMsg) {
      ssize_t n = send_side ? send(fd, buf + done, kMsg - done, MSG_NOSIGNAL)
                            : recv(fd, buf + done, kMsg - done, 0);
      if (n <= 0) return false;
      done += static_cast<size_t>(n);
    }
    return true;
  };
  std::thread echo([&] {
    int fd = accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char buf[kMsg];
    while (full(fd, buf, false) && full(fd, buf, true)) {
    }
    close(fd);
  });
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  Status s;
  std::vector<uint64_t> ns;
  if (fd < 0 ||
      connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    s = Status::IOError("echo connect");
  } else {
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char buf[kMsg] = {};
    for (int i = 0; i < rounds; i++) {
      const uint64_t start = NowNanos();
      if (!full(fd, buf, true) || !full(fd, buf, false)) {
        s = Status::IOError("echo round trip");
        break;
      }
      ns.push_back(NowNanos() - start);
    }
  }
  if (fd >= 0) {
    shutdown(fd, SHUT_RDWR);
    close(fd);
  }
  // The echo thread is blocked in accept() only if connect failed.
  if (!s.ok()) shutdown(listener, SHUT_RDWR);
  echo.join();
  close(listener);
  *p50_us = Percentile(&ns, 0.5);
  return s;
}

/// net::Client kPing round trips on one connection.
Status PingP50(int port, int rounds, double* p50_us) {
  net::ClientOptions options;
  options.port = port;
  options.connections = 1;
  net::Client client(options);
  APM_RETURN_IF_ERROR(client.Connect());
  std::vector<uint64_t> ns;
  net::Request request;
  request.op = net::Opcode::kPing;
  net::Response response;
  for (int i = 0; i < rounds; i++) {
    const uint64_t start = NowNanos();
    APM_RETURN_IF_ERROR(client.Call(request, &response));
    ns.push_back(NowNanos() - start);
  }
  client.Close();
  *p50_us = Percentile(&ns, 0.5);
  return Status::OK();
}

/// What one client thread saw during the measured phase.
struct ThreadLog {
  std::vector<uint64_t> read_ns, write_ns, scan_ns, net_self_ns;
  uint64_t attempted = 0, failed = 0, inserted = 0;
  std::vector<std::string> errors;
  /// Per segment: when it ended, its operation count, and the sizes of the
  /// latency vectors at its end.
  struct Mark {
    uint64_t end_ns = 0, ops = 0;
    size_t reads = 0, writes = 0, scans = 0;
  };
  std::vector<Mark> marks;

  void Fail(std::string what) {
    failed++;
    if (errors.size() < kMaxErrors) errors.push_back(std::move(what));
  }
};

class Trial {
 public:
  Trial(const WorkloadSpec& spec, const TrialOptions& options)
      : spec_(spec), options_(options) {
    preload_ = std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(spec.preload) *
                              options.scale),
        static_cast<uint64_t>(spec.scan_length) * 4);
    ops_ = std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(spec.ops) * options.scale),
        static_cast<uint64_t>(spec.threads) * 100);
    double rarest = 1.0;
    for (double share : {spec.read, spec.scan, spec.insert}) {
      if (share > 0) rarest = std::min(rarest, share);
    }
    segments_ = std::clamp<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(ops_) * rarest) /
            kSamplesPerSegment,
        kMinSegments, kMaxSegments);
  }

  Status Run(TrialResult* result) {
    result_ = result;
    // Inputs are generated before anything is timed.
    keys_.reserve(preload_);
    for (uint64_t k = 0; k < preload_; k++) keys_.push_back(KeyFor(k));
    sorted_keys_ = keys_;
    std::sort(sorted_keys_.begin(), sorted_keys_.end());

    stores::StoreOptions store_options;
    store_options.base_dir = options_.dir + "/store";
    if (spec_.block_cache_bytes > 0) {
      store_options.block_cache_bytes = spec_.block_cache_bytes;
    }
    if (options_.trace) {
      env_ = std::make_unique<CountingEnv>(Env::Default());
      store_options.env = env_.get();
    }
    APM_RETURN_IF_ERROR(stores::CreateStore(spec_.store, store_options,
                                            &store_));
    ycsb::DB* embedded = store_.get();
    if (options_.trace) {
      timed_ = std::make_unique<TimedDB>(store_.get(),
                                         spec_.served ? &board_ : nullptr);
      embedded = timed_.get();
    }

    const auto setup_start = std::chrono::steady_clock::now();
    APM_RETURN_IF_ERROR(Preload(embedded));
    Quiesce(store_.get());
    ycsb::DB* target = embedded;
    if (spec_.served) {
      net::ServerOptions server_options;
      server_ = std::make_unique<net::Server>(server_options, embedded);
      APM_RETURN_IF_ERROR(server_->Start());
      net::ClientOptions client_options;
      client_options.port = server_->port();
      client_options.connections = spec_.connections;
      APM_RETURN_IF_ERROR(net::RemoteStore::Open(client_options, &remote_));
      target = remote_.get();
    }
    const double setup_s = SecondsSince(setup_start);
    if (options_.wrap_store) {
      wrapped_ = options_.wrap_store(target);
      target = wrapped_.get();
    }

    Measure(target, setup_s);
    if (options_.trace && spec_.served) {
      double ping = 0, echo = 0;
      APM_RETURN_IF_ERROR(PingP50(server_->port(), 2000, &ping));
      APM_RETURN_IF_ERROR(EchoP50(2000, &echo));
      Emit("net.ping_p50_us", ping);
      Emit("net.echo_p50_us", echo);
    } else if (options_.trace) {
      Emit("net.ping_p50_us", 0);
      Emit("net.echo_p50_us", 0);
    }
    wrapped_.reset();
    remote_.reset();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
    result->metrics.emplace_back("peak_rss_mb", PeakRssMb());
    return Status::OK();
  }

 private:
  Status Preload(ycsb::DB* db) {
    const int threads = spec_.threads;
    std::vector<Status> statuses(static_cast<size_t>(threads));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; t++) {
      workers.emplace_back([this, db, t, threads, &statuses] {
        for (uint64_t k = static_cast<uint64_t>(t); k < preload_;
             k += static_cast<uint64_t>(threads)) {
          Status s = db->Insert(kTable, keys_[k],
                                RecordFor(options_.seed, keys_[k]));
          if (!s.ok()) {
            statuses[static_cast<size_t>(t)] = s;
            return;
          }
        }
      });
    }
    for (auto& w : workers) w.join();
    for (const Status& s : statuses) APM_RETURN_IF_ERROR(s);
    return Status::OK();
  }

  /// One closed-loop client thread. Its operation sequence depends only on
  /// the seed and its own acknowledged inserts, never on interleaving.
  void Client(ycsb::DB* db, int t, ThreadLog* log) {
    Rng rng(options_.seed * 0x2545f4914f6cdd1dULL + static_cast<uint64_t>(t));
    const uint64_t threads = static_cast<uint64_t>(spec_.threads);
    const uint64_t my_ops = ops_ / threads +
                            (static_cast<uint64_t>(t) < ops_ % threads);
    std::vector<std::string> acked;  // this thread's acknowledged inserts
    uint64_t next_insert = 0;
    ycsb::Record record;
    std::vector<ycsb::KeyedRecord> rows;
    uint64_t segment_end = my_ops / segments_;
    uint64_t segment_start = 0;
    for (uint64_t i = 0; i < my_ops; i++) {
      if (i == segment_end && log->marks.size() + 1 < segments_) {
        log->marks.push_back({NowNanos(), i - segment_start,
                              log->read_ns.size(), log->write_ns.size(),
                              log->scan_ns.size()});
        segment_start = i;
        segment_end = my_ops * (log->marks.size() + 1) / segments_;
      }
      const double u = rng.NextDouble();
      log->attempted++;
      if (u < spec_.read) {
        const uint64_t pick = rng.Uniform(preload_ + acked.size());
        const std::string& key =
            pick < preload_ ? keys_[pick] : acked[pick - preload_];
        record.clear();
        const uint64_t start = NowNanos();
        Status s = db->Read(kTable, key, &record);
        const uint64_t ns = NowNanos() - start;
        log->read_ns.push_back(ns);
        uint64_t server_ns = 0;
        if (spec_.served && options_.trace && board_.Take(key, &server_ns) &&
            server_ns <= ns) {
          log->net_self_ns.push_back(ns - server_ns);
        }
        if (!s.ok()) {
          log->Fail("read " + key + ": " + s.ToString());
        } else if (record != RecordFor(options_.seed, key)) {
          log->Fail("read " + key + ": wrong value");
        }
      } else if (u < spec_.read + spec_.scan) {
        const uint64_t rank = rng.Uniform(preload_ - spec_.scan_length + 1);
        const std::string& start_key = sorted_keys_[rank];
        rows.clear();
        const uint64_t start = NowNanos();
        Status s = db->ScanKeyed(kTable, start_key, spec_.scan_length, &rows);
        log->scan_ns.push_back(NowNanos() - start);
        std::string why = s.ok() ? CheckScan(rank, rows) : s.ToString();
        if (!why.empty()) log->Fail("scan " + start_key + ": " + why);
      } else {
        const uint64_t keynum = preload_ + next_insert * threads +
                                static_cast<uint64_t>(t);
        next_insert++;
        std::string key = KeyFor(keynum);
        const ycsb::Record value = RecordFor(options_.seed, key);
        const uint64_t start = NowNanos();
        Status s = db->Insert(kTable, key, value);
        log->write_ns.push_back(NowNanos() - start);
        if (s.ok()) {
          log->inserted++;
          acked.push_back(std::move(key));
        } else {
          log->Fail("insert " + key + ": " + s.ToString());
        }
      }
    }
    log->marks.push_back({NowNanos(), my_ops - segment_start,
                          log->read_ns.size(), log->write_ns.size(),
                          log->scan_ns.size()});
  }

  /// A scan from preloaded rank `rank` must return exactly scan_length
  /// rows in ascending key order, starting at its start key, with the
  /// generator's value in each row and no preloaded key skipped.
  std::string CheckScan(uint64_t rank,
                        const std::vector<ycsb::KeyedRecord>& rows) const {
    if (rows.size() != static_cast<size_t>(spec_.scan_length)) {
      return "returned " + std::to_string(rows.size()) + " rows";
    }
    uint64_t next = rank;  // next preloaded key the scan must contain
    for (size_t i = 0; i < rows.size(); i++) {
      const std::string& key = rows[i].key;
      if (i > 0 && !(rows[i - 1].key < key)) return "keys not ascending";
      if (next < preload_ && sorted_keys_[next] < key) {
        return "skipped " + sorted_keys_[next];
      }
      if (next < preload_ && sorted_keys_[next] == key) next++;
      if (rows[i].record != RecordFor(options_.seed, key)) {
        return "wrong value at " + key;
      }
    }
    if (rows.front().key != sorted_keys_[rank]) return "wrong first key";
    return "";
  }

  void Emit(const char* name, double value) {
    result_->metrics.emplace_back(name, value);
  }

  /// Per-segment throughput and median latencies. A segment's throughput
  /// sums each thread's own rate over that segment.
  void EmitSegments(const std::vector<ThreadLog>& logs, uint64_t start_ns) {
    for (size_t k = 0; k < segments_; k++) {
      double throughput = 0;
      std::vector<uint64_t> reads, writes, scans;
      for (const ThreadLog& log : logs) {
        if (k >= log.marks.size()) continue;
        const ThreadLog::Mark& m = log.marks[k];
        const ThreadLog::Mark prev =
            k == 0 ? ThreadLog::Mark{start_ns, 0, 0, 0, 0} : log.marks[k - 1];
        if (m.end_ns > prev.end_ns) {
          throughput += static_cast<double>(m.ops) * 1e9 /
                        static_cast<double>(m.end_ns - prev.end_ns);
        }
        auto slice = [](std::vector<uint64_t>* to,
                        const std::vector<uint64_t>& from, size_t lo,
                        size_t hi) {
          to->insert(to->end(), from.begin() + static_cast<long>(lo),
                     from.begin() + static_cast<long>(hi));
        };
        slice(&reads, log.read_ns, prev.reads, m.reads);
        slice(&writes, log.write_ns, prev.writes, m.writes);
        slice(&scans, log.scan_ns, prev.scans, m.scans);
      }
      std::vector<std::pair<std::string, double>> segment = {
          {"throughput_ops_s", throughput},
          {"read_p50_us", Percentile(&reads, 0.50)},
          {"write_p50_us", Percentile(&writes, 0.50)},
          {"scan_p50_us", Percentile(&scans, 0.50)},
      };
      result_->segments.push_back(std::move(segment));
    }
  }

  void Measure(ycsb::DB* target, double setup_s) {
    const int threads = spec_.threads;
    std::vector<ThreadLog> logs(static_cast<size_t>(threads));
    for (auto& log : logs) {
      const size_t expect = ops_ / static_cast<uint64_t>(threads) + 1;
      log.read_ns.reserve(static_cast<size_t>(expect * spec_.read * 1.2));
      log.scan_ns.reserve(static_cast<size_t>(expect * spec_.scan * 1.2));
      log.write_ns.reserve(static_cast<size_t>(expect * spec_.insert * 1.2));
    }
    lsm::DB::Stats lsm_before, lsm_after;
    const bool lsm = LsmStats(store_.get(), &lsm_before);
    auto* mysql = dynamic_cast<stores::MySQLStore*>(store_.get());
    btree::BTree::Stats bt_before, bt_after;
    if (mysql != nullptr) bt_before = mysql->NodeStats(0);
    net::Server::Stats net_before, net_after;
    if (server_ != nullptr) net_before = server_->GetStats();
    EnvCounters env_before;
    if (env_ != nullptr) env_before = env_->Snapshot();
    if (timed_ != nullptr) timed_->Reset();

    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; t++) {
      workers.emplace_back([this, target, t, &go, &logs] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        Client(target, t, &logs[static_cast<size_t>(t)]);
      });
    }
    const double cpu_start = CpuSeconds();
    const auto start = std::chrono::steady_clock::now();
    const uint64_t start_ns = NowNanos();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    const double wall = SecondsSince(start);
    const double cpu = CpuSeconds() - cpu_start;

    if (lsm) LsmStats(store_.get(), &lsm_after);
    if (mysql != nullptr) bt_after = mysql->NodeStats(0);
    if (server_ != nullptr) net_after = server_->GetStats();
    EnvCounters env_delta;
    if (env_ != nullptr) env_delta = env_->Snapshot() - env_before;

    EmitSegments(logs, start_ns);
    ThreadLog all;
    for (auto& log : logs) {
      all.attempted += log.attempted;
      all.failed += log.failed;
      all.inserted += log.inserted;
      for (auto& e : log.errors) {
        if (all.errors.size() < kMaxErrors) all.errors.push_back(e);
      }
      auto append = [](std::vector<uint64_t>* to,
                       const std::vector<uint64_t>& from) {
        to->insert(to->end(), from.begin(), from.end());
      };
      append(&all.read_ns, log.read_ns);
      append(&all.write_ns, log.write_ns);
      append(&all.scan_ns, log.scan_ns);
      append(&all.net_self_ns, log.net_self_ns);
    }

    Quiesce(store_.get());
    uint64_t disk = 0;
    Status s = store_->DiskUsage(&disk);
    if (!s.ok()) all.Fail("disk usage: " + s.ToString());
    const double user_bytes =
        static_cast<double>((preload_ + all.inserted) * kUserBytesPerRecord);
    const double ops = static_cast<double>(all.attempted);

    result_->attempted = all.attempted;
    result_->failed = all.failed;
    result_->errors = all.errors;
    Emit("throughput_ops_s", ops / wall);
    Emit("read_p50_us", Percentile(&all.read_ns, 0.50));
    Emit("read_p99_us", Percentile(&all.read_ns, 0.99));
    Emit("write_p50_us", Percentile(&all.write_ns, 0.50));
    Emit("write_p99_us", Percentile(&all.write_ns, 0.99));
    Emit("scan_p50_us", Percentile(&all.scan_ns, 0.50));
    Emit("scan_p99_us", Percentile(&all.scan_ns, 0.99));
    Emit("cpu_us_per_op", cpu * 1e6 / ops);
    Emit("space_amp", static_cast<double>(disk) / user_bytes);
    Emit("setup_s", setup_s);
    Emit("error_ratio", static_cast<double>(all.failed) / ops);
    Emit("reads", static_cast<double>(all.read_ns.size()));
    Emit("writes", static_cast<double>(all.write_ns.size()));
    Emit("scans", static_cast<double>(all.scan_ns.size()));
    if (!options_.trace) return;

    // Per-layer metrics of the traced trial.
    Emit("trace.client_read_p50_us", Percentile(&all.read_ns, 0.50));
    auto spans = [](SpanLog& log) {
      std::vector<uint64_t> ns = log.Samples();
      return Percentile(&ns, 0.50);
    };
    Emit("stores.read_p50_us", spans(timed_->reads()));
    Emit("stores.insert_p50_us", spans(timed_->inserts()));
    Emit("stores.scan_p50_us", spans(timed_->scans()));
    const double call_ns = static_cast<double>(timed_->call_ns());
    Emit("stores.env_share",
         call_ns > 0 ? static_cast<double>(env_delta.fg_ns) / call_ns : 0);

    const double inserted_bytes =
        static_cast<double>(all.inserted * kUserBytesPerRecord);
    Emit("env.fg_write_bytes_per_op",
         static_cast<double>(env_delta.fg_write_bytes) / ops);
    Emit("env.bg_write_bytes_per_user_byte",
         inserted_bytes > 0
             ? static_cast<double>(env_delta.bg_write_bytes) / inserted_bytes
             : 0);
    Emit("env.read_bytes_per_op",
         static_cast<double>(env_delta.fg_read_bytes) / ops);
    Emit("env.syncs_per_op", static_cast<double>(env_delta.syncs) / ops);
    Emit("env.fg_us_per_op", static_cast<double>(env_delta.fg_ns) / 1e3 / ops);

    auto ratio = [](uint64_t num, uint64_t den) {
      return den > 0 ? static_cast<double>(num) / static_cast<double>(den)
                     : 0.0;
    };
    if (lsm) {
      const auto& a = lsm_after;
      const auto& b = lsm_before;
      Emit("lsm.writes_per_group", ratio(a.grouped_writes - b.grouped_writes,
                                         a.write_groups - b.write_groups));
      Emit("lsm.stall_ms",
           static_cast<double>(a.stall_slowdown_micros + a.stall_stop_micros -
                               b.stall_slowdown_micros - b.stall_stop_micros) /
               1e3);
      Emit("lsm.flushes", static_cast<double>(a.num_flushes - b.num_flushes));
      Emit("lsm.compactions",
           static_cast<double>(a.num_compactions - b.num_compactions));
      Emit("lsm.compaction_write_amp",
           inserted_bytes > 0 ? static_cast<double>(a.compaction_bytes_written -
                                                    b.compaction_bytes_written) /
                                    inserted_bytes
                              : 0);
      const uint64_t hits = a.cache_hits - b.cache_hits;
      Emit("lsm.cache_hit_ratio",
           ratio(hits, hits + a.cache_misses - b.cache_misses));
      Emit("lsm.cache_evictions_per_op",
           static_cast<double>(a.cache_evictions - b.cache_evictions) / ops);
    } else {
      for (const char* name :
           {"lsm.writes_per_group", "lsm.stall_ms", "lsm.flushes",
            "lsm.compactions", "lsm.compaction_write_amp",
            "lsm.cache_hit_ratio", "lsm.cache_evictions_per_op"}) {
        Emit(name, 0);
      }
    }
    if (mysql != nullptr) {
      const uint64_t hits = bt_after.pool_hits - bt_before.pool_hits;
      Emit("btree.pool_hit_ratio",
           ratio(hits, hits + bt_after.pool_misses - bt_before.pool_misses));
      Emit("btree.binlog_appends_per_group",
           ratio(bt_after.binlog_appends - bt_before.binlog_appends,
                 bt_after.binlog_groups - bt_before.binlog_groups));
      Emit("btree.height", bt_after.height);
    } else {
      Emit("btree.pool_hit_ratio", 0);
      Emit("btree.binlog_appends_per_group", 0);
      Emit("btree.height", 0);
    }
    if (server_ != nullptr) {
      Emit("net.self_p50_us", Percentile(&all.net_self_ns, 0.50));
      Emit("net.bytes_per_op",
           static_cast<double>(net_after.bytes_in + net_after.bytes_out -
                               net_before.bytes_in - net_before.bytes_out) /
               ops);
    } else {
      Emit("net.self_p50_us", 0);
      Emit("net.bytes_per_op", 0);
    }
  }

  const WorkloadSpec& spec_;
  const TrialOptions& options_;
  uint64_t preload_ = 0;
  uint64_t ops_ = 0;
  uint64_t segments_ = 0;
  std::vector<std::string> keys_;         // preloaded keys by keynum
  std::vector<std::string> sorted_keys_;  // preloaded keys in key order
  TrialResult* result_ = nullptr;
  SpanBoard board_;
  // Declared in teardown order: client before server before the store the
  // server hosts, decorators before what they wrap.
  std::unique_ptr<CountingEnv> env_;
  std::unique_ptr<ycsb::DB> store_;
  std::unique_ptr<TimedDB> timed_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<net::RemoteStore> remote_;
  std::unique_ptr<ycsb::DB> wrapped_;
};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec>* workloads = [] {
    auto* w = new std::vector<WorkloadSpec>;
    WorkloadSpec ingest;
    ingest.name = "ingest_w";
    ingest.store = "cassandra";
    ingest.preload = 50'000;
    ingest.ops = 1'000'000;
    ingest.read = 0.01;
    ingest.insert = 0.99;
    w->push_back(ingest);

    WorkloadSpec scan;
    scan.name = "scan_rs";
    scan.store = "hbase";
    scan.preload = 100'000;
    scan.ops = 30'000;
    scan.read = 0.47;
    scan.scan = 0.47;
    scan.insert = 0.06;
    scan.block_cache_bytes = 4 << 20;
    w->push_back(scan);

    WorkloadSpec served;
    served.name = "served_r";
    served.store = "mysql";
    served.served = true;
    served.preload = 50'000;
    served.ops = 100'000;
    served.read = 0.95;
    served.insert = 0.05;
    served.connections = 2;
    served.threads = 4;
    w->push_back(served);
    return w;
  }();
  return *workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const auto& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string KeyFor(uint64_t keynum) {
  const std::string digits = std::to_string(Fnv1a64(&keynum, sizeof(keynum)));
  std::string key = "user";
  key.append(kKeyLength - key.size() - digits.size(), '0');
  key.append(digits);
  return key;
}

ycsb::Record RecordFor(uint64_t seed, const std::string& key) {
  uint64_t state = seed ^ Fnv1a64(key.data(), key.size());
  ycsb::Record record;
  record.reserve(kFieldCount);
  for (int f = 0; f < kFieldCount; f++) {
    std::string value(kFieldLength, '\0');
    uint64_t bits = SplitMix64(&state);
    for (int i = 0; i < kFieldLength; i++) {
      value[static_cast<size_t>(i)] = static_cast<char>('a' + bits % 26);
      bits /= 26;
    }
    record.emplace_back("field" + std::to_string(f), std::move(value));
  }
  return record;
}

Status RunTrial(const WorkloadSpec& spec, const TrialOptions& options,
                TrialResult* result) {
  Trial trial(spec, options);
  return trial.Run(result);
}

double SpinSeconds() {
  const auto start = std::chrono::steady_clock::now();
  uint64_t state = 1, mix = 0;
  for (int i = 0; i < 100'000'000; i++) mix ^= SplitMix64(&state);
  // Keep the loop's result live so it is not optimised away.
  static std::atomic<uint64_t> sink;
  sink.store(mix, std::memory_order_relaxed);
  return SecondsSince(start);
}

}  // namespace apmbench::e2ebench
