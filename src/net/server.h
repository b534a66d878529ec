#ifndef APMBENCH_NET_SERVER_H_
#define APMBENCH_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "ycsb/db.h"

namespace apmbench::net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port readable via `port()` after
  /// Start (tests and single-machine benches never collide).
  int port = 0;
  /// Event-loop threads. Each owns an epoll set; connections are assigned
  /// round-robin at accept and stay on their loop for life. A loop runs
  /// its connections' requests inline, so this is also the number of
  /// requests the server executes at once. Two let a two-socket client
  /// run as two halves that a descheduled loop cannot both stall.
  int event_threads = 2;
};

/// An epoll-based (edge-triggered) binary-protocol server hosting one
/// ycsb::DB behind net/protocol framing. See docs/serving.md.
class Server {
 public:
  /// `db` must be thread-safe and outlive the server.
  Server(const ServerOptions& options, ycsb::DB* db);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  Status Start();
  /// Closes every connection (dropping undelivered output and pending
  /// requests), stops all threads, and releases every fd. Idempotent and
  /// safe to call from several threads at once: every caller returns
  /// only after the server is fully stopped.
  void Stop();

  /// The bound port (after Start).
  int port() const { return port_; }

  struct Stats {
    uint64_t accepted = 0;
    uint64_t closed = 0;
    uint64_t open_connections = 0;
    uint64_t requests = 0;
    uint64_t responses = 0;
    /// Connections dropped for protocol violations (bad frame, bad
    /// request payload).
    uint64_t bad_frames = 0;
    uint64_t bytes_in = 0;
    uint64_t bytes_out = 0;
    /// Rounds of frames executed between two flushes; requests / batches
    /// > 1 means pipelined requests shared one reply write.
    uint64_t batches = 0;
  };
  Stats GetStats() const;

 private:
  struct Connection;
  struct EventLoop;

  void EventLoopMain(EventLoop* loop);

  void AcceptAll();
  void DrainRead(EventLoop* loop, const std::shared_ptr<Connection>& conn);
  /// Sends as much of conn's output as the socket takes; returns false
  /// if that tore the connection down.
  bool FlushWrite(EventLoop* loop, const std::shared_ptr<Connection>& conn);
  void Teardown(EventLoop* loop, const std::shared_ptr<Connection>& conn,
                bool protocol_error);
  void ExecuteRequest(const Request& request, Response* response);

  const ServerOptions options_;
  ycsb::DB* const db_;

  /// Serializes Start and Stop.
  std::mutex lifecycle_mu_;
  int listen_fd_ = -1;
  int port_ = 0;
  bool running_ = false;  // guarded by lifecycle_mu_
  std::atomic<bool> stopping_{false};

  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> loop_threads_;
  std::atomic<uint64_t> next_loop_{0};

  // Stats (relaxed atomics; read via GetStats).
  std::atomic<uint64_t> accepted_{0}, closed_{0}, open_{0}, requests_{0},
      responses_{0}, bad_frames_{0}, bytes_in_{0}, bytes_out_{0},
      batches_{0};
};

}  // namespace apmbench::net

#endif  // APMBENCH_NET_SERVER_H_
