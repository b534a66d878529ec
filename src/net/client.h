#ifndef APMBENCH_NET_CLIENT_H_
#define APMBENCH_NET_CLIENT_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"

namespace apmbench::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  int port = 0;
  /// Sockets to open. Each calling thread keeps to one socket, assigned
  /// round-robin on its first call, so many workload threads can
  /// multiplex pipelined requests over few sockets.
  int connections = 1;
  /// Cap on in-flight requests per socket; `AsyncCall` blocks past it.
  size_t max_pipeline = 128;
};

/// An asynchronous binary-protocol client over N sockets that runs no
/// threads of its own. A caller waiting for its reply reads the socket
/// itself (leader/follower): at most one caller per socket, the leader,
/// is inside `recv`. It resolves every reply it reads by request_id,
/// waking the callers they belong to, and once its own reply is in it
/// hands the socket to one caller still blocked in `Wait()`. Any number
/// of threads can therefore pipeline requests over the same socket.
class Client {
 private:
  struct Conn;

 public:
  /// A pending remote call. Wait() blocks until the response (or the
  /// connection's failure) arrives.
  class Pending {
   public:
    /// Returns the transport status; on OK, `response()` is valid and
    /// carries the remote operation's own status.
    Status Wait();
    const Response& response() const { return response_; }

   private:
    friend class Client;
    /// The socket the request went out on; null when the call failed
    /// before it was sent (`done` is then already set).
    std::shared_ptr<Conn> conn;
    // Guarded by conn->mu.
    std::condition_variable cv;
    bool done = false;
    Status transport;
    Response response_;
  };

  explicit Client(const ClientOptions& options);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Opens all sockets.
  Status Connect();
  /// Fails outstanding calls and closes the sockets once no caller is
  /// reading them. Idempotent.
  void Close();

  /// Sends `request` on the calling thread's socket; the returned handle
  /// resolves when the reply arrives. Blocks only when that socket already
  /// has max_pipeline requests in flight, and then reads replies itself
  /// if no caller is. Replies are otherwise read only by callers in
  /// Wait(), so a thread that never waits gets its replies read by
  /// others or not at all.
  std::shared_ptr<Pending> AsyncCall(const Request& request);

  /// AsyncCall + Wait. On transport failure returns that error; otherwise
  /// returns the remote status and fills `response`.
  Status Call(const Request& request, Response* response);

 private:
  /// Blocks until `handle` resolves, leading the socket whenever no
  /// other caller does.
  static Status Await(Pending* handle);
  /// Reads replies off `conn` as its leader until `self` resolves or,
  /// with no `self`, until fewer than `window` calls are in flight; then
  /// hands the socket on. Called and returns with `*lock` held on
  /// conn->mu and no other leader.
  static void Lead(Conn* conn, Pending* self, size_t window,
                   std::unique_lock<std::mutex>* lock);
  /// Fails every pending call on `conn` and marks it dead. Caller holds
  /// conn->mu.
  static void FailAll(Conn* conn, const Status& status);

  const ClientOptions options_;
  /// Tells this client's thread-to-socket assignments from another's.
  const uint64_t id_;
  std::vector<std::shared_ptr<Conn>> conns_;
  std::atomic<uint64_t> next_conn_{0};
  std::atomic<uint64_t> next_request_id_{1};
  bool connected_ = false;
};

}  // namespace apmbench::net

#endif  // APMBENCH_NET_CLIENT_H_
