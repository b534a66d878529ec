#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>

namespace apmbench::net {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

std::atomic<uint64_t> next_client_id{1};
/// The client the calling thread last called, and its socket index there.
thread_local uint64_t thread_client = 0;
thread_local uint64_t thread_socket = 0;

}  // namespace

/// One socket plus its bookkeeping. Writes are serialized under
/// `send_mu` (a frame must hit the stream contiguously); reads belong to
/// whichever caller currently leads the socket.
struct Client::Conn {
  /// Written only by Close, under `send_mu`, once no caller leads.
  int fd = -1;
  std::mutex send_mu;

  std::mutex mu;
  /// Signaled when in-flight calls resolve, the leader steps down, or the
  /// socket dies.
  std::condition_variable cv;
  std::unordered_map<uint64_t, std::shared_ptr<Pending>> pending;
  /// Callers blocked in Wait() while another caller leads, in arrival
  /// order: the candidates to lead next.
  std::vector<Pending*> waiters;
  bool leading = false;
  bool dead = false;
  Status death_status;

  /// A reply read off the socket but not yet handed to its caller.
  struct Reply {
    uint64_t request_id = 0;
    bool ok = false;
    Response response;
  };
  // Leader only.
  FrameDecoder decoder;
  std::vector<Reply> replies;
};

Status Client::Pending::Wait() {
  if (conn == nullptr) return transport;
  return Await(this);
}

Client::Client(const ClientOptions& options)
    : options_(options),
      id_(next_client_id.fetch_add(1, std::memory_order_relaxed)) {}

Client::~Client() { Close(); }

Status Client::Connect() {
  if (connected_) return Status::InvalidArgument("client already connected");
  const int n = options_.connections > 0 ? options_.connections : 1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host " + options_.host);
  }
  for (int i = 0; i < n; i++) {
    int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
      Close();
      return Status::IOError(std::string("socket: ") + strerror(errno));
    }
    int r;
    do {
      r = connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    } while (r != 0 && errno == EINTR);
    if (r != 0) {
      Status s = Status::IOError(std::string("connect: ") + strerror(errno));
      close(fd);
      Close();
      return s;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns_.push_back(std::move(conn));
  }
  connected_ = true;
  return Status::OK();
}

void Client::Close() {
  // shutdown() makes a leader's recv and any blocked send return at once.
  for (auto& conn : conns_) shutdown(conn->fd, SHUT_RDWR);
  for (auto& conn : conns_) {
    {
      std::unique_lock<std::mutex> lock(conn->mu);
      FailAll(conn.get(), Status::IOError("client closed"));
      // A dead socket gets no new leader; wait out the current one before
      // its fd can be closed and recycled.
      conn->cv.wait(lock, [&] { return !conn->leading; });
    }
    std::lock_guard<std::mutex> lock(conn->send_mu);
    close(conn->fd);
    conn->fd = -1;
  }
  conns_.clear();
  connected_ = false;
}

std::shared_ptr<Client::Pending> Client::AsyncCall(const Request& request) {
  auto handle = std::make_shared<Pending>();
  if (conns_.empty()) {
    handle->done = true;
    handle->transport = Status::InvalidArgument("client not connected");
    return handle;
  }
  // A thread keeps to one socket, so each socket's callers are a fixed,
  // balanced set and a socket whose leader is descheduled holds up only
  // its own callers.
  if (thread_client != id_) {
    thread_client = id_;
    thread_socket = next_conn_.fetch_add(1, std::memory_order_relaxed);
  }
  std::shared_ptr<Conn> conn = conns_[thread_socket % conns_.size()];
  const uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  {
    std::unique_lock<std::mutex> lock(conn->mu);
    while (!conn->dead && conn->pending.size() >= options_.max_pipeline) {
      if (conn->leading) {
        conn->cv.wait(lock);
      } else {
        // Nobody is reading the replies that would open the window.
        Lead(conn.get(), nullptr, options_.max_pipeline, &lock);
      }
    }
    if (conn->dead) {
      handle->done = true;
      handle->transport = conn->death_status;
      return handle;
    }
    handle->conn = conn;
    conn->pending.emplace(id, handle);
  }
  std::string wire;
  EncodeRequest(request, id, &wire);
  Status send_error;
  {
    std::lock_guard<std::mutex> lock(conn->send_mu);
    size_t sent = 0;
    while (sent < wire.size()) {
      ssize_t n = send(conn->fd, wire.data() + sent, wire.size() - sent,
                       MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        send_error = Status::IOError(std::string("send: ") + strerror(errno));
        break;
      }
      sent += static_cast<size_t>(n);
    }
  }
  if (!send_error.ok()) {
    std::lock_guard<std::mutex> lock(conn->mu);
    FailAll(conn.get(), send_error);
  }
  return handle;
}

Status Client::Call(const Request& request, Response* response) {
  auto handle = AsyncCall(request);
  Status transport = handle->Wait();
  if (!transport.ok()) return transport;
  *response = handle->response();
  return response->status;
}

Status Client::Await(Pending* handle) {
  Conn* conn = handle->conn.get();
  std::unique_lock<std::mutex> lock(conn->mu);
  while (!handle->done) {
    if (!conn->leading) {
      Lead(conn, handle, 0, &lock);
      break;
    }
    conn->waiters.push_back(handle);
    handle->cv.wait(lock);
    auto it = std::find(conn->waiters.begin(), conn->waiters.end(), handle);
    if (it != conn->waiters.end()) conn->waiters.erase(it);
  }
  return handle->transport;
}

void Client::Lead(Conn* conn, Pending* self, size_t window,
                  std::unique_lock<std::mutex>* lock) {
  conn->leading = true;
  char buf[kReadChunk];
  // A dead socket has resolved every call, `self` included.
  while (!conn->dead &&
         (self != nullptr ? !self->done : conn->pending.size() >= window)) {
    lock->unlock();
    Status error;
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      Frame frame;
      for (;;) {
        FrameDecoder::Result r = conn->decoder.Next(&frame);
        if (r == FrameDecoder::Result::kNeedMore) break;
        if (r == FrameDecoder::Result::kError) {
          error = Status::Corruption("bad response frame: " +
                                     conn->decoder.error());
          break;
        }
        Conn::Reply& reply = conn->replies.emplace_back();
        reply.request_id = frame.request_id;
        reply.ok = DecodeResponse(frame, &reply.response);
      }
    } else if (n == 0) {
      error = Status::IOError("connection closed by server");
    } else if (errno != EINTR) {
      error = Status::IOError(std::string("recv: ") + strerror(errno));
    }
    lock->lock();
    for (Conn::Reply& reply : conn->replies) {
      auto it = conn->pending.find(reply.request_id);
      if (it == conn->pending.end()) continue;  // duplicate/unknown id
      std::shared_ptr<Pending> handle = std::move(it->second);
      conn->pending.erase(it);
      handle->done = true;
      if (reply.ok) {
        handle->response_ = std::move(reply.response);
      } else {
        handle->transport = Status::Corruption("malformed response payload");
      }
      if (handle.get() != self) handle->cv.notify_one();
    }
    if (!conn->replies.empty()) conn->cv.notify_all();
    conn->replies.clear();
    if (!error.ok()) FailAll(conn, error);
  }
  conn->leading = false;
  // Hand the socket to a caller blocked in Wait(), never merely to a
  // pending handle: nobody may be waiting on an AsyncCall handle.
  while (!conn->waiters.empty()) {
    Pending* next = conn->waiters.front();
    conn->waiters.erase(conn->waiters.begin());
    if (!next->done) {
      next->cv.notify_one();
      break;
    }
  }
  conn->cv.notify_all();  // window waiters and Close
}

void Client::FailAll(Conn* conn, const Status& status) {
  if (conn->dead) return;
  conn->dead = true;
  conn->death_status = status;
  for (auto& [id, handle] : conn->pending) {
    handle->done = true;
    handle->transport = status;
    handle->cv.notify_one();
  }
  conn->pending.clear();
  conn->waiters.clear();
  conn->cv.notify_all();
}

}  // namespace apmbench::net
