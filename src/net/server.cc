#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <unordered_map>

namespace apmbench::net {

namespace {

constexpr int kListenBacklog = 511;
constexpr size_t kReadChunk = 64 * 1024;

}  // namespace

/// Per-connection state, touched only by the owning event loop: it
/// reads, executes, writes and finally closes the fd, so an abrupt client
/// disconnect can neither leak the descriptor nor let a stale write land
/// in a recycled one.
struct Server::Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}

  const int fd;
  FrameDecoder decoder;
  /// Encoded responses not yet written to the socket. Per-connection, so
  /// a half-written response to a vanished client can never bleed into
  /// another connection's stream.
  std::string outbuf;
  /// Set while `outbuf` holds bytes the socket would not take: the loop
  /// then neither reads nor executes until EPOLLOUT drains it.
  bool read_paused = false;
  bool want_write = false;  // EPOLLOUT armed
  bool closed = false;
};

/// One epoll event loop: its own epoll set, an eventfd that Stop() uses
/// to wake it, and the connections it owns.
struct Server::EventLoop {
  int epoll_fd = -1;
  int wake_fd = -1;

  /// Guards `conns`: the accepting loop inserts into every loop's map.
  std::mutex mu;
  std::unordered_map<int, std::shared_ptr<Connection>> conns;
};

Server::Server(const ServerOptions& options, ycsb::DB* db)
    : options_(options), db_(db) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (running_) return Status::InvalidArgument("server already started");
  stopping_.store(false);

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad listen host " + options_.host);
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Status::IOError(std::string("bind: ") + strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (listen(listen_fd_, kListenBacklog) != 0) {
    Status s = Status::IOError(std::string("listen: ") + strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  const int nloops = options_.event_threads > 0 ? options_.event_threads : 1;
  for (int i = 0; i < nloops; i++) {
    auto loop = std::make_unique<EventLoop>();
    loop->epoll_fd = epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (loop->epoll_fd < 0 || loop->wake_fd < 0) {
      Status s = Status::IOError("epoll/eventfd setup failed");
      if (loop->epoll_fd >= 0) close(loop->epoll_fd);
      if (loop->wake_fd >= 0) close(loop->wake_fd);
      close(listen_fd_);
      listen_fd_ = -1;
      for (auto& l : loops_) {
        close(l->epoll_fd);
        close(l->wake_fd);
      }
      loops_.clear();
      return s;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    if (i == 0) {
      // Loop 0 owns the listening socket (level-triggered is fine: the
      // accept handler drains the backlog each wakeup).
      ev.events = EPOLLIN;
      ev.data.fd = listen_fd_;
      epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev);
    }
    loops_.push_back(std::move(loop));
  }
  for (auto& loop : loops_) {
    loop_threads_.emplace_back(&Server::EventLoopMain, this, loop.get());
  }
  running_ = true;
  return Status::OK();
}

void Server::Stop() {
  // A concurrent second caller blocks here until the first has joined
  // the loops and closed every fd, then finds nothing left to do.
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!running_) return;
  stopping_.store(true, std::memory_order_release);
  // Wake every loop; each exits at its next check of stopping_.
  for (auto& loop : loops_) {
    uint64_t one = 1;
    ssize_t ignored = write(loop->wake_fd, &one, sizeof(one));
    (void)ignored;
  }
  for (auto& t : loop_threads_) t.join();
  loop_threads_.clear();
  // With every loop joined, close the connections they owned (including
  // any the accepting loop handed to a loop that had already exited).
  for (auto& loop : loops_) {
    std::vector<std::shared_ptr<Connection>> leftover;
    for (auto& [fd, conn] : loop->conns) leftover.push_back(conn);
    for (auto& conn : leftover) Teardown(loop.get(), conn, false);
    close(loop->epoll_fd);
    close(loop->wake_fd);
  }
  loops_.clear();
  close(listen_fd_);
  listen_fd_ = -1;
  running_ = false;
}

Server::Stats Server::GetStats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.open_connections = open_.load(std::memory_order_relaxed);
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.bad_frames = bad_frames_.load(std::memory_order_relaxed);
  s.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  s.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  return s;
}

void Server::EventLoopMain(EventLoop* loop) {
  std::vector<epoll_event> events(256);
  while (!stopping_.load(std::memory_order_acquire)) {
    int n = epoll_wait(loop->epoll_fd, events.data(),
                       static_cast<int>(events.size()), -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; i++) {
      const epoll_event& ev = events[i];
      if (ev.data.fd == loop->wake_fd) continue;  // Stop(): loop re-checks
      if (ev.data.fd == listen_fd_) {
        AcceptAll();
        continue;
      }
      std::shared_ptr<Connection> conn;
      {
        std::lock_guard<std::mutex> lock(loop->mu);
        auto it = loop->conns.find(ev.data.fd);
        if (it == loop->conns.end()) continue;  // already torn down
        conn = it->second;
      }
      if (ev.events & (EPOLLERR | EPOLLHUP)) {
        Teardown(loop, conn, /*protocol_error=*/false);
        continue;
      }
      if (ev.events & EPOLLOUT) {
        if (!FlushWrite(loop, conn)) continue;
        if (conn->read_paused && conn->outbuf.empty()) {
          // Output drained: resume with the frames already buffered
          // (edge-triggered epoll will not re-report them) and the socket.
          conn->read_paused = false;
          DrainRead(loop, conn);
          continue;
        }
      }
      if (ev.events & (EPOLLIN | EPOLLRDHUP)) DrainRead(loop, conn);
    }
  }
}

void Server::AcceptAll() {
  for (;;) {
    int fd = accept4(listen_fd_, nullptr, nullptr,
                     SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      // A queued connection reset before accept is not our problem.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN or transient accept error: wait for next event
    }
    if (stopping_.load(std::memory_order_acquire)) {
      close(fd);
      return;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    EventLoop* target =
        loops_[next_loop_.fetch_add(1, std::memory_order_relaxed) %
               loops_.size()]
            .get();
    {
      std::lock_guard<std::mutex> lock(target->mu);
      target->conns.emplace(fd, conn);
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    ev.data.fd = fd;
    if (epoll_ctl(target->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      std::lock_guard<std::mutex> lock(target->mu);
      target->conns.erase(fd);
      close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    open_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::DrainRead(EventLoop* loop,
                       const std::shared_ptr<Connection>& conn) {
  if (conn->closed || conn->read_paused) return;
  char buf[kReadChunk];
  Response response;
  for (;;) {
    // Execute every complete frame already buffered, in order, replying
    // into the output buffer; flush once per round.
    bool executed = false;
    for (;;) {
      Frame frame;
      FrameDecoder::Result r = conn->decoder.Next(&frame);
      if (r == FrameDecoder::Result::kNeedMore) break;
      Request request;
      if (r == FrameDecoder::Result::kError ||
          !DecodeRequest(frame, &request)) {
        Teardown(loop, conn, /*protocol_error=*/true);
        return;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      ExecuteRequest(request, &response);
      EncodeResponse(request.op, frame.request_id, response, &conn->outbuf);
      responses_.fetch_add(1, std::memory_order_relaxed);
      executed = true;
      // Bound the output one round can pile up (a burst of scans).
      if (conn->outbuf.size() >= kReadChunk) break;
    }
    if (executed) {
      batches_.fetch_add(1, std::memory_order_relaxed);
      if (!FlushWrite(loop, conn)) return;
    }
    if (!conn->outbuf.empty()) {
      // Backpressure: read and execute nothing more until the client
      // takes its replies; the EPOLLOUT drain resumes this connection.
      conn->read_paused = true;
      return;
    }
    if (executed) continue;  // a round may have stopped early
    ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      bytes_in_.fetch_add(static_cast<uint64_t>(n),
                          std::memory_order_relaxed);
      conn->decoder.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) {
      // Orderly close from the peer; undelivered output is dropped with
      // the connection.
      Teardown(loop, conn, /*protocol_error=*/false);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    Teardown(loop, conn, /*protocol_error=*/false);  // e.g. ECONNRESET
    return;
  }
}

bool Server::FlushWrite(EventLoop* loop,
                        const std::shared_ptr<Connection>& conn) {
  if (conn->closed) return false;
  size_t sent = 0;
  while (sent < conn->outbuf.size()) {
    ssize_t n = send(conn->fd, conn->outbuf.data() + sent,
                     conn->outbuf.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    // Peer vanished mid-response (EPIPE/ECONNRESET). The half-written
    // bytes die with this connection's private buffer.
    Teardown(loop, conn, /*protocol_error=*/false);
    return false;
  }
  bytes_out_.fetch_add(sent, std::memory_order_relaxed);
  conn->outbuf.erase(0, sent);
  const bool want_write = !conn->outbuf.empty();
  if (want_write != conn->want_write) {
    conn->want_write = want_write;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | EPOLLET;
    if (want_write) ev.events |= EPOLLOUT;
    ev.data.fd = conn->fd;
    epoll_ctl(loop->epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  return true;
}

void Server::Teardown(EventLoop* loop,
                      const std::shared_ptr<Connection>& conn,
                      bool protocol_error) {
  if (conn->closed) return;
  conn->closed = true;
  conn->outbuf.clear();
  conn->outbuf.shrink_to_fit();
  {
    std::lock_guard<std::mutex> lock(loop->mu);
    loop->conns.erase(conn->fd);
  }
  epoll_ctl(loop->epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  close(conn->fd);
  closed_.fetch_add(1, std::memory_order_relaxed);
  open_.fetch_sub(1, std::memory_order_relaxed);
  if (protocol_error) bad_frames_.fetch_add(1, std::memory_order_relaxed);
}

void Server::ExecuteRequest(const Request& request, Response* response) {
  *response = Response();
  switch (request.op) {
    case Opcode::kPing:
      break;
    case Opcode::kRead:
      response->status =
          db_->Read(request.table, Slice(request.key), &response->record);
      break;
    case Opcode::kScan:
      response->status = db_->ScanKeyed(request.table, Slice(request.key),
                                        request.count, &response->records);
      break;
    case Opcode::kInsert:
      response->status =
          db_->Insert(request.table, Slice(request.key), request.record);
      break;
    case Opcode::kUpdate:
      response->status =
          db_->Update(request.table, Slice(request.key), request.record);
      break;
    case Opcode::kDelete:
      response->status = db_->Delete(request.table, Slice(request.key));
      break;
    case Opcode::kDiskUsage:
      response->status = db_->DiskUsage(&response->disk_bytes);
      break;
  }
}

}  // namespace apmbench::net
