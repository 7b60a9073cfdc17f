#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>

#include "util/logging.hpp"

namespace communix::net {

namespace {

Status ReadAll(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Error(ErrorCode::kUnavailable,
                           std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      return Status::Error(ErrorCode::kUnavailable, "connection closed");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Gather-write width per sendmsg call. Linux caps msg_iovlen at IOV_MAX
/// (1024); 64 already amortizes the syscall across a large burst.
constexpr std::size_t kMaxIovPerFlush = 64;

/// recv() scratch size for the worker read loop.
constexpr std::size_t kReadChunk = 64u * 1024u;

}  // namespace

Status WriteFrame(int fd, std::span<const std::uint8_t> body) {
  std::uint8_t header[4];
  const std::uint32_t len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(len >> (i * 8));
  }
  // Header and body leave in one gather write, so on a TCP_NODELAY
  // socket the peer sees one segment, not a bare 4-byte header first
  // (which costs a server one extra dispatcher round per request).
  iovec iov[2] = {
      {header, sizeof(header)},
      {const_cast<std::uint8_t*>(body.data()), body.size()},
  };
  std::size_t first = 0;  // first iovec with bytes left
  while (first < 2) {
    msghdr msg{};
    msg.msg_iov = iov + first;
    msg.msg_iovlen = 2 - first;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Error(ErrorCode::kUnavailable,
                           std::string("send: ") + std::strerror(errno));
    }
    // Skip what went out; a partial write resumes mid-iovec.
    std::size_t sent = static_cast<std::size_t>(n);
    while (first < 2 && sent >= iov[first].iov_len) {
      sent -= iov[first].iov_len;
      ++first;
    }
    if (first < 2) {
      iov[first].iov_base = static_cast<std::uint8_t*>(iov[first].iov_base) +
                            sent;
      iov[first].iov_len -= sent;
    }
  }
  return Status::Ok();
}

Result<std::vector<std::uint8_t>> ReadFrame(int fd, std::size_t max_size) {
  std::uint8_t header[4];
  if (auto s = ReadAll(fd, header, 4); !s.ok()) return s;
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(header[i]) << (i * 8);
  }
  if (len > max_size) {
    return Status::Error(ErrorCode::kDataLoss, "frame exceeds size limit");
  }
  std::vector<std::uint8_t> body(len);
  if (len > 0) {
    if (auto s = ReadAll(fd, body.data(), len); !s.ok()) return s;
  }
  return body;
}

/// One queued outbound byte run: either owned (frame header + reply
/// prefix) or a zero-copy Response segment queued by reference (its
/// owner pin keeps the bytes alive until the chunk is popped).
struct OutChunk {
  std::vector<std::uint8_t> owned;
  ByteRun shared;  // empty for an owned chunk; never queued empty
  std::size_t offset = 0;
  /// Set on a reply's LAST chunk: completing this chunk completes the
  /// reply's flush stage (obs/trace.hpp). Dropped (publishing the trace
  /// with whatever was stamped) if the connection dies mid-flush.
  std::shared_ptr<obs::PendingTrace> trace;

  std::span<const std::uint8_t> bytes() const {
    return shared.size != 0 ? shared.bytes()
                            : std::span<const std::uint8_t>(owned);
  }
};

struct TcpServer::Conn {
  int fd = -1;
  /// Received-but-unparsed bytes (partial frames reassemble here).
  std::vector<std::uint8_t> inbuf;
  /// Queued reply bytes awaiting flush.
  std::deque<OutChunk> outq;
  /// Total unsent bytes across outq.
  std::size_t out_bytes = 0;
  /// outq crossed Options::max_outbound_bytes and has not drained back
  /// under it; request intake is paused and the stall clock is running.
  bool over_cap = false;
  std::chrono::steady_clock::time_point stall_since{};
  /// Peer half-closed (EOF on read): flush remaining replies, then close.
  bool close_after_drain = false;
  /// Trace stamps for the current service pass: when the dispatcher saw
  /// the socket readable and when the worker picked it up. Written by
  /// the thread owning the connection (poll loop then worker — the
  /// pending_rearm_ handoff orders them, like every other Conn field).
  std::chrono::steady_clock::time_point readable_at{};
  std::chrono::steady_clock::time_point worker_start{};
};

TcpServer::TcpServer(RequestHandler& handler, std::uint16_t port)
    : TcpServer(handler, [port] {
        Options o;
        o.port = port;
        return o;
      }()) {}

TcpServer::TcpServer(RequestHandler& handler, const Options& options)
    : handler_(handler),
      options_(options),
      port_(options.port),
      metrics_(options.metrics ? options.metrics
                               : std::make_shared<obs::MetricsRegistry>()) {
  stats_.writev_flushes = metrics_->GetCounter("net.writev_flushes");
  stats_.backpressure_stalls = metrics_->GetCounter("net.backpressure_stalls");
  stats_.slow_client_disconnects =
      metrics_->GetCounter("net.slow_client_disconnects");
  stats_.peak_outbound_queue_bytes =
      metrics_->GetGauge("net.peak_outbound_queue_bytes");
  stats_.wake_pipe_full_wakes =
      metrics_->GetCounter("net.wake_pipe_full_wakes");
}

TcpServer::~TcpServer() { Stop(); }

std::size_t TcpServer::worker_threads() const {
  return pool_ ? pool_->size() : 0;
}

TcpServer::Stats TcpServer::GetStats() const {
  Stats s;
  s.writev_flushes = stats_.writev_flushes->Value();
  s.backpressure_stalls = stats_.backpressure_stalls->Value();
  s.slow_client_disconnects = stats_.slow_client_disconnects->Value();
  s.peak_outbound_queue_bytes = stats_.peak_outbound_queue_bytes->Value();
  s.wake_pipe_full_wakes = stats_.wake_pipe_full_wakes->Value();
  s.outbound_queue_bytes = queued_bytes_.load(std::memory_order_relaxed);
  return s;
}

Status TcpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Error(ErrorCode::kUnavailable,
                         std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status s = Status::Error(
        ErrorCode::kUnavailable, std::string("bind: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (::listen(listen_fd_, 1024) < 0) {
    const Status s = Status::Error(
        ErrorCode::kUnavailable,
        std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  if (port_ == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }
  if (::pipe(wake_pipe_) < 0) {
    const Status s = Status::Error(
        ErrorCode::kUnavailable, std::string("pipe: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  SetNonBlocking(listen_fd_);
  SetNonBlocking(wake_pipe_[0]);
  // The write end too: Wake() must fail with EAGAIN on a full pipe (a
  // pending byte already guarantees a wakeup), never block a worker.
  SetNonBlocking(wake_pipe_[1]);

  std::size_t workers = options_.worker_threads;
  if (workers == 0) {
    workers = std::max<std::size_t>(4, std::thread::hardware_concurrency());
  }
  pool_ = std::make_unique<ThreadPool>(workers);
  running_.store(true);
  poll_thread_ = std::thread([this] { PollLoop(); });
  return Status::Ok();
}

void TcpServer::Wake() {
  const std::uint8_t byte = 1;
  for (;;) {
    const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
    if (n >= 0) return;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Invariant, not best-effort: the pipe is full, so >= 64KiB of wake
      // bytes are already pending and the dispatcher cannot miss the
      // wakeup — dropping this byte is level-triggered-safe. Counted so
      // tests and operators can see the (harmless, but burst-indicating)
      // condition instead of a discarded write result hiding it.
      stats_.wake_pipe_full_wakes->Add(1);
      return;
    }
    // EBADF/EPIPE during shutdown teardown is unreachable by
    // construction (Stop closes the pipe only after joining every
    // writer); anything else here is a real bug worth logging.
    CX_LOG(kError, "tcp") << "wake pipe write failed: " << std::strerror(errno);
    return;
  }
}

void TcpServer::PollLoop() {
  using clock = std::chrono::steady_clock;
  // Connections currently armed with the dispatcher (readable wait when
  // the outbound queue is empty, writable wait otherwise). Owned by this
  // thread; workers hand connections back through pending_rearm_.
  std::vector<int> armed;

  const auto lookup = [this](int fd) -> Conn* {
    std::lock_guard lock(mu_);
    auto it = conns_.find(fd);
    return it != conns_.end() ? it->second.get() : nullptr;
  };

  while (running_.load()) {
    std::vector<pollfd> fds;
    fds.reserve(armed.size() + 2);
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    fds.push_back({listen_fd_, POLLIN, 0});

    // Arm each connection for the direction it is waiting on, and bound
    // the poll timeout by the nearest stall deadline so a reader that
    // never drains (no POLLOUT, no POLLIN) still gets disconnected.
    int timeout_ms = -1;
    const auto now = clock::now();
    for (int fd : armed) {
      Conn* c = lookup(fd);
      if (c == nullptr) continue;
      const short events =
          c->outq.empty() ? static_cast<short>(POLLIN)
                          : static_cast<short>(POLLOUT);
      fds.push_back({fd, events, 0});
      if (c->over_cap) {
        const auto deadline =
            c->stall_since + std::chrono::milliseconds(options_.stall_deadline_ms);
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
                .count();
        const int rem_ms = static_cast<int>(std::max<long long>(0, remaining));
        timeout_ms = timeout_ms < 0 ? rem_ms : std::min(timeout_ms, rem_ms);
      }
    }

    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (!running_.load()) break;

    // The poll set for the next iteration: connections that stay parked
    // here this round, plus fresh accepts and worker re-arms.
    std::vector<int> next_armed;
    next_armed.reserve(armed.size() + 4);

    if (fds[0].revents != 0) {
      std::uint8_t drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
      std::vector<int> rearm;
      std::vector<int> close_list;
      {
        std::lock_guard lock(mu_);
        rearm.swap(pending_rearm_);
        close_list.swap(pending_close_);
      }
      for (int fd : close_list) CloseConn(fd);
      for (int fd : rearm) next_armed.push_back(fd);
    }

    if (fds[1].revents != 0) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;  // EAGAIN (drained) or shutdown
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        SetNonBlocking(fd);
        {
          std::lock_guard lock(mu_);
          auto conn = std::make_unique<Conn>();
          conn->fd = fd;
          conns_.emplace(fd, std::move(conn));
        }
        next_armed.push_back(fd);
      }
    }

    const auto after_poll = clock::now();
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      Conn* c = lookup(fd);
      if (c == nullptr) continue;

      if (!c->outq.empty()) {
        // Write-armed connection: flush on POLLOUT; anything else with
        // events set (POLLERR/POLLHUP/POLLNVAL) is a dead peer.
        if ((fds[i].revents & POLLOUT) != 0) {
          if (!FlushConn(*c)) {
            CloseConn(fd);
            continue;
          }
          if (c->outq.empty()) {
            if (c->close_after_drain) {
              CloseConn(fd);
              continue;
            }
            // Drained: intake may have been paused at the cap with
            // complete frames left in inbuf and unread bytes in the
            // kernel buffer — neither re-raises POLLIN by itself, so
            // hand the connection to a worker to resume parsing.
            c->readable_at = after_poll;
            if (!pool_->Submit([this, fd] { ServeReadable(fd); })) {
              CloseConn(fd);
            }
            continue;
          }
        } else if (fds[i].revents != 0) {
          CloseConn(fd);
          continue;
        }
        // Still write-blocked: enforce the stall deadline.
        if (c->over_cap &&
            after_poll - c->stall_since >=
                std::chrono::milliseconds(options_.stall_deadline_ms)) {
          stats_.slow_client_disconnects->Add(1);
          CX_LOG(kWarn, "tcp")
              << "disconnecting slow reader fd=" << fd << " ("
              << c->out_bytes << " bytes queued past deadline)";
          CloseConn(fd);
          continue;
        }
        next_armed.push_back(fd);
        continue;
      }

      // Read-armed connection: hand any activity (readable or hung-up)
      // to the pool; it leaves the poll set until the worker re-arms it,
      // so each connection has at most one worker and replies stay in
      // request order.
      if (fds[i].revents != 0) {
        c->readable_at = after_poll;
        if (!pool_->Submit([this, fd] { ServeReadable(fd); })) {
          CloseConn(fd);
        }
      } else {
        next_armed.push_back(fd);
      }
    }
    armed = std::move(next_armed);
  }
}

bool TcpServer::ParseFrames(Conn& c) {
  // Cursor-based scan: one erase of the consumed prefix at the end keeps
  // a pipelined burst O(bytes), not O(frames × bytes).
  std::size_t cursor = 0;
  while (!c.over_cap) {
    if (c.inbuf.size() - cursor < 4) break;
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(c.inbuf[cursor + i]) << (i * 8);
    }
    if (len > kMaxFrameSize) {
      if (cursor > 0) c.inbuf.erase(c.inbuf.begin(), c.inbuf.begin() + cursor);
      return false;  // framing violation: unrecoverable, drop
    }
    if (c.inbuf.size() - cursor < 4 + static_cast<std::size_t>(len)) break;

    const auto parse_start = std::chrono::steady_clock::now();
    auto request = Request::Deserialize(std::span<const std::uint8_t>(
        c.inbuf.data() + cursor + 4, len));
    Response response;
    if (!request) {
      response.code = ErrorCode::kDataLoss;
      response.error = "malformed request";
    } else {
      // Stage stamps for the handler's trace record: dispatcher handoff
      // (readable_at -> worker_start), queue wait behind earlier frames
      // of this burst (worker_start -> parse_start), and the parse.
      request->timing.valid = true;
      request->timing.readable_at = c.readable_at;
      request->timing.worker_start = c.worker_start;
      request->timing.parse_start = parse_start;
      request->timing.parse_done = std::chrono::steady_clock::now();
      response = handler_.Handle(*request);
    }
    EnqueueResponse(c, response);
    cursor += 4 + static_cast<std::size_t>(len);
  }
  if (cursor > 0) c.inbuf.erase(c.inbuf.begin(), c.inbuf.begin() + cursor);
  return true;
}

void TcpServer::EnqueueResponse(Conn& c, const Response& response) {
  // Frame length prefix + serialized header + owned payload prefix
  // become ONE owned chunk; each zero-copy segment rides behind it by
  // reference — for a GET the copied bytes end this function at ~16
  // while the entries stay in the log's arena.
  const std::vector<std::uint8_t> header = response.SerializeHeader();
  const std::size_t frame_len = header.size() + TotalSize(response.segments);

  OutChunk head;
  head.owned.reserve(4 + header.size());
  for (int i = 0; i < 4; ++i) {
    head.owned.push_back(static_cast<std::uint8_t>(frame_len >> (i * 8)));
  }
  head.owned.insert(head.owned.end(), header.begin(), header.end());
  c.outq.push_back(std::move(head));
  for (const ByteRun& seg : response.segments) {
    if (seg.size != 0) {
      OutChunk chunk;
      chunk.shared = seg;
      c.outq.push_back(std::move(chunk));
    }
  }
  // The trace completes when the reply's FINAL byte run drains, so it
  // rides the last chunk (the shared tail for a zero-copy GET).
  if (response.trace != nullptr) {
    c.outq.back().trace = response.trace;
  }
  c.out_bytes += 4 + frame_len;
  queued_bytes_.fetch_add(4 + frame_len, std::memory_order_relaxed);

  // High-water mark (monotonic max over all connections).
  stats_.peak_outbound_queue_bytes->UpdateMax(c.out_bytes);

  if (!c.over_cap && c.out_bytes > options_.max_outbound_bytes) {
    // The stall clock starts at the cap crossing and is reset ONLY by
    // draining back under the cap (FlushConn) — partial progress does
    // not extend the deadline, so a reader that trickles 1 byte per
    // write cannot evade disconnection.
    c.over_cap = true;
    c.stall_since = std::chrono::steady_clock::now();
    stats_.backpressure_stalls->Add(1);
  }
}

bool TcpServer::FlushConn(Conn& c) {
  while (!c.outq.empty()) {
    iovec iov[kMaxIovPerFlush];
    std::size_t cnt = 0;
    for (const OutChunk& chunk : c.outq) {
      if (cnt == kMaxIovPerFlush) break;
      const std::span<const std::uint8_t> bytes = chunk.bytes();
      iov[cnt].iov_base =
          const_cast<std::uint8_t*>(bytes.data() + chunk.offset);
      iov[cnt].iov_len = bytes.size() - chunk.offset;
      ++cnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(c.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return true;  // kernel buffer full: POLLOUT will resume the flush
      }
      return false;
    }
    stats_.writev_flushes->Add(1);
    c.out_bytes -= static_cast<std::size_t>(n);
    queued_bytes_.fetch_sub(static_cast<std::size_t>(n),
                            std::memory_order_relaxed);
    std::size_t consumed = static_cast<std::size_t>(n);
    while (consumed > 0) {
      OutChunk& front = c.outq.front();
      const std::size_t rem = front.bytes().size() - front.offset;
      if (consumed >= rem) {
        consumed -= rem;
        if (front.trace != nullptr) {
          // Reply fully handed to the kernel: stamp the flush stage; the
          // pop below releases the PendingTrace, publishing the record.
          front.trace->CompleteFlush();
        }
        c.outq.pop_front();
      } else {
        front.offset += consumed;
        consumed = 0;
      }
    }
    if (c.over_cap && c.out_bytes <= options_.max_outbound_bytes) {
      c.over_cap = false;  // drained under the cap: stall cleared
    }
  }
  return true;
}

void TcpServer::ServeReadable(int fd) {
  Conn* c = nullptr;
  {
    std::lock_guard lock(mu_);
    auto it = conns_.find(fd);
    if (it != conns_.end()) c = it->second.get();
  }
  if (c == nullptr) return;  // raced with shutdown teardown
  c->worker_start = std::chrono::steady_clock::now();

  bool drop = false;
  for (;;) {
    if (!ParseFrames(*c)) {
      drop = true;
      break;
    }
    if (c->over_cap || c->close_after_drain) {
      // Backpressure (or peer EOF): stop consuming input. Unread bytes
      // stay in the kernel buffer, so TCP flow control throttles the
      // sender; leftover complete frames in inbuf resume after drain.
      break;
    }
    std::uint8_t buf[kReadChunk];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c->inbuf.insert(c->inbuf.end(), buf, buf + n);
      continue;
    }
    if (n == 0) {
      // Peer EOF. Replies already queued for this burst still go out
      // (half-close friendly); the dispatcher closes once drained.
      c->close_after_drain = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    drop = true;
    break;
  }

  // End-of-burst flush: every reply queued above goes out in one gather
  // write (syscalls per burst, not per reply). Residue re-arms POLLOUT.
  if (!drop && !c->outq.empty() && !FlushConn(*c)) drop = true;
  if (!drop && c->close_after_drain && c->outq.empty()) drop = true;

  {
    std::lock_guard lock(mu_);
    if (drop) {
      pending_close_.push_back(fd);
    } else {
      pending_rearm_.push_back(fd);
    }
  }
  Wake();
}

void TcpServer::CloseConn(int fd) {
  bool do_close = false;
  {
    std::lock_guard lock(mu_);
    auto it = conns_.find(fd);
    if (it != conns_.end()) {
      queued_bytes_.fetch_sub(it->second->out_bytes,
                              std::memory_order_relaxed);
      conns_.erase(it);
      do_close = true;
    }
  }
  if (do_close) ::close(fd);
}

void TcpServer::Stop() {
  if (!running_.exchange(false)) {
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  // Unblock accept()/poll().
  ::shutdown(listen_fd_, SHUT_RDWR);
  Wake();
  if (poll_thread_.joinable()) poll_thread_.join();
  {
    std::lock_guard lock(mu_);
    for (auto& [fd, conn] : conns_) ::shutdown(fd, SHUT_RDWR);
  }
  // Queued/in-flight workers see EOF/errors fast now; drain them all.
  // Conn objects stay alive until the pool is down — workers hold raw
  // pointers into the registry.
  pool_->Shutdown();

  std::vector<int> leftovers;
  {
    std::lock_guard lock(mu_);
    leftovers.reserve(conns_.size());
    for (auto& [fd, conn] : conns_) leftovers.push_back(fd);
    pending_rearm_.clear();
    pending_close_.clear();
  }
  for (int fd : leftovers) CloseConn(fd);

  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
}

TcpClient::~TcpClient() { Close(); }

Status TcpClient::Connect(const std::string& host, std::uint16_t port) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::Error(ErrorCode::kUnavailable,
                         std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::Error(ErrorCode::kInvalidArgument, "bad host: " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s = Status::Error(
        ErrorCode::kUnavailable, std::string("connect: ") + std::strerror(errno));
    Close();
    return s;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Status::Ok();
}

void TcpClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TcpClient::Send(const Request& request) {
  if (fd_ < 0) {
    return Status::Error(ErrorCode::kFailedPrecondition, "not connected");
  }
  const auto out = request.Serialize();
  return WriteFrame(fd_,
                    std::span<const std::uint8_t>(out.data(), out.size()));
}

Result<Response> TcpClient::Receive() {
  if (fd_ < 0) {
    return Status::Error(ErrorCode::kFailedPrecondition, "not connected");
  }
  auto frame = ReadFrame(fd_, kMaxFrameSize);
  if (!frame.ok()) return frame.status();
  auto response = Response::Deserialize(std::span<const std::uint8_t>(
      frame.value().data(), frame.value().size()));
  if (!response) {
    return Status::Error(ErrorCode::kDataLoss, "malformed response");
  }
  return *response;
}

Result<Response> TcpClient::Call(const Request& request) {
  if (auto s = Send(request); !s.ok()) return s;
  return Receive();
}

Status ReconnectingTcpClient::EnsureConnected() {
  if (client_.connected()) return Status::Ok();
  if (auto s = client_.Connect(host_, port_); !s.ok()) return s;
  ++connects_;
  return Status::Ok();
}

void ReconnectingTcpClient::Drop() { client_.Close(); }

Status ReconnectingTcpClient::Send(const Request& request) {
  if (auto s = EnsureConnected(); !s.ok()) return s;
  const Status s = client_.Send(request);
  if (!s.ok()) Drop();
  return s;
}

Result<Response> ReconnectingTcpClient::Receive() {
  // No lazy connect here: a Receive with no connection has no matching
  // Send, which is a caller pairing bug, not a transport hiccup.
  auto r = client_.Receive();
  if (!r.ok()) Drop();
  return r;
}

Result<Response> ReconnectingTcpClient::Call(const Request& request) {
  if (auto s = Send(request); !s.ok()) return s;
  return Receive();
}

}  // namespace communix::net
