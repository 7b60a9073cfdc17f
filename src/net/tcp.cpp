#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "util/logging.hpp"

namespace communix::net {

namespace {

/// A failed blocking socket call; EAGAIN there means its io deadline
/// (SO_RCVTIMEO / SO_SNDTIMEO) passed.
Status SocketError(const char* call) {
  const bool timed_out = errno == EAGAIN || errno == EWOULDBLOCK;
  return Status::Error(ErrorCode::kUnavailable,
                       std::string(call) + ": " +
                           (timed_out ? "timed out" : std::strerror(errno)));
}

Status ReadAll(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::recv(fd, data + got, len - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return SocketError("recv");
    }
    if (n == 0) {
      return Status::Error(ErrorCode::kUnavailable, "connection closed");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

/// Gather-write width per sendmsg call. Linux caps msg_iovlen at IOV_MAX
/// (1024); 64 already amortizes the syscall across a large burst.
constexpr std::size_t kMaxIovPerFlush = 64;

/// recv() scratch size for a loop's read pass.
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
  // (which costs a server one extra event-loop round per request).
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
      return SocketError("send");
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
  Loop* loop = nullptr;  // the loop that owns it, for its whole life
  /// Received-but-unparsed bytes (partial frames reassemble here).
  std::vector<std::uint8_t> inbuf;
  /// Queued reply bytes awaiting flush.
  std::deque<OutChunk> outq;
  /// Total unsent bytes across outq.
  std::size_t out_bytes = 0;
  /// outq crossed Options::max_outbound_bytes and has not drained back
  /// under it; request intake is paused and the stall clock is running.
  bool over_cap = false;
  /// In loop->stalled (removed lazily once over_cap clears).
  bool stall_listed = false;
  std::chrono::steady_clock::time_point stall_since{};
  /// Peer half-closed (EOF on read): flush remaining replies, then close.
  bool close_after_drain = false;
  /// Events the connection is armed for (EPOLLIN or EPOLLOUT).
  std::uint32_t armed = 0;
  /// Trace stamps for the current service pass: when epoll_wait reported
  /// the socket ready and when the loop began serving it.
  std::chrono::steady_clock::time_point readable_at{};
  std::chrono::steady_clock::time_point serve_start{};
};

/// One event loop: a thread, its epoll set and the connections in it.
/// Everything but `inbox` and the two atomics is touched only by the
/// loop's own thread (and by Stop once the thread is joined).
struct TcpServer::Loop {
  int epoll_fd = -1;
  /// eventfd: readable when `inbox` holds fds or Stop wants the loop.
  int inbox_fd = -1;
  std::mutex inbox_mu;
  std::vector<int> inbox;  // accepted fds not yet adopted
  /// Connections placed on this loop (counted at hand-off), for placement.
  std::atomic<std::size_t> live{0};
  /// Sum of Conn::out_bytes over this loop's connections (Stats).
  std::atomic<std::uint64_t> queued_bytes{0};
  std::unordered_map<int, std::unique_ptr<Conn>> conns;
  /// Connections that crossed the queue cap: the only ones the stall
  /// deadline applies to.
  std::vector<Conn*> stalled;
  /// Runs Run(*this); declared last, after everything it touches.
  std::thread thread;
};

namespace {

/// epoll_event::data.ptr of a loop's inbox eventfd; the listen socket's
/// is the server, and every other one is a Conn.
void* const kInboxTag = nullptr;

/// Events taken per epoll_wait.
constexpr int kMaxEvents = 64;

/// A connection yields its loop after this many full reads in one pass;
/// level-triggered epoll reports the rest on the next wait.
constexpr int kMaxReadsPerPass = 16;

}  // namespace

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
}

TcpServer::~TcpServer() { Stop(); }

TcpServer::Stats TcpServer::GetStats() const {
  Stats s;
  s.writev_flushes = stats_.writev_flushes->Value();
  s.backpressure_stalls = stats_.backpressure_stalls->Value();
  s.slow_client_disconnects = stats_.slow_client_disconnects->Value();
  s.peak_outbound_queue_bytes = stats_.peak_outbound_queue_bytes->Value();
  for (const auto& loop : loops_) {
    s.outbound_queue_bytes +=
        loop->queued_bytes.load(std::memory_order_relaxed);
  }
  return s;
}

Status TcpServer::Start() {
  const auto fail = [this](const char* what) {
    const Status s = Status::Error(
        ErrorCode::kUnavailable, std::string(what) + ": " + std::strerror(errno));
    for (const auto& loop : loops_) {
      if (loop->epoll_fd >= 0) ::close(loop->epoll_fd);
      if (loop->inbox_fd >= 0) ::close(loop->inbox_fd);
    }
    loops_.clear();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 1024) < 0) return fail("listen");
  if (port_ == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    port_ = ntohs(bound.sin_port);
  }

  std::size_t n = options_.worker_threads;
  if (n == 0) n = std::max<std::size_t>(4, std::thread::hardware_concurrency());
  loops_.clear();  // a previous run's, stopped
  next_loop_ = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto loop = std::make_unique<Loop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->inbox_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    loops_.push_back(std::move(loop));
    Loop& l = *loops_.back();
    if (l.epoll_fd < 0 || l.inbox_fd < 0) return fail("epoll/eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = kInboxTag;
    if (::epoll_ctl(l.epoll_fd, EPOLL_CTL_ADD, l.inbox_fd, &ev) < 0) {
      return fail("epoll_ctl");
    }
  }
  // The first loop accepts.
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = this;
  if (::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) < 0) {
    return fail("epoll_ctl");
  }

  running_.store(true);
  for (const auto& loop : loops_) {
    loop->thread = std::thread([this, l = loop.get()] { Run(*l); });
  }
  return Status::Ok();
}

void TcpServer::Run(Loop& loop) {
  epoll_event events[kMaxEvents];
  int timeout_ms = -1;
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epoll_fd, events, kMaxEvents, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      CX_LOG(kError, "tcp") << "epoll_wait failed: " << std::strerror(errno);
      break;
    }
    if (!running_.load(std::memory_order_acquire)) break;
    const auto ready_at = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      void* const tag = events[i].data.ptr;
      if (tag == kInboxTag) {
        std::uint64_t count = 0;
        (void)!::read(loop.inbox_fd, &count, sizeof(count));
        std::vector<int> fds;
        {
          std::lock_guard lock(loop.inbox_mu);
          fds.swap(loop.inbox);
        }
        for (const int fd : fds) Adopt(loop, fd);
        continue;
      }
      if (tag == this) {
        AcceptAll(loop);
        continue;
      }
      // Each ready connection appears once per wait, and only its own
      // event closes it, so the pointer is live here.
      Conn& c = *static_cast<Conn*>(tag);
      if (!c.outq.empty()) {
        // Write-armed: flush on EPOLLOUT; an error or hang-up without it
        // is a dead peer.
        if ((events[i].events & EPOLLOUT) == 0 || !FlushConn(c)) {
          CloseConn(c);
          continue;
        }
        if (!c.outq.empty()) continue;  // still blocked
        if (c.close_after_drain) {
          CloseConn(c);
          continue;
        }
        // Drained: intake may have paused at the cap with complete
        // frames left in inbuf and unread bytes in the kernel buffer,
        // so resume serving at once.
      }
      c.readable_at = ready_at;
      Serve(c);
    }
    timeout_ms = loop.stalled.empty() ? -1 : SweepStalled(loop);
  }
}

void TcpServer::AcceptAll(Loop& self) {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN: drained
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // The loop with the fewest live connections takes it, ties going
    // round-robin, so a daemon's few busy connections land on distinct
    // loops even while closed ones are still being counted.
    std::size_t pick = next_loop_;
    for (std::size_t k = 1; k < loops_.size(); ++k) {
      const std::size_t i = (next_loop_ + k) % loops_.size();
      if (loops_[i]->live.load(std::memory_order_relaxed) <
          loops_[pick]->live.load(std::memory_order_relaxed)) {
        pick = i;
      }
    }
    next_loop_ = (pick + 1) % loops_.size();
    Loop* const target = loops_[pick].get();
    target->live.fetch_add(1, std::memory_order_relaxed);
    if (target == &self) {
      Adopt(self, fd);
      continue;
    }
    {
      std::lock_guard lock(target->inbox_mu);
      target->inbox.push_back(fd);
    }
    const std::uint64_t wake = 1;
    (void)!::write(target->inbox_fd, &wake, sizeof(wake));
  }
}

void TcpServer::Adopt(Loop& loop, int fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  conn->loop = &loop;
  conn->armed = EPOLLIN;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = conn.get();
  if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, fd, &ev) < 0) {
    CX_LOG(kError, "tcp") << "epoll_ctl(ADD) failed: " << std::strerror(errno);
    ::close(fd);
    loop.live.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  loop.conns.emplace(fd, std::move(conn));
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
      // Stage stamps for the handler's trace record: ready to served
      // (readable_at -> serve_start), queue wait behind earlier frames
      // of this burst (serve_start -> parse_start), and the parse.
      request->timing.valid = true;
      request->timing.readable_at = c.readable_at;
      request->timing.serve_start = c.serve_start;
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
  c.loop->queued_bytes.fetch_add(4 + frame_len, std::memory_order_relaxed);

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
    if (!c.stall_listed) {
      c.stall_listed = true;
      c.loop->stalled.push_back(&c);
    }
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
        return true;  // kernel buffer full: EPOLLOUT resumes the flush
      }
      return false;
    }
    stats_.writev_flushes->Add(1);
    c.out_bytes -= static_cast<std::size_t>(n);
    c.loop->queued_bytes.fetch_sub(static_cast<std::size_t>(n),
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

void TcpServer::Serve(Conn& c) {
  c.serve_start = std::chrono::steady_clock::now();
  bool drop = false;
  bool yield = false;  // the kernel buffer is (probably) drained
  int reads = 0;
  for (;;) {
    if (!ParseFrames(c)) {
      drop = true;
      break;
    }
    if (c.over_cap || c.close_after_drain || yield) {
      // Backpressure (or peer EOF): stop consuming input. Unread bytes
      // stay in the kernel buffer, so TCP flow control throttles the
      // sender; leftover complete frames in inbuf resume after drain.
      break;
    }
    std::uint8_t buf[kReadChunk];
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.inbuf.insert(c.inbuf.end(), buf, buf + n);
      // A short read emptied the socket; a long one may leave more,
      // which level-triggered epoll reports again after this pass.
      yield = static_cast<std::size_t>(n) < sizeof(buf) ||
              ++reads == kMaxReadsPerPass;
      continue;
    }
    if (n == 0) {
      // Peer EOF. Replies already queued for this burst still go out
      // (half-close friendly); the loop closes once drained.
      c.close_after_drain = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    drop = true;
    break;
  }

  // End-of-burst flush: every reply queued above goes out in one gather
  // write (syscalls per burst, not per reply). Residue arms EPOLLOUT.
  if (!drop && !c.outq.empty() && !FlushConn(c)) drop = true;
  if (!drop && c.close_after_drain && c.outq.empty()) drop = true;
  if (drop) {
    CloseConn(c);
    return;
  }
  Arm(c);
}

void TcpServer::Arm(Conn& c) {
  const std::uint32_t want = c.outq.empty() ? EPOLLIN : EPOLLOUT;
  if (want == c.armed) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = &c;
  if (::epoll_ctl(c.loop->epoll_fd, EPOLL_CTL_MOD, c.fd, &ev) < 0) {
    CX_LOG(kError, "tcp") << "epoll_ctl(MOD) failed: " << std::strerror(errno);
    CloseConn(c);
    return;
  }
  c.armed = want;
}

void TcpServer::CloseConn(Conn& c) {
  Loop& loop = *c.loop;
  const int fd = c.fd;
  if (c.stall_listed) std::erase(loop.stalled, &c);
  loop.queued_bytes.fetch_sub(c.out_bytes, std::memory_order_relaxed);
  loop.live.fetch_sub(1, std::memory_order_relaxed);
  ::close(fd);  // also leaves the epoll set
  loop.conns.erase(fd);  // frees c
}

int TcpServer::SweepStalled(Loop& loop) {
  using clock = std::chrono::steady_clock;
  const auto deadline = std::chrono::milliseconds(options_.stall_deadline_ms);
  const auto now = clock::now();
  int timeout_ms = -1;
  for (std::size_t i = 0; i < loop.stalled.size();) {
    Conn& c = *loop.stalled[i];
    if (!c.over_cap || now - c.stall_since >= deadline) {
      c.stall_listed = false;
      loop.stalled[i] = loop.stalled.back();
      loop.stalled.pop_back();
      if (c.over_cap) {
        stats_.slow_client_disconnects->Add(1);
        CX_LOG(kWarn, "tcp")
            << "disconnecting slow reader fd=" << c.fd << " (" << c.out_bytes
            << " bytes queued past deadline)";
        CloseConn(c);
      }
      continue;
    }
    // Rounded up, so the wait ends at or after the deadline, not spinning
    // just before it.
    const int rem_ms = static_cast<int>(
        std::chrono::ceil<std::chrono::milliseconds>(c.stall_since + deadline -
                                                     now)
            .count());
    timeout_ms = timeout_ms < 0 ? rem_ms : std::min(timeout_ms, rem_ms);
    ++i;
  }
  return timeout_ms;
}

void TcpServer::Stop() {
  if (!running_.exchange(false)) return;
  const std::uint64_t wake = 1;
  for (const auto& loop : loops_) {
    (void)!::write(loop->inbox_fd, &wake, sizeof(wake));
  }
  for (const auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  // The loops are down: their connections (and fds handed off but never
  // adopted) are this thread's to close. The Loop objects stay until the
  // next Start, so GetStats never races their teardown.
  for (const auto& loop : loops_) {
    for (auto& [fd, conn] : loop->conns) ::close(fd);
    loop->conns.clear();
    loop->stalled.clear();
    for (const int fd : loop->inbox) ::close(fd);
    loop->inbox.clear();
    loop->queued_bytes.store(0, std::memory_order_relaxed);
    loop->live.store(0, std::memory_order_relaxed);
    ::close(loop->epoll_fd);
    ::close(loop->inbox_fd);
    loop->epoll_fd = loop->inbox_fd = -1;
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
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
  if (io_deadline_.count() > 0) {
    // Linux applies SO_SNDTIMEO to connect() as well.
    const auto ms = io_deadline_.count();
    const timeval tv{static_cast<time_t>(ms / 1000),
                     static_cast<suseconds_t>((ms % 1000) * 1000)};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status s = SocketError("connect");
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
