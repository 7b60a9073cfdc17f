// TCP transport (POSIX sockets) for the end-to-end distribution path.
//
// Figure 3 measures the whole signature-distribution pipeline over a real
// network stack: N client threads issuing "ADD(sig),GET(0)" sequences
// against the server. This is a minimal length-prefixed RPC over TCP with
// persistent connections.
//
// The server runs N epoll event loops, each owning its connections: the
// loop whose epoll_wait reports a connection ready reads it, parses every
// fully buffered request frame (pipelining: a client may send many
// frames before reading any reply; replies come back in order), runs the
// handler, flushes the replies and re-arms the connection itself, so a
// request never changes threads. One loop also accepts, and hands each
// new connection through an eventfd inbox to the loop with the fewest
// live connections. 10k mostly idle connections therefore cost 10k fds,
// not 10k threads; a handler that blocks holds up its loop's other
// connections, so no verb may wait on another node.
//
// Replies never block a loop: each connection carries a non-blocking
// outbound queue of owned-or-shared byte chunks (zero-copy Response
// segments are queued by reference, with the owner pin that keeps their
// bytes alive), flushed with one gather sendmsg per readable burst. A
// partial write arms the connection for EPOLLOUT instead of spinning;
// while the queue is non-empty the server reads nothing more from that
// connection, so TCP flow control pushes back on pipelining senders. A
// connection whose queue exceeds `max_outbound_bytes` and fails to drain
// back under the cap within `stall_deadline_ms` is a pathological slow
// reader and gets disconnected — the socket-level analogue of the
// deadlock-avoidance yield: one bad participant must not pin resources
// everyone shares.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "obs/metrics.hpp"

namespace communix::net {

/// Serves a RequestHandler on a TCP port.
class TcpServer {
 public:
  struct Options {
    /// 0 picks an ephemeral port (see port()).
    std::uint16_t port = 0;
    /// Event loops serving connections (each one thread); 0 = max(4, hw
    /// concurrency).
    std::size_t worker_threads = 0;
    /// Per-connection outbound queue cap. Crossing it marks the
    /// connection stalled (backpressure_stalls) and stops request intake
    /// on it until the queue drains back under the cap.
    std::size_t max_outbound_bytes = 32u * 1024u * 1024u;
    /// How long a connection may stay over the queue cap before it is
    /// disconnected as a pathological slow reader.
    int stall_deadline_ms = 15'000;
    /// Registry receiving the transport's counters (net.*). Share one
    /// with the server handler so a single kStats snapshot covers both
    /// tiers; null gives the transport a private registry.
    std::shared_ptr<obs::MetricsRegistry> metrics;
  };

  /// Structural counters for the non-blocking reply path (monotonic since
  /// Start; peak_outbound_queue_bytes is a high-water mark).
  struct Stats {
    std::uint64_t writev_flushes = 0;         ///< gather sendmsg syscalls
    std::uint64_t backpressure_stalls = 0;    ///< queue crossed the cap
    std::uint64_t slow_client_disconnects = 0;
    std::uint64_t peak_outbound_queue_bytes = 0;
    /// Reply bytes queued right now, summed over live connections (not
    /// monotonic): 0 once every queued reply has been flushed.
    std::uint64_t outbound_queue_bytes = 0;
  };

  TcpServer(RequestHandler& handler, std::uint16_t port = 0);
  TcpServer(RequestHandler& handler, const Options& options);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens and starts the event loops.
  Status Start();
  /// Stops accepting, joins the loops, closes all connections.
  void Stop();

  std::uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }
  /// Event loops of the last Start (0 before it).
  std::size_t worker_threads() const { return loops_.size(); }
  Stats GetStats() const;
  /// The registry the transport reports into (never null).
  const std::shared_ptr<obs::MetricsRegistry>& metrics() const {
    return metrics_;
  }

 private:
  struct Conn;
  struct Loop;

  /// One loop's thread: wait, serve whatever is ready, sweep stalls.
  void Run(Loop& loop);
  /// Accepts every pending connection and places each on a loop.
  void AcceptAll(Loop& self);
  /// Registers accepted `fd` with `loop` (on the loop's own thread).
  void Adopt(Loop& loop, int fd);
  /// Reads, parses and answers `c` until its input is drained, its
  /// queue is over the cap or the peer is gone, then flushes once and
  /// re-arms it (or closes it).
  void Serve(Conn& c);
  /// Parses every complete frame in c.inbuf (stops at the queue cap) and
  /// queues the replies. False = framing violation, drop the connection.
  bool ParseFrames(Conn& c);
  /// Queues one reply (frame header + owned prefix as one owned chunk,
  /// zero-copy segments by reference) and updates cap/stall state.
  void EnqueueResponse(Conn& c, const Response& response);
  /// Gather-flushes c.outq until empty or EAGAIN. False = fatal socket
  /// error (drop the connection); EAGAIN is success with residue.
  bool FlushConn(Conn& c);
  /// Waits for EPOLLIN while c.outq is empty, for EPOLLOUT otherwise.
  void Arm(Conn& c);
  /// Closes and frees `c` (on its loop's thread).
  void CloseConn(Conn& c);
  /// Disconnects the loop's over-cap connections past the stall
  /// deadline; returns the epoll_wait timeout to the next deadline.
  int SweepStalled(Loop& loop);

  RequestHandler& handler_;
  Options options_;
  std::uint16_t port_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::vector<std::unique_ptr<Loop>> loops_;
  /// Where the next placement's tie-break starts (accepting loop only).
  std::size_t next_loop_ = 0;

  /// Registry-owned counters (pointers stable for the registry's life;
  /// the registry outlives the server via metrics_).
  struct Counters {
    obs::Counter* writev_flushes = nullptr;
    obs::Counter* backpressure_stalls = nullptr;
    obs::Counter* slow_client_disconnects = nullptr;
    obs::Gauge* peak_outbound_queue_bytes = nullptr;  // high-water mark
  };
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  Counters stats_;
};

/// Blocking TCP client. Call() is the one-outstanding-request path;
/// Send()/Receive() split the round trip so callers can pipeline several
/// requests on one connection (replies arrive in request order) — and,
/// via PipelinedClientTransport, across connections: the LogShipper
/// fans one shipping round out to every follower before collecting any
/// reply.
class TcpClient final : public PipelinedClientTransport {
 public:
  TcpClient() = default;
  /// `io_deadline` > 0 bounds each blocking connect, send and receive
  /// step (SO_SNDTIMEO / SO_RCVTIMEO): a peer that accepts and never
  /// answers fails the call with kUnavailable instead of hanging it.
  explicit TcpClient(std::chrono::milliseconds io_deadline)
      : io_deadline_(io_deadline) {}
  ~TcpClient() override;

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  Status Connect(const std::string& host, std::uint16_t port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  Status Send(const Request& request) override;
  Result<Response> Receive() override;
  Result<Response> Call(const Request& request) override;

 private:
  int fd_ = -1;
  std::chrono::milliseconds io_deadline_{0};
};

/// A self-healing PipelinedClientTransport over one TcpClient: every
/// Send/Call (re)establishes the connection if it is down, and any
/// transport error tears it down so the NEXT round reconnects from a
/// clean slate (an errored pipelined connection has unknowable framing
/// state — resuming on it would desynchronize request/reply pairing).
/// This is what lets the LogShipper's pipelined ShipRound run over real
/// processes: a follower restart costs one failed round, then the
/// shipper reconnects and resumes from the follower's persisted length.
class ReconnectingTcpClient final : public PipelinedClientTransport {
 public:
  /// `io_deadline` bounds every connect, send and receive (TcpClient).
  ReconnectingTcpClient(std::string host, std::uint16_t port,
                        std::chrono::milliseconds io_deadline = {})
      : host_(std::move(host)), port_(port), client_(io_deadline) {}

  Status Send(const Request& request) override;
  Result<Response> Receive() override;
  Result<Response> Call(const Request& request) override;

  bool connected() const { return client_.connected(); }
  /// Successful connection establishments (first connect counts).
  std::uint64_t connects() const { return connects_; }

 private:
  Status EnsureConnected();
  void Drop();

  std::string host_;
  std::uint16_t port_;
  TcpClient client_;
  std::uint64_t connects_ = 0;
};

/// Frame helpers shared by both ends (u32 LE length + body). Exposed for
/// tests that exercise partial reads and oversized frames.
Status WriteFrame(int fd, std::span<const std::uint8_t> body);
Result<std::vector<std::uint8_t>> ReadFrame(int fd, std::size_t max_size);

/// Upper bound on accepted frame size (defensive; a signature is ~1.7 KB,
/// but GET(0) replies carry whole databases).
constexpr std::size_t kMaxFrameSize = 256u * 1024u * 1024u;

}  // namespace communix::net
