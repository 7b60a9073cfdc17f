// Request-stage tracing: where did a slow request spend its time?
//
// Every served request gets one fixed-size TraceRecord attributing its
// latency to the pipeline stages a frame passes through on the TCP tier:
//
//   accept     epoll_wait reported the socket ready -> its event loop
//              began serving it (about 0: the loop that sees a socket
//              serves it; more only behind connections ready before it)
//   queue_wait serving began -> this frame's parse began (time spent
//              behind earlier frames of the same pipelined burst)
//   parse      Request::Deserialize
//   store op   time inside the signature store (log append, ReadSince,
//              replicated ingest), accumulated via StageClock;
//              a GET's ReadSince gathers byte runs into the log arena
//              (one per block) and copies no entry, so this stage is
//              flat in the cursor's lag
//   serialize  the rest of the handler (reply building, token checks)
//   flush      reply enqueued -> last byte handed to the kernel by the
//              non-blocking gather writer (backpressure shows up here)
//
// Records land in a per-server TraceRing: a small ring of the most
// recent requests plus a second ring of requests over the slow
// threshold (CommunixServer::Options::slow_request_ns), which are also
// logged. The kStats verb serves the slow ring remotely, so tail latency
// is attributable per stage across a live deployment without a debugger.
//
// The flush stage completes after the handler has returned (the reply
// may sit in the outbound queue of a backpressured connection), so the
// record is carried by a PendingTrace: the handler fills the early
// stages and attaches the PendingTrace to the Response; the TCP tier
// hands it to the last outbound chunk and calls CompleteFlush when that
// chunk fully drains. The destructor publishes the record exactly once
// — a connection torn down mid-flush (or a transport with no flush
// phase, e.g. inproc) publishes with flush = 0.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace communix::obs {

enum class Stage : std::uint8_t {
  kAccept = 0,
  kQueueWait = 1,
  kParse = 2,
  kStoreOp = 3,
  kSerialize = 4,
  kFlush = 5,
};
inline constexpr std::size_t kNumStages = 6;

const char* StageName(Stage stage);

/// One request's per-stage timing. Fixed size; safe to memcpy around.
struct TraceRecord {
  std::uint8_t verb = 0;    // net::MsgType raw value
  std::uint8_t status = 0;  // ErrorCode raw value of the reply
  std::uint64_t start_unix_ns = 0;  // wall clock at handler entry
  std::uint64_t total_ns = 0;       // sum of the stage durations
  std::array<std::uint64_t, kNumStages> stage_ns{};

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Fixed-size ring of recent traces + ring of slow traces. Thread-safe;
/// one mutex — a push is a couple of stores, far below the request it
/// describes.
class TraceRing {
 public:
  struct Options {
    std::size_t capacity = 256;       // all-requests ring
    std::size_t slow_capacity = 64;   // over-threshold ring
    /// Requests with total_ns >= this are kept in the slow ring and
    /// logged (CX_LOG warn). 0 disables the slow path entirely.
    std::uint64_t slow_threshold_ns = 0;
  };

  TraceRing() : TraceRing(Options{}) {}
  explicit TraceRing(Options options);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Push(const TraceRecord& rec);

  /// Most recent records, newest first, at most `n`.
  std::vector<TraceRecord> Recent(std::size_t n) const;
  /// Most recent over-threshold records, newest first, at most `n`.
  std::vector<TraceRecord> RecentSlow(std::size_t n) const;

  std::uint64_t pushed() const;      // total records ever pushed
  std::uint64_t slow_total() const;  // of which over threshold
  std::uint64_t slow_threshold_ns() const { return options_.slow_threshold_ns; }

 private:
  const Options options_;
  mutable std::mutex mu_;
  std::vector<TraceRecord> all_;   // ring; next_ is the write cursor
  std::vector<TraceRecord> slow_;
  std::size_t all_next_ = 0;
  std::size_t slow_next_ = 0;
  std::uint64_t pushed_ = 0;
  std::uint64_t slow_total_ = 0;
};

/// Thread-local per-request stage accumulator. The server resets it at
/// handler entry; store calls inside the handlers run under a
/// StageClock::Scope, so the handler can split "store op" from "the
/// rest" without threading a context through every store signature.
class StageClock {
 public:
  static void Reset();
  static std::uint64_t Accumulated(Stage stage);

  class Scope {
   public:
    explicit Scope(Stage stage)
        : stage_(stage), t0_(std::chrono::steady_clock::now()) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Stage stage_;
    std::chrono::steady_clock::time_point t0_;
  };
};

/// Carries a partially-filled record from the handler to the flush
/// path. Published (once) by the destructor; CompleteFlush stamps the
/// flush stage when the reply's last outbound chunk drains. Never
/// touched by two threads at once: ownership moves handler -> outbound
/// queue -> flusher under the connection's state transitions.
class PendingTrace {
 public:
  PendingTrace(std::shared_ptr<TraceRing> ring, TraceRecord rec,
               std::chrono::steady_clock::time_point enqueued_at)
      : ring_(std::move(ring)), rec_(rec), enqueued_at_(enqueued_at) {}
  ~PendingTrace();

  PendingTrace(const PendingTrace&) = delete;
  PendingTrace& operator=(const PendingTrace&) = delete;

  /// The reply's final byte run was handed to the kernel.
  void CompleteFlush();

 private:
  std::shared_ptr<TraceRing> ring_;
  TraceRecord rec_;
  std::chrono::steady_clock::time_point enqueued_at_;
  bool flushed_ = false;
};

}  // namespace communix::obs
