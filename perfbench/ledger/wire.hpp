// The load generator's transport: one non-blocking pipelined connection
// per lane, driven by one thread that multiplexes several traffic
// sources (open-loop Poisson, fixed-period probes, closed-loop at a
// fixed depth) onto it. Replies come back in request order, so the lane
// keeps a FIFO of what it sent and matches each reply frame to its
// source without any per-request id on the wire.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "ledger/stats.hpp"
#include "net/message.hpp"
#include "util/status.hpp"

namespace ledger {

/// Non-blocking framed TCP connection (u32 LE length + body, both ways).
class Conn {
 public:
  Conn() = default;
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  communix::Status Connect(const std::string& host, std::uint16_t port);
  void Close();
  int fd() const { return fd_; }

  /// Appends one frame to the outbound buffer.
  void Queue(std::span<const std::uint8_t> body);
  /// Writes what the socket accepts now. False on a socket error.
  bool Flush();
  bool want_write() const { return out_off_ < out_.size(); }
  /// Reads what is available; hands each complete frame body to `fn`.
  /// False on EOF or a socket/framing error.
  bool Drain(const std::function<void(std::span<const std::uint8_t>)>& fn);

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::vector<std::uint8_t> in_;
  std::size_t in_off_ = 0;  // first unconsumed byte
  std::size_t in_end_ = 0;  // one past the last received byte
};

/// A reply frame decoded into a Response (kDataLoss if undecodable).
communix::net::Response DecodeReply(std::span<const std::uint8_t> frame);

/// Reads a reply frame's status and payload in place, without copying
/// (what a multi-megabyte GET reply needs). False if malformed.
bool SplitReply(std::span<const std::uint8_t> frame, communix::ErrorCode* code,
                std::span<const std::uint8_t>* payload);

/// One request the lane sent and has not yet matched to a reply.
struct InFlight {
  std::size_t source = 0;
  std::uint64_t tag = 0;
  Nanos due = 0;
  Nanos sent = 0;
};

/// A traffic source multiplexed onto a lane. Exactly one of rate (open
/// loop, Poisson), period (fixed-period probes) or depth (closed loop)
/// is set.
struct Source {
  double rate = 0;
  std::uint64_t seed = 0;
  Nanos period = 0;
  int depth = 0;
  /// Closed loop: send only while this source's completions stay at or
  /// below max_share of every completion counted in the lane's shared
  /// total (keeps a minor class at its share of a capacity mix).
  double max_share = 0;

  /// Builds the request due at `due`. Either points *body at stable
  /// storage or fills *scratch and points *body at it. False when the
  /// source has nothing left to send.
  std::function<bool(Nanos due, std::uint64_t* tag,
                     std::vector<std::uint8_t>* scratch,
                     std::span<const std::uint8_t>* body)>
      make;
  /// Called for every reply frame, in send order (the span is valid for
  /// the call only).
  std::function<void(const InFlight&, Nanos done,
                     std::span<const std::uint8_t> frame)>
      on_reply;

  // Filled by RunLane.
  std::uint64_t done = 0;
  int inflight = 0;
  bool exhausted = false;
};

struct LaneResult {
  /// Requests unanswered at the drain deadline, or answered later than
  /// the lane's timeout after they were due.
  std::uint64_t timeouts = 0;
  bool transport_error = false;
  /// When the last reply arrived (0 if none).
  Nanos last_done = 0;
  /// Replies per consecutive `bucket` interval from `start` (when set).
  std::vector<std::uint64_t> buckets;
};

struct LaneOptions {
  Nanos start = 0;
  /// Sources stop generating at `end`; the lane then waits for
  /// outstanding replies until end + drain.
  Nanos end = 0;
  Nanos drain = 20'000'000'000;
  Nanos timeout = 20'000'000'000;
  /// Shared completion counter for max_share (may be null).
  std::atomic<std::uint64_t>* total_done = nullptr;
  /// Width of LaneResult::buckets; 0 records none.
  Nanos bucket = 0;
};

/// Runs `sources` over `conn` until every source is past `end` (or
/// exhausted) and no reply is outstanding, or the drain deadline passes.
LaneResult RunLane(Conn& conn, std::vector<Source*> sources,
                   const LaneOptions& options);

}  // namespace ledger
