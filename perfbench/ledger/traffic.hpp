// The wire-level traffic of the ledger: GETs (poll-feed cursors or
// near-head) and storm ADDs to the primary, as lane sources whose
// replies are checked as they arrive.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "ledger/catalogue.hpp"
#include "ledger/run.hpp"
#include "ledger/stats.hpp"
#include "ledger/wire.hpp"
#include "obs/trace.hpp"

namespace ledger {

/// A GET reply kept for the end-of-run byte comparison with the primary.
struct GetSample {
  std::uint64_t from = 0;
  std::vector<std::uint8_t> payload;  // count + entries, as served
};

/// GET generation and checking (one lane).
class GetTraffic {
 public:
  /// Poll-feed: `daemons` client daemons, each lagging the head by its
  /// own Zipf-distributed amount. Near-head: every GET asks from the
  /// head the last reply showed.
  GetTraffic(bool zipf, std::size_t daemons, std::uint64_t head,
             std::uint64_t seed, const std::atomic<std::uint64_t>* adds_sent);

  /// Sets the length both daemons are known to have reached: the lower
  /// bound of every reply, and the base the primary's growth since (the
  /// adds_sent counter, reset by the caller) is added to for the upper.
  void set_floor(std::uint64_t floor) { floor_ = base_len_ = floor; }
  void set_record(bool record) { record_ = record; }

  Source OpenLoop(double rate, std::uint64_t seed);
  Source Closed(int depth, double share);

  OpenLoopStats latency;
  std::uint64_t completed = 0;
  std::uint64_t failures = 0;
  std::vector<GetSample> samples;
  std::vector<std::uint32_t> reply_counts;  // entries per reply (replays)
  SpanLog* spans = nullptr;                 // traced runs

 private:
  bool Make(std::uint64_t* tag, std::vector<std::uint8_t>* scratch,
            std::span<const std::uint8_t>* body);
  void OnReply(const InFlight& f, Nanos done,
               std::span<const std::uint8_t> frame, bool timed);

  std::vector<std::uint64_t> lag_;  // per client daemon
  communix::Rng rng_;
  std::uint64_t floor_;
  const std::atomic<std::uint64_t>* adds_sent_;
  std::uint64_t base_len_;
  std::uint64_t head_;  // longest log a reply has shown
  std::size_t sample_bytes_ = 0;
  bool record_ = false;
};

/// Storm ADD generation and checking (one lane).
class AddTraffic {
 public:
  AddTraffic(StormPlan* plan, std::atomic<std::uint64_t>* adds_sent)
      : plan_(plan), adds_sent_(adds_sent) {}
  void set_record(bool record) { record_ = record; }

  Source OpenLoop(double rate, std::uint64_t seed);
  Source Closed(int depth, double share);

  OpenLoopStats latency;
  std::uint64_t completed = 0;
  std::uint64_t frames = 0;
  StormTally tally;
  std::vector<std::shared_ptr<const PlannedFrame>> recorded;
  SpanLog* spans = nullptr;  // traced runs

 private:
  bool Make(std::uint64_t* tag, std::span<const std::uint8_t>* body);
  void OnReply(communix::net::Response&& r, Nanos due, Nanos sent, Nanos done,
               bool timed);

  StormPlan* plan_;
  std::atomic<std::uint64_t>* adds_sent_;
  std::deque<std::shared_ptr<const PlannedFrame>> inflight_;
  bool record_ = false;
};

/// A fixed list of request bodies sent closed-loop (preload, warm-up);
/// every reply must be kOk (and every batch status kOk).
struct FixedBatch {
  std::vector<std::vector<std::uint8_t>> bodies;
  std::size_t next = 0;
  std::uint64_t bad = 0;
  Source Closed(int depth);
};

/// Slow-ring scrapes (traced runs): kStats, traces only — periodic on a
/// lane, or one blocking scrape at a time over a client.
struct RingScraper {
  std::vector<communix::obs::TraceRecord> traces;
  std::uint64_t scrapes = 0;
  Source Periodic(Nanos period);
  void ScrapeOnce(communix::net::ClientTransport& t);
};

/// Runs `sources` closed-loop on a fresh connection to `port` until they
/// are exhausted or `seconds` pass.
communix::Status RunFixed(std::uint16_t port, std::vector<Source*> sources,
                          double seconds, LaneResult* out = nullptr);

}  // namespace ledger
