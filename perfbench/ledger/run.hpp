// Shared types of one ledger run: the workload profile, the traffic
// sources each thread drives, and what they hand back for the metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "bytecode/nesting.hpp"
#include "bytecode/synthetic.hpp"
#include "dimmunix/frame.hpp"
#include "ledger/catalogue.hpp"
#include "ledger/stats.hpp"
#include "ledger/wire.hpp"
#include "net/tcp.hpp"

namespace ledger {

struct RingScraper;

/// One recorded span (traced runs only), written out when the run ends.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  const char* name = "";
  Nanos start = 0;
  Nanos end = 0;
};

/// Thread-confined span buffer; ids are unique across buffers.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  std::uint64_t Add(const char* name, Nanos start, Nanos end,
                    std::uint64_t parent = 0);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// A (time, log length) observation of one daemon.
struct LengthObservation {
  Nanos at = 0;
  std::uint64_t length = 0;
};

// ---- the community: user-A uploads, peers polling and immunizing -------

/// The synthetic application every community member runs, with its
/// precomputed nesting analysis (the agent's one-off pre-analysis).
struct CommunityApp {
  communix::bytecode::SyntheticApp app;
  communix::bytecode::NestingReport nesting;
  double nesting_s = 0;
  /// Canonical stack frames to each nested site, outermost first.
  std::vector<std::vector<communix::dimmunix::Frame>> site_paths;
  std::vector<std::uint32_t> site_lines;
};
std::unique_ptr<CommunityApp> BuildCommunityApp(std::uint64_t seed);

/// What the community threads measured.
struct CommunityResult {
  Sample upload_ms;          // UploadSignature wall time
  Sample upload_lag_ms;      // due time -> upload call
  Sample poll_ms;            // PollOnce wall time
  Sample scan_ms;            // ProcessNewSignatures wall time
  Sample acquire_us;         // first guarded Acquire after install
  Sample immunity_ms;        // UploadSignature start -> guarded acquire
  std::uint64_t uploads = 0;
  std::uint64_t upload_failures = 0;
  std::uint64_t polls = 0;
  std::uint64_t useful_polls = 0;
  std::uint64_t poll_failures = 0;
  std::uint64_t examined = 0;
  std::uint64_t accepted = 0;
  std::uint64_t merged = 0;
  std::uint64_t unconsulted = 0;     // installed but the acquire never hit it
  std::uint64_t missing_immunity = 0;  // valid uploads some peer never got
  std::uint64_t missing_history = 0;   // valid uploads absent from a history
  std::uint64_t index_republishes = 0;
  std::uint64_t index_entries_reused = 0;
  double history_size = 0;             // mean over peers
  std::vector<LengthObservation> primary_lengths;
  std::vector<LengthObservation> follower_lengths;
  /// Entries each peer poll fetched (traced runs), for the replays.
  std::vector<std::uint32_t> poll_counts;
  /// Recorded uploads (token + serialized signature) for the replays.
  std::vector<std::pair<communix::UserToken, std::vector<std::uint8_t>>> sent;
};

/// User A (uploader) and the peers, sharing one registry of uploads.
class Community {
 public:
  Community(const CommunityApp& app, std::uint16_t primary_port,
            std::uint16_t follower_port, int peers, std::uint64_t seed);
  ~Community();
  Community(const Community&) = delete;
  Community& operator=(const Community&) = delete;

  /// Connects and brings every peer up to date with the database.
  communix::Status Setup();

  /// Uploads at Poisson `rate` from start to end.
  void RunUploader(Nanos start, Nanos end, double rate, bool probe,
                   SpanLog* spans);
  /// Polls every `period` until end, then until every accepted valid
  /// upload is immune everywhere or `drain` passes.
  void RunPeers(Nanos start, Nanos end, Nanos period, Nanos drain, bool probe,
                SpanLog* spans);
  /// End-of-run history check; fills missing_history.
  void CheckHistories();

  CommunityResult& result() { return result_; }
  /// Counts every signature sent to the primary (GET reply bounds).
  std::atomic<std::uint64_t>* adds_sent = nullptr;
  /// Traced runs: the follower's slow ring, scraped on every peer tick.
  RingScraper* follower_ring = nullptr;
  /// Requests sent to each daemon (uploads/probes; polls/probes).
  std::uint64_t primary_requests() const { return primary_requests_; }
  std::uint64_t follower_requests() const { return follower_requests_; }

 private:
  struct Peer;
  struct Upload {
    Nanos t0 = 0;
    int site = -1;  // nested-site index; -1 = foreign signature
    bool accepted = false;
    std::uint64_t bug_key = 0;
    int immune_peers = 0;
  };
  bool AllImmune();

  const CommunityApp& app_;
  const std::uint16_t primary_port_;
  const std::uint16_t follower_port_;
  const std::uint64_t seed_;
  // Declared before the peers, whose clients hold a reference to them.
  communix::net::TcpClient primary_conn_;   // the uploader's connection
  communix::net::TcpClient follower_conn_;  // shared by the peers in turn
  std::vector<std::unique_ptr<Peer>> peers_;
  std::mutex mu_;
  std::unordered_map<std::uint64_t, Upload> uploads_;  // by content id
  std::atomic<bool> uploader_done_{false};
  std::uint64_t next_user_ = 0;
  std::uint64_t primary_requests_ = 0;
  std::uint64_t follower_requests_ = 0;
  CommunityResult result_;
};

}  // namespace ledger
