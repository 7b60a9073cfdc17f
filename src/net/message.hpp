// Wire protocol between Communix clients and the Communix server.
//
// The paper's server processes two request kinds (§IV-A): ADD(sig) and
// GET(k) ("send me the signatures from the database starting from index
// k"). We add ISSUE_ID, the out-of-band step that hands each user their
// AES-encrypted id (the paper assumes this service exists; §III-C2),
// PING for health checks, ADD_BATCH, the replication verbs (REPL_PULL,
// REPL_BATCH), MARK_SUPERSEDED and STATS. Verbs 7 and 8 are retired and
// refused (see MsgType).
//
// Framing (both directions): u32 little-endian length, then the payload
// serialized with BinaryWriter. Requests: u8 type + fields. Responses:
// u8 status code + error string + payload bytes.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "obs/metrics.hpp"
#include "util/byte_run.hpp"
#include "util/serde.hpp"
#include "util/status.hpp"

namespace communix::net {

enum class MsgType : std::uint8_t {
  kPing = 0,
  kAddSignature = 1,   // token (16 bytes) + serialized signature
  kGetSignatures = 2,  // u64 from_index
  kIssueId = 3,        // u64 requested user id (test/deploy convenience)
  kAddBatch = 4,       // token (16 bytes) + u32 count + count length-prefixed
                       // serialized signatures; reply payload is u32 count +
                       // one status-code byte per signature, in order
  kReplPull = 5,       // replication feed read + anti-entropy handshake:
                       // requester's epoch, first missing index, entry limit
                       // (0 = probe only). Served by any role.
  kReplBatch = 6,      // committed-entry shipment into a follower: epoch,
                       // reset flag, start index, entries. Follower-only.
  // 7 and 8 are retired: 7 carried the deleted whole-store checkpoint
  // (a far-behind follower now catches up by kReplBatch replay like any
  // other), and 8 fetched the deleted multi-group shard map. The verbs
  // after them keep their numbers, and Request::Deserialize refuses both
  // bytes like any other unknown verb.
  kMarkSuperseded = 9, // batched supersede marks from the dimmunix
                       // false-positive / generalization flow: token (16
                       // bytes) + u32 count + count u64 content ids. The
                       // server marks every matching entry in ONE store
                       // pass; Compact() later drops them. Primary-only.
  kStats = 10,         // introspection: u8 flags (bit0 = metrics, bit1 =
                       // slow traces) + u32 max_traces; the reply is a
                       // versioned registry snapshot (counters, gauges,
                       // histograms) plus the most recent slow-request
                       // traces. Read-only and served by any role — this
                       // is what failure detectors, rebalancers and the
                       // communix_stats CLI scrape. Helpers:
                       // BuildStatsRequest / ParseStatsReply below.
};

/// Transport-side timestamps for request-stage tracing (obs/trace.hpp).
/// Never serialized — the TCP tier stamps them on the in-memory Request
/// it hands the handler, which derives the accept / queue-wait / parse
/// stages. `valid` stays false on transports that don't trace (inproc).
struct RequestTiming {
  bool valid = false;
  std::chrono::steady_clock::time_point readable_at{};  // epoll saw data
  std::chrono::steady_clock::time_point serve_start{};  // its loop began
  std::chrono::steady_clock::time_point parse_start{};
  std::chrono::steady_clock::time_point parse_done{};
};

struct Request {
  MsgType type = MsgType::kPing;
  std::vector<std::uint8_t> payload;
  /// Not part of the wire format (Serialize/Deserialize ignore it).
  RequestTiming timing;

  std::vector<std::uint8_t> Serialize() const;
  static std::optional<Request> Deserialize(
      std::span<const std::uint8_t> bytes);
};

struct Response {
  ErrorCode code = ErrorCode::kOk;
  std::string error;
  /// Owned header/prefix bytes of the reply payload. For most verbs this
  /// IS the whole payload; handlers that reply with large stored data put
  /// only the small per-request prefix here.
  std::vector<std::uint8_t> payload;
  /// Zero-copy payload tail: owner-pinned byte runs appended (in order)
  /// after `payload` on the wire. A GET reply owns only its 4-byte count
  /// and carries its entries as runs pointing into the signature log's
  /// arena, one per arena block, each pinning the log it was read from —
  /// so no GET copies an entry, and the bytes outlive a concurrent log
  /// swap until the last transport has flushed them. Segments never
  /// cross the wire structurally — the logical payload a peer
  /// deserializes is byte-identical to the flat `payload + segments`
  /// concatenation.
  std::vector<ByteRun> segments;
  /// Stage-trace carrier, not part of the wire format: the handler
  /// attaches it, the TCP flush path calls CompleteFlush when the
  /// reply's last chunk drains, and the destructor publishes the record
  /// to the server's trace ring exactly once (see obs/trace.hpp).
  std::shared_ptr<obs::PendingTrace> trace;

  bool ok() const { return code == ErrorCode::kOk; }

  /// Total logical payload size: owned prefix + all shared segments.
  std::size_t payload_size() const;

  /// The logical payload as one owned vector (copies segments — for
  /// callers that parse a Response without going through a transport).
  std::vector<std::uint8_t> FlattenedPayload() const;

  /// Serialized reply WITHOUT the segment bytes: u8 code + error string +
  /// u32 total payload length + the owned `payload` prefix. A gather
  /// writer emits this header followed by each segment's bytes; the
  /// result is byte-identical to Serialize().
  std::vector<std::uint8_t> SerializeHeader() const;

  std::vector<std::uint8_t> Serialize() const;
  static std::optional<Response> Deserialize(
      std::span<const std::uint8_t> bytes);
};

/// Builds a kAddBatch request from a raw 16-byte sender token and the
/// serialized signatures to upload (client side of the batched pipeline;
/// the token stays a raw span so this layer needs no crypto types).
Request BuildAddBatchRequest(
    std::span<const std::uint8_t> token16,
    std::span<const std::vector<std::uint8_t>> serialized_sigs);

/// Parses a kAddBatch reply payload into the per-signature status codes,
/// in upload order. nullopt if the payload is malformed.
std::optional<std::vector<ErrorCode>> ParseAddBatchResponse(
    const Response& resp);

// ---- replication verbs (cluster tier) -------------------------------------
//
// Replication ships committed SignatureLog entries with their full store
// metadata (sender, added_at, serialized signature), so a follower's log
// — and therefore its GET(k) byte streams, assigned indexes and save
// files — is byte-identical to the primary's. The epoch identifies a log
// lineage: entries from different epochs must never be mixed, and the
// catch-up handshake (a kReplPull probe) detects a mismatch and restarts
// the follower from index 0 under the primary's epoch.

/// One committed log entry as replication ships it.
struct ReplEntry {
  std::uint64_t sender = 0;
  std::int64_t added_at = 0;
  std::vector<std::uint8_t> sig_bytes;

  friend bool operator==(const ReplEntry&, const ReplEntry&) = default;
};

/// kReplPull request: "I am at (epoch, from_index); ship me up to `limit`
/// entries". limit == 0 is the anti-entropy probe (epoch + length only —
/// nothing sensitive, so probes need no credential and any client may
/// send them). Entry-bearing pulls (limit > 0) return the full stored
/// metadata including each entry's sender id — which GET deliberately
/// omits — so they require the replication principal's 16-byte `token`,
/// exactly like kReplBatch.
struct ReplPullRequest {
  std::vector<std::uint8_t> token;  // 16 bytes (may be zeros for probes)
  std::uint64_t epoch = 0;
  std::uint64_t from_index = 0;
  std::uint32_t limit = 0;

  ReplPullRequest() : token(16, 0) {}
  ReplPullRequest(std::uint64_t e, std::uint64_t from, std::uint32_t lim)
      : token(16, 0), epoch(e), from_index(from), limit(lim) {}
};

/// kReplPull reply. When the requester's epoch does not match the serving
/// node's, `reset` is set and any shipped entries restart at index 0 —
/// the receiver must discard its log and adopt `epoch`.
struct ReplPullReply {
  std::uint64_t epoch = 0;
  std::uint64_t log_size = 0;
  bool reset = false;
  std::uint64_t start_index = 0;
  std::vector<ReplEntry> entries;
};

/// kReplBatch request: entries [from_index, from_index + entries.size())
/// of the `epoch` log. `reset` orders the receiver to clear its state and
/// adopt `epoch` before applying (the catch-up path). `token` is the raw
/// 16-byte credential of the replication peer (the primary mints it for
/// the reserved replication principal; the follower verifies it before
/// touching its store — ingest is destructive, unlike kReplPull which
/// only reads what GET already serves).
struct ReplBatchRequest {
  std::vector<std::uint8_t> token;  // 16 bytes
  std::uint64_t epoch = 0;
  bool reset = false;
  std::uint64_t from_index = 0;
  std::vector<ReplEntry> entries;
};

/// kReplBatch reply: the follower's post-apply epoch and committed
/// length. The shipper resumes its feed cursor from `log_size`, which
/// makes retransmissions after a lost reply idempotent.
struct ReplBatchReply {
  std::uint64_t epoch = 0;
  std::uint64_t log_size = 0;
};

Request BuildReplPullRequest(const ReplPullRequest& pull);
std::optional<ReplPullRequest> ParseReplPullRequest(const Request& req);

Response BuildReplPullReply(const ReplPullReply& reply);
std::optional<ReplPullReply> ParseReplPullReply(const Response& resp);

Request BuildReplBatchRequest(const ReplBatchRequest& batch);
std::optional<ReplBatchRequest> ParseReplBatchRequest(const Request& req);

Response BuildReplBatchReply(const ReplBatchReply& reply);
std::optional<ReplBatchReply> ParseReplBatchReply(const Response& resp);

/// kMarkSuperseded request: the sender's 16-byte token plus the content
/// ids of signatures its runtime retired (generalization merges replace
/// the old content id; the FP detector disables flagged ones). One frame
/// per plugin sync batches every retirement since the last sync, and the
/// server marks all matching entries in a single store pass — feeding
/// compaction without a per-signature round trip. The reply payload is a
/// u32: how many entries were newly marked.
struct MarkSupersededRequest {
  std::vector<std::uint8_t> token;  // 16 bytes
  std::vector<std::uint64_t> content_ids;

  MarkSupersededRequest() : token(16, 0) {}
};

Request BuildMarkSupersededRequest(const MarkSupersededRequest& mark);
std::optional<MarkSupersededRequest> ParseMarkSupersededRequest(
    const Request& req);

Response BuildMarkSupersededReply(std::uint32_t marked);
std::optional<std::uint32_t> ParseMarkSupersededReply(const Response& resp);

// ---- introspection verb (observability tier) ------------------------------

/// kStats request: which parts of the snapshot to serve. Bounded like
/// every other verb — max_traces is clamped server-side by the ring
/// capacity, so a hostile value can't size an allocation.
struct StatsRequest {
  bool include_metrics = true;
  bool include_traces = false;
  std::uint32_t max_traces = 0;

  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

Request BuildStatsRequest(const StatsRequest& stats);
std::optional<StatsRequest> ParseStatsRequest(const Request& req);

/// kStats reply payload: u32 snapshot version + u64 captured_unix_ns +
/// counters (u32 count, {string, u64}) + gauges (same) + histograms
/// (u32 count, {string, u64 count, u64 sum_ns, u32 nonzero buckets,
/// {u8 index, u64 count}}) + traces (u32 count, {u8 verb, u8 status,
/// u64 start_unix_ns, u64 total_ns, 6 x u64 stage_ns}). Every count is
/// validated against the remaining bytes before any reserve.
Response BuildStatsReply(const obs::MetricsSnapshot& snap);
std::optional<obs::MetricsSnapshot> ParseStatsReply(const Response& resp);

/// Server-side request processor (implemented by communix::CommunixServer).
class RequestHandler {
 public:
  virtual ~RequestHandler() = default;
  virtual Response Handle(const Request& request) = 0;
};

/// Client-side synchronous transport.
class ClientTransport {
 public:
  virtual ~ClientTransport() = default;
  virtual Result<Response> Call(const Request& request) = 0;
};

/// A transport whose request/response halves can be driven separately,
/// so one thread can pipeline across several connections: send a request
/// on every connection first, then collect the replies (Call ≡ Send +
/// Receive on each). Replies on ONE transport arrive in request order;
/// interleaving Sends without matching Receives on the same transport is
/// the caller's bug. The LogShipper uses this to ship one round to all
/// followers concurrently — catch-up becomes O(lag) instead of
/// O(lag × followers) in round-trip terms.
class PipelinedClientTransport : public ClientTransport {
 public:
  virtual Status Send(const Request& request) = 0;
  virtual Result<Response> Receive() = 0;
};

}  // namespace communix::net
