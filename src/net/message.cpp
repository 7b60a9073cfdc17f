#include "net/message.hpp"

namespace communix::net {

namespace {
// Verbs 7 (the deleted checkpoint transfer) and 8 (the deleted shard-map
// fetch) are retired (see MsgType).
constexpr std::uint8_t kRetiredCheckpointVerb = 7;
constexpr std::uint8_t kRetiredShardMapVerb = 8;
}  // namespace

std::vector<std::uint8_t> Request::Serialize() const {
  BinaryWriter w;
  w.WriteU8(static_cast<std::uint8_t>(type));
  w.WriteBytes(std::span<const std::uint8_t>(payload.data(), payload.size()));
  return w.take();
}

std::optional<Request> Request::Deserialize(
    std::span<const std::uint8_t> bytes) {
  BinaryReader r(bytes);
  Request req;
  const std::uint8_t t = r.ReadU8();
  if (t > static_cast<std::uint8_t>(MsgType::kStats) ||
      t == kRetiredCheckpointVerb || t == kRetiredShardMapVerb) {
    return std::nullopt;
  }
  req.type = static_cast<MsgType>(t);
  req.payload = r.ReadBytes();
  if (!r.AtEnd()) return std::nullopt;
  return req;
}

Request BuildAddBatchRequest(
    std::span<const std::uint8_t> token16,
    std::span<const std::vector<std::uint8_t>> serialized_sigs) {
  BinaryWriter w;
  w.WriteRaw(token16);
  w.WriteU32(static_cast<std::uint32_t>(serialized_sigs.size()));
  for (const auto& sig : serialized_sigs) {
    w.WriteBytes(std::span<const std::uint8_t>(sig.data(), sig.size()));
  }
  Request req;
  req.type = MsgType::kAddBatch;
  req.payload = w.take();
  return req;
}

std::optional<std::vector<ErrorCode>> ParseAddBatchResponse(
    const Response& resp) {
  BinaryReader r(
      std::span<const std::uint8_t>(resp.payload.data(), resp.payload.size()));
  const std::uint32_t count = r.ReadU32();
  // One byte per code: a count beyond the remaining payload is malformed
  // (checked before the reserve so it can't force a giant allocation).
  if (count > r.remaining()) return std::nullopt;
  std::vector<ErrorCode> codes;
  codes.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    codes.push_back(static_cast<ErrorCode>(r.ReadU8()));
  }
  if (!r.AtEnd()) return std::nullopt;
  return codes;
}

namespace {

// Entry list encoding shared by both replication verbs: u32 count, then
// per entry u64 sender + i64 added_at + length-prefixed signature bytes.
constexpr std::size_t kMinReplEntryBytes = 8 + 8 + 4;

void WriteReplEntries(BinaryWriter& w, const std::vector<ReplEntry>& entries) {
  w.WriteU32(static_cast<std::uint32_t>(entries.size()));
  for (const ReplEntry& e : entries) {
    w.WriteU64(e.sender);
    w.WriteI64(e.added_at);
    w.WriteBytes(
        std::span<const std::uint8_t>(e.sig_bytes.data(), e.sig_bytes.size()));
  }
}

bool ReadReplEntries(BinaryReader& r, std::vector<ReplEntry>& out) {
  const std::uint32_t count = r.ReadU32();
  // Checked before the reserve so a hostile count can't force a giant
  // allocation (same defense as the kAddBatch parser).
  if (!r.ok() || count > r.remaining() / kMinReplEntryBytes) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ReplEntry e;
    e.sender = r.ReadU64();
    e.added_at = r.ReadI64();
    e.sig_bytes = r.ReadBytes();
    if (!r.ok()) return false;
    out.push_back(std::move(e));
  }
  return true;
}

BinaryReader PayloadReader(const std::vector<std::uint8_t>& payload) {
  return BinaryReader(
      std::span<const std::uint8_t>(payload.data(), payload.size()));
}

}  // namespace

Request BuildReplPullRequest(const ReplPullRequest& pull) {
  BinaryWriter w;
  w.WriteRaw(
      std::span<const std::uint8_t>(pull.token.data(), pull.token.size()));
  w.WriteU64(pull.epoch);
  w.WriteU64(pull.from_index);
  w.WriteU32(pull.limit);
  Request req;
  req.type = MsgType::kReplPull;
  req.payload = w.take();
  return req;
}

std::optional<ReplPullRequest> ParseReplPullRequest(const Request& req) {
  if (req.type != MsgType::kReplPull) return std::nullopt;
  BinaryReader r = PayloadReader(req.payload);
  ReplPullRequest pull;
  pull.token = r.ReadRaw(16);
  if (pull.token.size() != 16) return std::nullopt;
  pull.epoch = r.ReadU64();
  pull.from_index = r.ReadU64();
  pull.limit = r.ReadU32();
  if (!r.AtEnd()) return std::nullopt;
  return pull;
}

Response BuildReplPullReply(const ReplPullReply& reply) {
  BinaryWriter w;
  w.WriteU64(reply.epoch);
  w.WriteU64(reply.log_size);
  w.WriteU8(reply.reset ? 1 : 0);
  w.WriteU64(reply.start_index);
  WriteReplEntries(w, reply.entries);
  Response resp;
  resp.payload = w.take();
  return resp;
}

std::optional<ReplPullReply> ParseReplPullReply(const Response& resp) {
  BinaryReader r = PayloadReader(resp.payload);
  ReplPullReply reply;
  reply.epoch = r.ReadU64();
  reply.log_size = r.ReadU64();
  const std::uint8_t reset = r.ReadU8();
  if (reset > 1) return std::nullopt;
  reply.reset = reset != 0;
  reply.start_index = r.ReadU64();
  if (!ReadReplEntries(r, reply.entries) || !r.AtEnd()) return std::nullopt;
  return reply;
}

Request BuildReplBatchRequest(const ReplBatchRequest& batch) {
  BinaryWriter w;
  w.WriteRaw(
      std::span<const std::uint8_t>(batch.token.data(), batch.token.size()));
  w.WriteU64(batch.epoch);
  w.WriteU8(batch.reset ? 1 : 0);
  w.WriteU64(batch.from_index);
  WriteReplEntries(w, batch.entries);
  Request req;
  req.type = MsgType::kReplBatch;
  req.payload = w.take();
  return req;
}

std::optional<ReplBatchRequest> ParseReplBatchRequest(const Request& req) {
  if (req.type != MsgType::kReplBatch) return std::nullopt;
  BinaryReader r = PayloadReader(req.payload);
  ReplBatchRequest batch;
  batch.token = r.ReadRaw(16);
  if (batch.token.size() != 16) return std::nullopt;
  batch.epoch = r.ReadU64();
  const std::uint8_t reset = r.ReadU8();
  if (reset > 1) return std::nullopt;
  batch.reset = reset != 0;
  batch.from_index = r.ReadU64();
  if (!ReadReplEntries(r, batch.entries) || !r.AtEnd()) return std::nullopt;
  return batch;
}

Response BuildReplBatchReply(const ReplBatchReply& reply) {
  BinaryWriter w;
  w.WriteU64(reply.epoch);
  w.WriteU64(reply.log_size);
  Response resp;
  resp.payload = w.take();
  return resp;
}

std::optional<ReplBatchReply> ParseReplBatchReply(const Response& resp) {
  BinaryReader r = PayloadReader(resp.payload);
  ReplBatchReply reply;
  reply.epoch = r.ReadU64();
  reply.log_size = r.ReadU64();
  if (!r.AtEnd()) return std::nullopt;
  return reply;
}

Request BuildMarkSupersededRequest(const MarkSupersededRequest& mark) {
  BinaryWriter w;
  w.WriteRaw(
      std::span<const std::uint8_t>(mark.token.data(), mark.token.size()));
  w.WriteU32(static_cast<std::uint32_t>(mark.content_ids.size()));
  for (std::uint64_t id : mark.content_ids) w.WriteU64(id);
  Request req;
  req.type = MsgType::kMarkSuperseded;
  req.payload = w.take();
  return req;
}

std::optional<MarkSupersededRequest> ParseMarkSupersededRequest(
    const Request& req) {
  if (req.type != MsgType::kMarkSuperseded) return std::nullopt;
  BinaryReader r = PayloadReader(req.payload);
  MarkSupersededRequest mark;
  mark.token = r.ReadRaw(16);
  if (mark.token.size() != 16) return std::nullopt;
  const std::uint32_t count = r.ReadU32();
  // Eight bytes per content id: a count beyond the remaining payload is
  // malformed (checked before the reserve so a hostile count can't force
  // a giant allocation — same defense as the repl-entry parsers).
  if (!r.ok() || count > r.remaining() / 8) return std::nullopt;
  mark.content_ids.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    mark.content_ids.push_back(r.ReadU64());
  }
  if (!r.AtEnd()) return std::nullopt;
  return mark;
}

Response BuildMarkSupersededReply(std::uint32_t marked) {
  BinaryWriter w;
  w.WriteU32(marked);
  Response resp;
  resp.payload = w.take();
  return resp;
}

std::optional<std::uint32_t> ParseMarkSupersededReply(const Response& resp) {
  BinaryReader r = PayloadReader(resp.payload);
  const std::uint32_t marked = r.ReadU32();
  if (!r.ok() || !r.AtEnd()) return std::nullopt;
  return marked;
}

Request BuildStatsRequest(const StatsRequest& stats) {
  BinaryWriter w;
  std::uint8_t flags = 0;
  if (stats.include_metrics) flags |= 1;
  if (stats.include_traces) flags |= 2;
  w.WriteU8(flags);
  w.WriteU32(stats.max_traces);
  Request req;
  req.type = MsgType::kStats;
  req.payload = w.take();
  return req;
}

std::optional<StatsRequest> ParseStatsRequest(const Request& req) {
  if (req.type != MsgType::kStats) return std::nullopt;
  BinaryReader r = PayloadReader(req.payload);
  const std::uint8_t flags = r.ReadU8();
  if (flags > 3) return std::nullopt;  // reserved bits must be zero
  StatsRequest stats;
  stats.include_metrics = (flags & 1) != 0;
  stats.include_traces = (flags & 2) != 0;
  stats.max_traces = r.ReadU32();
  if (!r.AtEnd()) return std::nullopt;
  return stats;
}

namespace {

// Per-entry floor sizes for the kStats reply lists: used to reject a
// hostile count before it can size a reserve (same defense as the
// repl-entry parsers).
constexpr std::size_t kMinNamedU64Bytes = 4 + 8;          // name len + value
constexpr std::size_t kMinHistogramBytes = 4 + 8 + 8 + 4; // name + count +
                                                          // sum + bucket count
constexpr std::size_t kTraceBytes = 1 + 1 + 8 + 8 + 6 * 8;

void WriteNamedU64s(
    BinaryWriter& w,
    const std::vector<std::pair<std::string, std::uint64_t>>& kvs) {
  w.WriteU32(static_cast<std::uint32_t>(kvs.size()));
  for (const auto& [name, value] : kvs) {
    w.WriteString(name);
    w.WriteU64(value);
  }
}

bool ReadNamedU64s(BinaryReader& r,
                   std::vector<std::pair<std::string, std::uint64_t>>& out) {
  const std::uint32_t count = r.ReadU32();
  if (!r.ok() || count > r.remaining() / kMinNamedU64Bytes) return false;
  out.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.ReadString();
    const std::uint64_t value = r.ReadU64();
    if (!r.ok()) return false;
    out.emplace_back(std::move(name), value);
  }
  return true;
}

}  // namespace

Response BuildStatsReply(const obs::MetricsSnapshot& snap) {
  BinaryWriter w;
  w.WriteU32(snap.version);
  w.WriteU64(snap.captured_unix_ns);
  WriteNamedU64s(w, snap.counters);
  WriteNamedU64s(w, snap.gauges);
  w.WriteU32(static_cast<std::uint32_t>(snap.histograms.size()));
  for (const auto& [name, h] : snap.histograms) {
    w.WriteString(name);
    w.WriteU64(h.count);
    w.WriteU64(h.sum_ns);
    std::uint32_t nonzero = 0;
    for (const auto b : h.buckets) nonzero += b != 0 ? 1 : 0;
    w.WriteU32(nonzero);
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;
      w.WriteU8(static_cast<std::uint8_t>(i));
      w.WriteU64(h.buckets[i]);
    }
  }
  w.WriteU32(static_cast<std::uint32_t>(snap.traces.size()));
  for (const auto& t : snap.traces) {
    w.WriteU8(t.verb);
    w.WriteU8(t.status);
    w.WriteU64(t.start_unix_ns);
    w.WriteU64(t.total_ns);
    for (const auto ns : t.stage_ns) w.WriteU64(ns);
  }
  Response resp;
  resp.payload = w.take();
  return resp;
}

std::optional<obs::MetricsSnapshot> ParseStatsReply(const Response& resp) {
  BinaryReader r = PayloadReader(resp.payload);
  obs::MetricsSnapshot snap;
  snap.version = r.ReadU32();
  if (!r.ok() || snap.version == 0 || snap.version > obs::kSnapshotVersion) {
    return std::nullopt;
  }
  snap.captured_unix_ns = r.ReadU64();
  if (!ReadNamedU64s(r, snap.counters)) return std::nullopt;
  if (!ReadNamedU64s(r, snap.gauges)) return std::nullopt;
  const std::uint32_t n_hist = r.ReadU32();
  if (!r.ok() || n_hist > r.remaining() / kMinHistogramBytes) {
    return std::nullopt;
  }
  snap.histograms.reserve(n_hist);
  for (std::uint32_t i = 0; i < n_hist; ++i) {
    std::string name = r.ReadString();
    obs::HistogramSnapshot h;
    h.count = r.ReadU64();
    h.sum_ns = r.ReadU64();
    const std::uint32_t nonzero = r.ReadU32();
    // 9 bytes per (index, count) pair; also bounded by the bucket count
    // itself, so duplicate-index spam can't inflate the list.
    if (!r.ok() || nonzero > obs::kHistogramBuckets ||
        nonzero > r.remaining() / 9) {
      return std::nullopt;
    }
    for (std::uint32_t b = 0; b < nonzero; ++b) {
      const std::uint8_t idx = r.ReadU8();
      const std::uint64_t cnt = r.ReadU64();
      if (!r.ok() || idx >= obs::kHistogramBuckets || cnt == 0) {
        return std::nullopt;
      }
      h.buckets[idx] = cnt;
    }
    snap.histograms.emplace_back(std::move(name), h);
  }
  const std::uint32_t n_traces = r.ReadU32();
  if (!r.ok() || n_traces > r.remaining() / kTraceBytes) return std::nullopt;
  snap.traces.reserve(n_traces);
  for (std::uint32_t i = 0; i < n_traces; ++i) {
    obs::TraceRecord t;
    t.verb = r.ReadU8();
    t.status = r.ReadU8();
    t.start_unix_ns = r.ReadU64();
    t.total_ns = r.ReadU64();
    for (auto& ns : t.stage_ns) ns = r.ReadU64();
    if (!r.ok()) return std::nullopt;
    snap.traces.push_back(t);
  }
  if (!r.AtEnd()) return std::nullopt;
  return snap;
}

std::size_t Response::payload_size() const {
  return payload.size() + TotalSize(segments);
}

std::vector<std::uint8_t> Response::FlattenedPayload() const {
  std::vector<std::uint8_t> flat = payload;
  AppendRuns(segments, &flat);
  return flat;
}

std::vector<std::uint8_t> Response::SerializeHeader() const {
  BinaryWriter w;
  w.WriteU8(static_cast<std::uint8_t>(code));
  w.WriteString(error);
  // Length prefix covers the logical payload (owned prefix + segments);
  // only the owned prefix follows here. A gather writer appends the
  // segment bytes verbatim, making the stream byte-identical to
  // Serialize()'s flat encoding — the receiver can't tell them apart.
  w.WriteU32(static_cast<std::uint32_t>(payload_size()));
  w.WriteRaw(std::span<const std::uint8_t>(payload.data(), payload.size()));
  return w.take();
}

std::vector<std::uint8_t> Response::Serialize() const {
  std::vector<std::uint8_t> bytes = SerializeHeader();
  AppendRuns(segments, &bytes);
  return bytes;
}

std::optional<Response> Response::Deserialize(
    std::span<const std::uint8_t> bytes) {
  BinaryReader r(bytes);
  Response resp;
  resp.code = static_cast<ErrorCode>(r.ReadU8());
  resp.error = r.ReadString();
  resp.payload = r.ReadBytes();
  if (!r.AtEnd()) return std::nullopt;
  return resp;
}

}  // namespace communix::net
