#include "communix/server.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_set>

namespace communix {

using dimmunix::Signature;

namespace {

std::uint64_t NanosSince(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

CommunixServer::CommunixServer(Clock& clock, Options options)
    : clock_(clock),
      options_(options),
      authority_(options.server_key),
      store_(store::SignatureStore::Create({})),
      metrics_(options.metrics ? options.metrics
                               : std::make_shared<obs::MetricsRegistry>()) {
  obs::MetricsRegistry& reg = *metrics_;
  // ADD outcome counters FIRST, adds_processed after them: snapshot read
  // order is registration order, which is what keeps
  // sum(outcomes) <= processed true in every snapshot (obs/metrics.hpp).
  stats_.adds_accepted = reg.GetCounter("server.adds_accepted");
  stats_.adds_duplicate = reg.GetCounter("server.adds_duplicate");
  stats_.rejected_bad_token = reg.GetCounter("server.rejected_bad_token");
  stats_.rejected_rate_limited =
      reg.GetCounter("server.rejected_rate_limited");
  stats_.rejected_adjacent = reg.GetCounter("server.rejected_adjacent");
  stats_.rejected_malformed = reg.GetCounter("server.rejected_malformed");
  stats_.rejected_tenant_quota =
      reg.GetCounter("server.rejected_tenant_quota");
  stats_.adds_processed = reg.GetCounter("server.adds_processed");
  stats_.gets_served = reg.GetCounter("server.gets_served");
  stats_.reply_bytes_copied = reg.GetCounter("server.reply_bytes_copied");
  stats_.reply_bytes_shared = reg.GetCounter("server.reply_bytes_shared");
  stats_.rejected_not_primary = reg.GetCounter("server.rejected_not_primary");
  stats_.repl_pulls_served = reg.GetCounter("server.repl_pulls_served");
  stats_.repl_batches_applied =
      reg.GetCounter("server.repl_batches_applied");
  stats_.repl_entries_applied =
      reg.GetCounter("server.repl_entries_applied");
  stats_.repl_entries_skipped =
      reg.GetCounter("server.repl_entries_skipped");
  stats_.repl_resets = reg.GetCounter("server.repl_resets");
  stats_.superseded_from_fp = reg.GetCounter("server.superseded_from_fp");
  stats_.stats_served = reg.GetCounter("server.stats_served");
  get_read_ns_ = reg.GetHistogram("server.get.read_ns");
  save_ns_ = reg.GetHistogram("store.persist.save_ns");
  save_failures_ = reg.GetCounter("store.persist.failures");
  obs::TraceRing::Options trace_opts;
  trace_opts.slow_threshold_ns = options_.slow_request_ns;
  trace_ring_ = std::make_shared<obs::TraceRing>(trace_opts);
  store_probe_ = reg.RegisterProbe([this](obs::ProbeSink& sink) {
    const std::shared_ptr<const store::SignatureLog> log = store_->log();
    sink.EmitGauge("store.db_size", log->size());
    sink.EmitGauge("store.epoch", log->epoch());
    sink.EmitGauge("store.superseded", log->superseded_count());
    const store::SignatureStore::PersistStats persist =
        store_->persist_stats();
    sink.EmitGauge("store.persist.entries", persist.entries);
    sink.EmitGauge("store.persist.superseded", persist.superseded);
    sink.EmitCounter("store.persist.bytes_written", persist.bytes_written);
    sink.EmitCounter("store.persist.rewrites", persist.rewrites);
  });
}

Status CommunixServer::AddDecoded(UserId user, const Signature& sig) {
  // Bumped BEFORE the outcome counters (and before the outcome is even
  // known): paired with the registration order in the constructor, this
  // is what makes sum(outcomes) <= adds_processed hold in snapshots.
  stats_.adds_processed->Add(1);
  if (sig.empty() || sig.num_threads() < 2) {
    stats_.rejected_malformed->Add(1);
    return Status::Error(ErrorCode::kInvalidArgument,
                         "signature must involve >= 2 threads");
  }

  const TimePoint now = clock_.Now();
  const std::int64_t today = now / kNanosPerDay;
  store::AddOutcome outcome;
  {
    obs::StageClock::Scope store_scope(obs::Stage::kStoreOp);
    outcome =
        store_->Add(user, today, store::TopFrameSet(sig), sig.ContentId(), sig,
                    now,
                    store::Limits{options_.per_user_daily_limit,
                                  options_.adjacency_check_enabled,
                                  options_.per_tenant_daily_limit});
  }
  switch (outcome) {
    case store::AddOutcome::kAccepted:
      NoteCommit();
      stats_.adds_accepted->Add(1);
      return Status::Ok();
    case store::AddOutcome::kDuplicate:
      stats_.adds_duplicate->Add(1);
      return Status::Error(ErrorCode::kAlreadyExists, "duplicate signature");
    case store::AddOutcome::kRateLimited:
      stats_.rejected_rate_limited->Add(1);
      return Status::Error(ErrorCode::kResourceExhausted,
                           "daily signature quota exceeded");
    case store::AddOutcome::kTenantRateLimited:
      stats_.rejected_tenant_quota->Add(1);
      return Status::Error(ErrorCode::kResourceExhausted,
                           "community daily quota exceeded");
    case store::AddOutcome::kAdjacent:
      stats_.rejected_adjacent->Add(1);
      return Status::Error(
          ErrorCode::kPermissionDenied,
          "adjacent to a signature previously sent by this user");
  }
  return Status::Error(ErrorCode::kInternal, "unreachable add outcome");
}

void CommunixServer::NoteCommit() {
  // Bump-then-probe, as in the runtime's fast-path release: the bump and
  // the probe are seq_cst, and so are the waiter's count increment and
  // its sequence check. If the probe reads 0, the waiter's check comes
  // after the bump in the total order and sees it, so it never parks on
  // a stale sequence. If the probe reads > 0, passing through commit_mu_
  // keeps the notify out of the waiter's check-to-park window. The
  // notify itself comes after the unlock, so the woken shipper does not
  // wake only to wait for the mutex this ADD still holds.
  commit_seq_.fetch_add(1);
  if (commit_waiters_.load() > 0) {
    { std::lock_guard lock(commit_mu_); }
    commit_cv_.notify_all();
  }
}

void CommunixServer::WaitForCommit(
    std::uint64_t seen, std::chrono::steady_clock::time_point deadline,
    const std::function<bool()>& stop) {
  std::unique_lock lock(commit_mu_);
  commit_waiters_.fetch_add(1);
  const auto ready = [&] { return commit_seq_.load() != seen || stop(); };
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    commit_cv_.wait(lock, ready);
  } else {
    commit_cv_.wait_until(lock, deadline, ready);
  }
  commit_waiters_.fetch_sub(1);
}

void CommunixServer::InterruptCommitWaiters() {
  std::lock_guard lock(commit_mu_);
  commit_cv_.notify_all();
}

Status CommunixServer::AddSignature(const UserToken& token,
                                    const Signature& sig) {
  if (options_.role == ServerRole::kFollower) {
    stats_.rejected_not_primary->Add(1);
    return Status::Error(ErrorCode::kFailedPrecondition,
                         "follower replica: ADD goes to the primary");
  }
  const auto user = authority_.Decode(token);
  if (!user) {
    stats_.rejected_bad_token->Add(1);
    return Status::Error(ErrorCode::kPermissionDenied, "invalid sender id");
  }
  return AddDecoded(*user, sig);
}

std::vector<Status> CommunixServer::AddBatch(
    const UserToken& token, std::span<const Signature> sigs) {
  std::vector<Status> out;
  out.reserve(sigs.size());
  if (options_.role == ServerRole::kFollower) {
    stats_.rejected_not_primary->Add(sigs.size());
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      out.push_back(
          Status::Error(ErrorCode::kFailedPrecondition,
                        "follower replica: ADD goes to the primary"));
    }
    return out;
  }
  const auto user = authority_.Decode(token);
  if (!user) {
    stats_.rejected_bad_token->Add(sigs.size());
    for (std::size_t i = 0; i < sigs.size(); ++i) {
      out.push_back(
          Status::Error(ErrorCode::kPermissionDenied, "invalid sender id"));
    }
    return out;
  }
  for (const Signature& sig : sigs) {
    out.push_back(AddDecoded(*user, sig));
  }
  return out;
}

void CommunixServer::VisitSince(
    std::uint64_t from,
    const std::function<void(std::uint64_t, std::span<const std::uint8_t>)>&
        fn) const {
  store_->VisitRange(from, UINT64_MAX, fn);
}

std::vector<std::vector<std::uint8_t>> CommunixServer::GetSince(
    std::uint64_t from) const {
  std::vector<std::vector<std::uint8_t>> out;
  VisitSince(from, [&](std::uint64_t, std::span<const std::uint8_t> bytes) {
    out.emplace_back(bytes.begin(), bytes.end());
  });
  return out;
}

std::uint64_t CommunixServer::db_size() const { return store_->size(); }

void CommunixServer::VisitEntries(
    std::uint64_t from, std::uint64_t upto,
    const std::function<void(std::uint64_t, const store::EntryView&)>& fn)
    const {
  store_->VisitEntries(from, upto, fn);
}

net::Response CommunixServer::HandleReplPull(const net::Request& request) {
  const auto pull = net::ParseReplPullRequest(request);
  if (!pull) {
    stats_.rejected_malformed->Add(1);
    net::Response resp;
    resp.code = ErrorCode::kInvalidArgument;
    resp.error = "malformed REPL_PULL payload";
    return resp;
  }
  // Probes (limit == 0) expose only epoch + length; entry-bearing pulls
  // ship sender ids and timestamps — data GET deliberately omits — and
  // therefore require the replication principal's credential.
  if (pull->limit > 0) {
    UserToken token;
    std::copy(pull->token.begin(), pull->token.end(), token.begin());
    const auto peer = authority_.Decode(token);
    if (!peer || *peer != kReplicationPeerId) {
      stats_.rejected_bad_token->Add(1);
      net::Response resp;
      resp.code = ErrorCode::kPermissionDenied;
      resp.error = "entry-bearing REPL_PULL requires the peer credential";
      return resp;
    }
  }
  // One log snapshot, its committed length pinned once: the epoch,
  // start/count and entries all name the same log while ADDs keep
  // landing and lineage changes publish new logs.
  const std::shared_ptr<const store::SignatureLog> log = store_->log();
  net::ReplPullReply reply;
  reply.epoch = log->epoch();
  reply.log_size = log->size();
  // Anti-entropy handshake: a requester on another lineage must restart
  // from 0 under our epoch — its cursor means nothing in this log.
  reply.reset = pull->epoch != reply.epoch;
  reply.start_index =
      reply.reset ? 0 : std::min<std::uint64_t>(pull->from_index,
                                                reply.log_size);
  const std::uint64_t limit =
      std::min<std::uint64_t>(pull->limit, options_.repl_pull_max_entries);
  const std::uint64_t upto =
      std::min<std::uint64_t>(reply.log_size, reply.start_index + limit);
  {
    obs::StageClock::Scope store_scope(obs::Stage::kStoreOp);
    log->Visit(
        reply.start_index, upto,
        [&](std::uint64_t, const store::EntryView& entry) {
          reply.entries.push_back(net::ReplEntry{
              entry.sender, entry.added_at,
              std::vector<std::uint8_t>(entry.bytes.begin(),
                                        entry.bytes.end())});
        });
  }
  stats_.repl_pulls_served->Add(1);
  return net::BuildReplPullReply(reply);
}

net::Response CommunixServer::HandleReplBatch(const net::Request& request) {
  net::Response resp;
  if (options_.role != ServerRole::kFollower) {
    stats_.rejected_not_primary->Add(1);
    resp.code = ErrorCode::kFailedPrecondition;
    resp.error = "primary does not ingest REPL_BATCH";
    return resp;
  }
  auto batch = net::ParseReplBatchRequest(request);
  if (!batch) {
    stats_.rejected_malformed->Add(1);
    resp.code = ErrorCode::kInvalidArgument;
    resp.error = "malformed REPL_BATCH payload";
    return resp;
  }
  // Ingest is destructive (reset wipes the store), so it requires the
  // replication principal's token — minted under the shared server key
  // by the primary, unforgeable to community members.
  UserToken token;
  std::copy(batch->token.begin(), batch->token.end(), token.begin());
  const auto peer = authority_.Decode(token);
  if (!peer || *peer != kReplicationPeerId) {
    stats_.rejected_bad_token->Add(1);
    resp.code = ErrorCode::kPermissionDenied;
    resp.error = "REPL_BATCH requires the replication peer credential";
    return resp;
  }
  if (batch->reset && batch->from_index != 0) {
    stats_.rejected_malformed->Add(1);
    resp.code = ErrorCode::kInvalidArgument;
    resp.error = "reset batch must restart at index 0";
    return resp;
  }
  // One store call per frame, so a frame of another lineage (a second
  // shipper) can never land between its steps, and a frame the store
  // refuses leaves it untouched (SignatureStore::IngestReplicated).
  store::SignatureStore::ReplicatedFrame frame;
  frame.epoch = batch->epoch;
  frame.reset = batch->reset;
  frame.from_index = batch->from_index;
  frame.entries.reserve(batch->entries.size());
  for (net::ReplEntry& e : batch->entries) {
    frame.entries.push_back(store::StoredSignature{
        std::move(e.sig_bytes), 0, e.sender, e.added_at});
  }
  const Result<store::SignatureStore::IngestOutcome> ingested = [&] {
    obs::StageClock::Scope store_scope(obs::Stage::kStoreOp);
    return store_->IngestReplicated(std::move(frame));
  }();
  if (!ingested.ok()) {
    resp.code = ingested.code();
    resp.error = ingested.status().message();
    return resp;
  }
  const store::SignatureStore::IngestOutcome& outcome = ingested.value();
  if (batch->reset || outcome.applied > 0) NoteCommit();
  if (batch->reset) stats_.repl_resets->Add(1);
  stats_.repl_batches_applied->Add(1);
  stats_.repl_entries_applied->Add(outcome.applied);
  stats_.repl_entries_skipped->Add(outcome.skipped);
  return net::BuildReplBatchReply(
      net::ReplBatchReply{outcome.epoch, outcome.size});
}

net::Response CommunixServer::Handle(const net::Request& request) {
  const std::uint64_t start_unix_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
  const auto dispatch_start = std::chrono::steady_clock::now();
  obs::StageClock::Reset();
  net::Response resp = HandleDispatch(request);
  // Centralized reply accounting: every verb's reply — including the
  // early-return repl/mark/stats handlers — lands here exactly once.
  stats_.reply_bytes_copied->Add(resp.payload.size());
  if (const std::size_t shared = TotalSize(resp.segments); shared > 0) {
    stats_.reply_bytes_shared->Add(shared);
  }
  // kStats itself is not traced: a monitoring poll must never evict the
  // slow requests it came to read.
  if (request.type == net::MsgType::kStats) return resp;
  const auto dispatch_end = std::chrono::steady_clock::now();
  obs::TraceRecord rec;
  rec.verb = static_cast<std::uint8_t>(request.type);
  rec.status = static_cast<std::uint8_t>(resp.code);
  rec.start_unix_ns = start_unix_ns;
  if (request.timing.valid) {
    // Pre-handler stages stamped by the TCP tier. An inproc/test caller
    // that never set them reports zeros there, which is also true.
    const auto delta = [](std::chrono::steady_clock::time_point a,
                          std::chrono::steady_clock::time_point b) {
      return b > a ? static_cast<std::uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             b - a)
                             .count())
                   : 0;
    };
    rec.stage_ns[static_cast<std::size_t>(obs::Stage::kAccept)] =
        delta(request.timing.readable_at, request.timing.serve_start);
    rec.stage_ns[static_cast<std::size_t>(obs::Stage::kQueueWait)] =
        delta(request.timing.serve_start, request.timing.parse_start);
    rec.stage_ns[static_cast<std::size_t>(obs::Stage::kParse)] =
        delta(request.timing.parse_start, request.timing.parse_done);
  }
  const std::uint64_t dispatch_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(dispatch_end -
                                                           dispatch_start)
          .count());
  const std::uint64_t store_ns =
      obs::StageClock::Accumulated(obs::Stage::kStoreOp);
  rec.stage_ns[static_cast<std::size_t>(obs::Stage::kStoreOp)] = store_ns;
  // Everything in the handler that wasn't the store: reply building and
  // token decode.
  rec.stage_ns[static_cast<std::size_t>(obs::Stage::kSerialize)] =
      dispatch_ns > store_ns ? dispatch_ns - store_ns : 0;
  // The flush stage completes after we return; PendingTrace publishes
  // the record once the TCP tier drains the reply (or is torn down).
  resp.trace =
      std::make_shared<obs::PendingTrace>(trace_ring_, rec, dispatch_end);
  return resp;
}

net::Response CommunixServer::HandleDispatch(const net::Request& request) {
  net::Response resp;
  switch (request.type) {
    case net::MsgType::kPing:
      break;

    case net::MsgType::kAddSignature: {
      BinaryReader r(std::span<const std::uint8_t>(request.payload.data(),
                                                   request.payload.size()));
      const auto raw_token = r.ReadRaw(16);
      auto sig = Signature::Deserialize(r);
      if (raw_token.size() != 16 || !sig || !r.AtEnd()) {
        stats_.rejected_malformed->Add(1);
        resp.code = ErrorCode::kInvalidArgument;
        resp.error = "malformed ADD payload";
        break;
      }
      UserToken token;
      std::copy(raw_token.begin(), raw_token.end(), token.begin());
      const Status s = AddSignature(token, *sig);
      resp.code = s.code();
      resp.error = s.message();
      break;
    }

    case net::MsgType::kAddBatch: {
      BinaryReader r(std::span<const std::uint8_t>(request.payload.data(),
                                                   request.payload.size()));
      const auto raw_token = r.ReadRaw(16);
      const std::uint32_t count = r.ReadU32();
      std::vector<Signature> sigs;
      // Every signature needs at least its 4-byte length prefix, so a
      // count beyond remaining()/4 is malformed — checked before the
      // reserve so a hostile count can't force a giant allocation.
      bool ok = raw_token.size() == 16 && r.ok() && count <= r.remaining() / 4;
      if (ok) sigs.reserve(count);
      for (std::uint32_t i = 0; ok && i < count; ++i) {
        const auto bytes = r.ReadBytes();
        auto sig = Signature::FromBytes(
            std::span<const std::uint8_t>(bytes.data(), bytes.size()));
        if (!r.ok() || !sig) {
          ok = false;
          break;
        }
        sigs.push_back(std::move(*sig));
      }
      if (!ok || !r.AtEnd()) {
        stats_.rejected_malformed->Add(1);
        resp.code = ErrorCode::kInvalidArgument;
        resp.error = "malformed ADD_BATCH payload";
        break;
      }
      UserToken token;
      std::copy(raw_token.begin(), raw_token.end(), token.begin());
      const auto statuses =
          AddBatch(token, std::span<const Signature>(sigs.data(), sigs.size()));
      BinaryWriter w;
      w.WriteU32(static_cast<std::uint32_t>(statuses.size()));
      for (const Status& s : statuses) {
        w.WriteU8(static_cast<std::uint8_t>(s.code()));
      }
      resp.payload = w.take();
      break;
    }

    case net::MsgType::kGetSignatures: {
      BinaryReader r(std::span<const std::uint8_t>(request.payload.data(),
                                                   request.payload.size()));
      const std::uint64_t from = r.ReadU64();
      if (!r.AtEnd()) {
        resp.code = ErrorCode::kInvalidArgument;
        resp.error = "malformed GET payload";
        break;
      }
      // The store answers with the entry count and the entries' wire
      // encodings as byte runs into its log arena, read against one log
      // snapshot and pinning it: the reply stays self-consistent, and
      // its bytes valid, even if the log is swapped out (a follower's
      // catch-up reset, Compact) before the transport flushes it. Only
      // the 4-byte count is owned per request; no entry is copied.
      const auto start = std::chrono::steady_clock::now();
      store::SuffixReply reply;
      {
        obs::StageClock::Scope store_scope(obs::Stage::kStoreOp);
        reply = store_->ReadSince(from);
      }
      get_read_ns_->Report(NanosSince(start));
      BinaryWriter w;
      w.WriteU32(reply.count);
      resp.segments = std::move(reply.runs);
      stats_.gets_served->Add(1);
      resp.payload = w.take();
      break;
    }

    case net::MsgType::kReplPull:
      return HandleReplPull(request);

    case net::MsgType::kReplBatch:
      return HandleReplBatch(request);

    case net::MsgType::kMarkSuperseded:
      return HandleMarkSuperseded(request);

    case net::MsgType::kStats:
      return HandleStats(request);

    case net::MsgType::kIssueId: {
      BinaryReader r(std::span<const std::uint8_t>(request.payload.data(),
                                                   request.payload.size()));
      const UserId user = r.ReadU64();
      if (!r.AtEnd()) {
        resp.code = ErrorCode::kInvalidArgument;
        resp.error = "malformed ISSUE_ID payload";
        break;
      }
      if (user == kReplicationPeerId) {
        // The replication credential authorizes wiping a follower; the
        // wire convenience must not hand it out.
        resp.code = ErrorCode::kPermissionDenied;
        resp.error = "reserved principal";
        break;
      }
      const UserToken token = authority_.Issue(user);
      resp.payload.assign(token.begin(), token.end());
      break;
    }
  }
  return resp;
}

Status CommunixServer::SaveToFile(const std::string& path) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t before = store_->persist_stats().bytes_written;
  const Status saved = store_->SaveToFile(path);
  if (!saved.ok()) save_failures_->Add(1);
  if (store_->persist_stats().bytes_written != before) {
    save_ns_->Report(NanosSince(start));
  }
  return saved;
}

Status CommunixServer::LoadFromFile(const std::string& path) {
  Status loaded = store_->LoadFromFile(path);
  if (loaded.ok()) NoteCommit();
  return loaded;
}

bool CommunixServer::MarkSuperseded(std::uint64_t index) {
  return store_->MarkSuperseded(index);
}

std::uint64_t CommunixServer::superseded_count() const {
  return store_->superseded_count();
}

std::uint64_t CommunixServer::Compact() {
  // Always a commit: even a compaction that drops nothing mints a new
  // epoch, which followers must adopt.
  const std::uint64_t dropped = store_->Compact();
  NoteCommit();
  return dropped;
}

std::uint64_t CommunixServer::MarkSupersededByContent(
    std::span<const std::uint64_t> content_ids) {
  if (content_ids.empty()) return 0;
  // One pass over the committed log: entries carry their content id, so
  // no signature bytes are parsed. Indexes are collected first and
  // marked after the scan (marks may swap atomic side-flags; keeping the
  // visit read-only preserves the store's lock-free-scan contract).
  std::unordered_set<std::uint64_t> wanted(content_ids.begin(),
                                           content_ids.end());
  std::vector<std::uint64_t> hits;
  store_->VisitEntries(
      0, UINT64_MAX,
      [&](std::uint64_t index, const store::EntryView& entry) {
        if (wanted.count(entry.content_id) != 0) hits.push_back(index);
      });
  std::uint64_t marked = 0;
  for (std::uint64_t index : hits) {
    if (store_->MarkSuperseded(index)) ++marked;
  }
  return marked;
}

net::Response CommunixServer::HandleMarkSuperseded(
    const net::Request& request) {
  net::Response resp;
  if (options_.role == ServerRole::kFollower) {
    // Marks mutate the primary's log; followers learn about them the
    // same way they learn everything else — compaction's epoch bump.
    stats_.rejected_not_primary->Add(1);
    resp.code = ErrorCode::kFailedPrecondition;
    resp.error = "follower replica: MARK_SUPERSEDED goes to the primary";
    return resp;
  }
  const auto mark = net::ParseMarkSupersededRequest(request);
  if (!mark) {
    stats_.rejected_malformed->Add(1);
    resp.code = ErrorCode::kInvalidArgument;
    resp.error = "malformed MARK_SUPERSEDED payload";
    return resp;
  }
  if (mark->content_ids.size() > options_.repl_pull_max_entries) {
    stats_.rejected_malformed->Add(1);
    resp.code = ErrorCode::kInvalidArgument;
    resp.error = "MARK_SUPERSEDED batch too large";
    return resp;
  }
  // Any registered member may retire content (the request carries the
  // community member's own token, like ADD) — marks only schedule
  // compaction of entries; they never forge or reorder data.
  UserToken token;
  std::copy(mark->token.begin(), mark->token.end(), token.begin());
  const auto user = authority_.Decode(token);
  if (!user) {
    stats_.rejected_bad_token->Add(1);
    resp.code = ErrorCode::kPermissionDenied;
    resp.error = "invalid sender id";
    return resp;
  }
  const std::uint64_t marked = MarkSupersededByContent(std::span<
      const std::uint64_t>(mark->content_ids.data(),
                           mark->content_ids.size()));
  stats_.superseded_from_fp->Add(marked);
  return net::BuildMarkSupersededReply(static_cast<std::uint32_t>(marked));
}

net::Response CommunixServer::HandleStats(const net::Request& request) {
  const auto stats_req = net::ParseStatsRequest(request);
  if (!stats_req) {
    stats_.rejected_malformed->Add(1);
    net::Response resp;
    resp.code = ErrorCode::kInvalidArgument;
    resp.error = "malformed STATS payload";
    return resp;
  }
  // Served by every role: introspection is read-only and carries no
  // community data, so any replica can answer.
  obs::MetricsSnapshot snap;
  if (stats_req->include_metrics) {
    snap = metrics_->Snapshot();
  } else {
    snap.captured_unix_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }
  if (stats_req->include_traces && stats_req->max_traces > 0) {
    snap.traces = trace_ring_->RecentSlow(stats_req->max_traces);
  }
  stats_.stats_served->Add(1);
  return net::BuildStatsReply(snap);
}

CommunixServer::Stats CommunixServer::GetStats() const {
  Stats out;
  // Read order mirrors the registry's tearing contract: outcome counters
  // first, the adds_processed total last, so sum(outcomes) <= total holds
  // in this struct too.
  out.adds_accepted = stats_.adds_accepted->Value();
  out.adds_duplicate = stats_.adds_duplicate->Value();
  out.rejected_bad_token = stats_.rejected_bad_token->Value();
  out.rejected_rate_limited = stats_.rejected_rate_limited->Value();
  out.rejected_adjacent = stats_.rejected_adjacent->Value();
  out.rejected_malformed = stats_.rejected_malformed->Value();
  out.gets_served = stats_.gets_served->Value();
  out.reply_bytes_copied = stats_.reply_bytes_copied->Value();
  out.reply_bytes_shared = stats_.reply_bytes_shared->Value();
  out.rejected_not_primary = stats_.rejected_not_primary->Value();
  out.repl_pulls_served = stats_.repl_pulls_served->Value();
  out.repl_batches_applied = stats_.repl_batches_applied->Value();
  out.repl_entries_applied = stats_.repl_entries_applied->Value();
  out.repl_entries_skipped = stats_.repl_entries_skipped->Value();
  out.repl_resets = stats_.repl_resets->Value();
  out.rejected_tenant_quota = stats_.rejected_tenant_quota->Value();
  out.superseded_from_fp = stats_.superseded_from_fp->Value();
  out.stats_served = stats_.stats_served->Value();
  out.adds_processed = stats_.adds_processed->Value();
  return out;
}

}  // namespace communix
