#include "communix/store/signature_store.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <unordered_map>
#include <unordered_set>

#include "communix/store/checkpoint.hpp"
#include "communix/store/dedup_index.hpp"
#include "communix/store/signature_log.hpp"
#include "util/serde.hpp"

namespace communix::store {

std::uint64_t GenerateEpoch() {
  // Random high bits (distinct across processes/restarts) + a process
  // counter (distinct within a process even if the RNG repeats).
  static std::atomic<std::uint64_t> counter{0};
  static const std::uint64_t process_salt = [] {
    std::random_device rd;
    return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  }();
  const std::uint64_t e =
      process_salt ^ (counter.fetch_add(1, std::memory_order_relaxed) + 1);
  return e == 0 ? 1 : e;
}

TopFrameKeys TopFrameSet(const dimmunix::Signature& sig) {
  TopFrameKeys tops;
  for (const auto& e : sig.entries()) {
    if (!e.outer.empty()) tops.insert(e.outer.TopKey());
    if (!e.inner.empty()) tops.insert(e.inner.TopKey());
  }
  return tops;
}

bool Adjacent(const TopFrameKeys& a, const TopFrameKeys& b) {
  if (a == b) return false;
  for (std::uint64_t k : a) {
    if (b.count(k) > 0) return true;
  }
  return false;
}

namespace {

// ---------------------------------------------------------------------------
// Shared §III-C decision procedure.
//
// Both backends run exactly this sequence against the caller's locked
// view of the sender's UserState; only the locking around it differs.
// Order matters and matches the seed server: the daily quota counts
// *processed* signatures (so adjacency/duplicate rejections still consume
// quota), the tenant quota is consumed after the personal one (a sybil
// flood pays per-user budget to probe the tenant limit), adjacency is
// checked before dedup, and the commit records the top-frame set only
// for accepted signatures.
// ---------------------------------------------------------------------------
template <typename TryConsumeTenant, typename TryInsertDedup, typename Commit>
AddOutcome RunAddPipeline(UserState& state, std::int64_t day,
                          const TopFrameKeys& tops, const Limits& limits,
                          TryConsumeTenant&& try_consume_tenant,
                          TryInsertDedup&& try_insert_dedup, Commit&& commit) {
  if (state.day != day) {
    state.day = day;
    state.processed_today = 0;
  }
  if (state.processed_today >= limits.per_user_daily_limit) {
    return AddOutcome::kRateLimited;
  }
  ++state.processed_today;

  if (!try_consume_tenant()) return AddOutcome::kTenantRateLimited;

  if (limits.adjacency_check_enabled) {
    for (const auto& prior : state.accepted_top_sets) {
      if (Adjacent(prior, tops)) return AddOutcome::kAdjacent;
    }
  }
  if (!try_insert_dedup()) return AddOutcome::kDuplicate;
  commit();
  state.accepted_top_sets.push_back(tops);
  return AddOutcome::kAccepted;
}

/// Tenant-quota consumption against the community's day counter
/// (a UserState keyed by community id — only the day/processed_today
/// fields are used). Mirrors the per-user day-reset logic above so both
/// quotas roll over at the same clock day.
bool ConsumeTenantQuota(UserState& tenant, std::int64_t day,
                        const Limits& limits) {
  if (limits.per_tenant_daily_limit == 0) return true;
  if (tenant.day != day) {
    tenant.day = day;
    tenant.processed_today = 0;
  }
  if (tenant.processed_today >= limits.per_tenant_daily_limit) return false;
  ++tenant.processed_today;
  return true;
}

// ---------------------------------------------------------------------------
// Persistence. The format lives in checkpoint.{hpp,cpp} now — saves
// write the framed/checksummed v3 layout (which doubles as the wire
// checkpoint a follower bootstraps from); v1/v2 files still load. This
// file keeps only the file-I/O shell around it.
// ---------------------------------------------------------------------------
Status WriteDbFile(const std::string& path,
                   const std::vector<std::uint8_t>& blob) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Error(ErrorCode::kUnavailable, "cannot open " + tmp);
    }
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out) {
      return Status::Error(ErrorCode::kUnavailable, "short write " + tmp);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Error(ErrorCode::kUnavailable, "rename: " + ec.message());
  }
  return Status::Ok();
}

Status ParseDbFile(const std::string& path, CheckpointData* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(ErrorCode::kNotFound, "cannot open " + path);
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return ParseCheckpoint(
      std::span<const std::uint8_t>(bytes.data(), bytes.size()), out);
}

/// Tops of a store-resident entry (accepted or validated at ingest, so
/// the bytes are known-good; an empty set on the impossible parse
/// failure just weakens adjacency instead of corrupting anything).
TopFrameKeys TopsOfEntry(const StoredSignature& entry) {
  auto sig = dimmunix::Signature::FromBytes(
      std::span<const std::uint8_t>(entry.bytes.data(), entry.bytes.size()));
  return sig ? TopFrameSet(*sig) : TopFrameKeys{};
}

/// Validates a replicated entry's signature bytes, filling in
/// entry.content_id and producing the adjacency top-set. nullopt if the
/// bytes fail to parse (lineage corruption — the primary only ships
/// entries it accepted, so these bytes must round-trip).
std::optional<TopFrameKeys> DecodeReplicatedEntry(StoredSignature& entry) {
  auto sig = dimmunix::Signature::FromBytes(
      std::span<const std::uint8_t>(entry.bytes.data(), entry.bytes.size()));
  if (!sig) return std::nullopt;
  entry.content_id = sig->ContentId();
  return TopFrameSet(*sig);
}

// ---------------------------------------------------------------------------
// Monolithic backend: the seed server's storage, verbatim layout. One
// shared_mutex guards everything; kept as the Figure-2 baseline and as
// the reference implementation for the equivalence property test.
// ---------------------------------------------------------------------------
class MonolithicStore final : public SignatureStore {
 public:
  explicit MonolithicStore(const StoreOptions& options)
      : epoch_(options.epoch != 0 ? options.epoch : GenerateEpoch()) {}

  AddOutcome Add(UserId sender, std::int64_t day, const TopFrameKeys& tops,
                 std::uint64_t content_id, const dimmunix::Signature& sig,
                 TimePoint added_at, const Limits& limits) override {
    std::unique_lock lock(mu_);
    return RunAddPipeline(
        users_[sender], day, tops, limits,
        [&] {
          return ConsumeTenantQuota(tenants_[CommunityOf(sender)], day,
                                    limits);
        },
        [&] { return content_ids_.insert(content_id).second; },
        [&] {
          StoredSignature stored;
          stored.bytes = sig.ToBytes();
          stored.content_id = content_id;
          stored.sender = sender;
          stored.added_at = added_at;
          db_.push_back(std::move(stored));
        });
  }

  void VisitRange(std::uint64_t from, std::uint64_t upto,
                  const std::function<void(
                      std::uint64_t, std::span<const std::uint8_t>)>& fn)
      const override {
    std::shared_lock lock(mu_);
    const std::uint64_t n = std::min<std::uint64_t>(upto, db_.size());
    for (std::uint64_t i = from; i < n; ++i) {
      fn(i, db_[i].bytes);
    }
  }

  std::uint64_t size() const override {
    std::shared_lock lock(mu_);
    return db_.size();
  }

  void VisitEntries(
      std::uint64_t from, std::uint64_t upto,
      const std::function<void(std::uint64_t, const EntryView&)>& fn)
      const override {
    std::shared_lock lock(mu_);
    const std::uint64_t n = std::min<std::uint64_t>(upto, db_.size());
    for (std::uint64_t i = from; i < n; ++i) {
      fn(i, ViewOf(db_[i]));
    }
  }

  std::uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  Status ApplyReplicated(std::uint64_t index, StoredSignature entry) override {
    auto tops = DecodeReplicatedEntry(entry);
    if (!tops) {
      return Status::Error(ErrorCode::kDataLoss,
                           "replicated signature fails to parse");
    }
    std::unique_lock lock(mu_);
    if (index != db_.size()) {
      return Status::Error(ErrorCode::kFailedPrecondition,
                           "replication index gap");
    }
    if (!content_ids_.insert(entry.content_id).second) {
      return Status::Error(ErrorCode::kDataLoss,
                           "replicated entry duplicates the dedup set");
    }
    users_[entry.sender].accepted_top_sets.push_back(std::move(*tops));
    db_.push_back(std::move(entry));
    return Status::Ok();
  }

  void ResetForReplication(std::uint64_t new_epoch) override {
    std::unique_lock lock(mu_);
    db_.clear();
    content_ids_.clear();
    users_.clear();
    tenants_.clear();
    superseded_count_ = 0;
    epoch_.store(new_epoch, std::memory_order_release);
  }

  Status SaveToFile(const std::string& path) const override {
    std::vector<StoredSignature> snapshot;
    std::uint64_t e = 0;
    {
      std::shared_lock lock(mu_);
      snapshot = db_;
      e = epoch_.load(std::memory_order_relaxed);
    }
    return WriteDbFile(path, SerializeCheckpoint(e, snapshot));
  }

  Status LoadFromFile(const std::string& path) override {
    CheckpointData data;
    if (auto s = ParseDbFile(path, &data); !s.ok()) return s;
    InstallSnapshot(data.epoch != 0 ? data.epoch : GenerateEpoch(),
                    std::move(data.records));
    return Status::Ok();
  }

  SuffixReply ReadSince(std::uint64_t from) const override {
    std::shared_lock lock(mu_);
    SuffixReply reply;
    if (from >= db_.size()) return reply;
    reply.count = static_cast<std::uint32_t>(db_.size() - from);
    BinaryWriter w;
    for (std::uint64_t i = from; i < db_.size(); ++i) {
      w.WriteBytes(std::span<const std::uint8_t>(db_[i].bytes.data(),
                                                 db_[i].bytes.size()));
    }
    reply.runs.push_back(
        ByteRun::Of(std::make_shared<const std::vector<std::uint8_t>>(
            w.take())));
    return reply;
  }

  std::vector<StoredSignature> CaptureSnapshot() const override {
    std::shared_lock lock(mu_);
    return db_;
  }

  void InstallSnapshot(std::uint64_t epoch,
                       std::vector<CheckpointRecord> records) override {
    std::unique_lock lock(mu_);
    db_.clear();
    content_ids_.clear();
    users_.clear();
    tenants_.clear();
    superseded_count_ = 0;
    db_.reserve(records.size());
    for (auto& rec : records) {
      content_ids_.insert(rec.entry.content_id);
      users_[rec.entry.sender].accepted_top_sets.push_back(
          std::move(rec.tops));
      if (rec.entry.superseded) ++superseded_count_;
      db_.push_back(std::move(rec.entry));
    }
    epoch_.store(epoch, std::memory_order_release);
  }

  bool MarkSuperseded(std::uint64_t index) override {
    std::unique_lock lock(mu_);
    if (index >= db_.size() || db_[index].superseded) return false;
    db_[index].superseded = true;
    ++superseded_count_;
    return true;
  }

  std::uint64_t superseded_count() const override {
    std::shared_lock lock(mu_);
    return superseded_count_;
  }

  std::uint64_t Compact() override {
    std::unique_lock lock(mu_);
    const std::uint64_t before = db_.size();
    std::vector<StoredSignature> survivors;
    survivors.reserve(before);
    for (StoredSignature& s : db_) {
      if (!s.superseded) survivors.push_back(std::move(s));
    }
    const std::uint64_t dropped = before - survivors.size();
    db_ = std::move(survivors);
    content_ids_.clear();
    users_.clear();
    tenants_.clear();
    superseded_count_ = 0;
    // Derived state is rebuilt from survivors only, so the compacted
    // store is indistinguishable from one bootstrapped from its own
    // checkpoint (the invariant the store tests pin). Dropping a
    // replaced signature's content id deliberately re-opens dedup for
    // its replacement lineage.
    for (const StoredSignature& s : db_) {
      content_ids_.insert(s.content_id);
      users_[s.sender].accepted_top_sets.push_back(TopsOfEntry(s));
    }
    epoch_.store(GenerateEpoch(), std::memory_order_release);
    return dropped;
  }

 private:
  mutable std::shared_mutex mu_;
  std::vector<StoredSignature> db_;
  std::unordered_set<std::uint64_t> content_ids_;
  std::unordered_map<UserId, UserState> users_;
  /// Per-community day quota (only the day/processed_today fields are
  /// used). Reset wherever users_ is: quota state is runtime-only, like
  /// the per-user counters.
  std::unordered_map<CommunityId, UserState> tenants_;
  std::uint64_t superseded_count_ = 0;
  std::atomic<std::uint64_t> epoch_;
};

// ---------------------------------------------------------------------------
// Sharded backend. Lock order: user shard -> dedup shard -> append mutex
// (strictly nested inside the pipeline, never the other way), so there is
// no cycle. A duplicate can be reported an instant before the winning
// append is published to readers — the decisions are still identical to
// some serialized order, which is all the monolithic lock guaranteed.
// ---------------------------------------------------------------------------
// The log is published through an atomic shared_ptr (the same RCU
// pattern as the dimmunix avoidance index): readers snapshot the
// pointer and walk that log lock-free, so replacing the whole database
// (ResetForReplication on a live follower, LoadFromFile) installs a
// fresh log object and simply lets in-flight readers finish against the
// retired one — no reader ever observes a log being torn down or its
// indexes being reused. A GET reply holds the log it was read from
// until its last byte run is flushed, so it outlives the swap too.
class ShardedStore final : public SignatureStore {
 public:
  explicit ShardedStore(const StoreOptions& options)
      : users_(options.user_shards),
        tenants_(options.user_shards),
        dedup_(options.dedup_shards),
        log_(std::make_shared<SignatureLog>()),
        epoch_(options.epoch != 0 ? options.epoch : GenerateEpoch()) {}

  AddOutcome Add(UserId sender, std::int64_t day, const TopFrameKeys& tops,
                 std::uint64_t content_id, const dimmunix::Signature& sig,
                 TimePoint added_at, const Limits& limits) override {
    const std::shared_ptr<SignatureLog> log = Log();
    return users_.With(sender, [&](UserState& state) {
      return RunAddPipeline(
          state, day, tops, limits,
          [&] {
            // Nested stripe acquisition across two DISTINCT shard
            // structures, always user → tenant — no cycle. Different
            // communities stripe independently, so their ADDs rarely
            // contend on the quota.
            return tenants_.With(CommunityOf(sender), [&](UserState& t) {
              return ConsumeTenantQuota(t, day, limits);
            });
          },
          [&] { return dedup_.TryInsert(content_id); },
          [&] {
            const std::vector<std::uint8_t> bytes = sig.ToBytes();
            log->Append(EntryView{bytes, content_id, sender, added_at});
          });
    });
  }

  void VisitRange(std::uint64_t from, std::uint64_t upto,
                  const std::function<void(
                      std::uint64_t, std::span<const std::uint8_t>)>& fn)
      const override {
    Log()->VisitBytes(from, upto, fn);
  }

  std::uint64_t size() const override { return Log()->size(); }

  void VisitEntries(
      std::uint64_t from, std::uint64_t upto,
      const std::function<void(std::uint64_t, const EntryView&)>& fn)
      const override {
    Log()->Visit(from, upto, fn);
  }

  std::uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  Status ApplyReplicated(std::uint64_t index, StoredSignature entry) override {
    auto tops = DecodeReplicatedEntry(entry);
    if (!tops) {
      return Status::Error(ErrorCode::kDataLoss,
                           "replicated signature fails to parse");
    }
    // Ingest is ordered (one entry at exactly size()), so serialize it
    // (also against ResetForReplication); lock-free GET scans stay
    // concurrent with the log append inside.
    std::lock_guard ingest(ingest_mu_);
    const std::shared_ptr<SignatureLog> log = Log();
    if (index != log->size()) {
      return Status::Error(ErrorCode::kFailedPrecondition,
                           "replication index gap");
    }
    if (!dedup_.TryInsert(entry.content_id)) {
      return Status::Error(ErrorCode::kDataLoss,
                           "replicated entry duplicates the dedup set");
    }
    users_.With(entry.sender, [&](UserState& state) {
      state.accepted_top_sets.push_back(std::move(*tops));
    });
    log->Append(ViewOf(entry));
    return Status::Ok();
  }

  void ResetForReplication(std::uint64_t new_epoch) override {
    std::lock_guard ingest(ingest_mu_);
    users_.Clear();
    tenants_.Clear();
    dedup_.Clear();
    // Fresh log object: concurrent GET scans keep reading the retired
    // one (kept alive by their shared_ptr snapshots) to completion.
    PublishLogLocked(std::make_shared<SignatureLog>(), new_epoch);
  }

  Status SaveToFile(const std::string& path) const override {
    // The snapshot log's committed prefix is immutable, so no lock is
    // needed: entries appended after the size() load inside are simply
    // not part of the save.
    return WriteDbFile(
        path, SerializeCheckpoint(epoch(), CaptureSnapshot()));
  }

  Status LoadFromFile(const std::string& path) override {
    CheckpointData data;
    if (auto s = ParseDbFile(path, &data); !s.ok()) return s;
    InstallSnapshot(data.epoch != 0 ? data.epoch : GenerateEpoch(),
                    std::move(data.records));
    return Status::Ok();
  }

  SuffixReply ReadSince(std::uint64_t from) const override {
    const std::shared_ptr<SignatureLog> log = Log();
    return log->ReadSince(from, log);
  }

  std::vector<StoredSignature> CaptureSnapshot() const override {
    const std::shared_ptr<SignatureLog> log = Log();
    const std::uint64_t n = log->size();
    std::vector<StoredSignature> snapshot;
    snapshot.reserve(n);
    log->Visit(0, n, [&](std::uint64_t i, const EntryView& e) {
      snapshot.push_back(ToStored(e));
      snapshot.back().superseded = log->IsSuperseded(i);
    });
    return snapshot;
  }

  void InstallSnapshot(std::uint64_t epoch,
                       std::vector<CheckpointRecord> records) override {
    std::lock_guard ingest(ingest_mu_);
    users_.Clear();
    tenants_.Clear();
    dedup_.Clear();
    std::vector<StoredSignature> entries;
    entries.reserve(records.size());
    for (auto& rec : records) {
      dedup_.TryInsert(rec.entry.content_id);
      users_.With(rec.entry.sender, [&](UserState& state) {
        state.accepted_top_sets.push_back(std::move(rec.tops));
      });
      entries.push_back(std::move(rec.entry));
    }
    // Populate a private log, then publish it whole.
    auto loaded = std::make_shared<SignatureLog>();
    loaded->Reset(std::move(entries));
    PublishLogLocked(std::move(loaded), epoch);
  }

  bool MarkSuperseded(std::uint64_t index) override {
    const std::shared_ptr<SignatureLog> log = Log();
    if (index >= log->size()) return false;
    return log->MarkSuperseded(index);
  }

  std::uint64_t superseded_count() const override {
    return Log()->superseded_count();
  }

  std::uint64_t Compact() override {
    std::lock_guard ingest(ingest_mu_);
    const std::shared_ptr<SignatureLog> log = Log();
    const std::uint64_t n = log->size();
    std::vector<StoredSignature> survivors;
    survivors.reserve(n);
    log->Visit(0, n, [&](std::uint64_t i, const EntryView& e) {
      if (!log->IsSuperseded(i)) survivors.push_back(ToStored(e));
    });
    const std::uint64_t dropped = n - survivors.size();
    users_.Clear();
    tenants_.Clear();
    dedup_.Clear();
    // Derived state is rebuilt from survivors only, so the compacted
    // store is indistinguishable from one bootstrapped from its own
    // checkpoint (the invariant the store tests pin). Dropping a
    // replaced signature's content id deliberately re-opens dedup for
    // its replacement lineage.
    for (const StoredSignature& s : survivors) {
      dedup_.TryInsert(s.content_id);
      users_.With(s.sender, [&](UserState& state) {
        state.accepted_top_sets.push_back(TopsOfEntry(s));
      });
    }
    auto compacted = std::make_shared<SignatureLog>();
    compacted->Reset(std::move(survivors));
    PublishLogLocked(std::move(compacted), GenerateEpoch());
    return dropped;
  }

 private:
  std::shared_ptr<SignatureLog> Log() const {
    return log_.load(std::memory_order_acquire);
  }

  /// Swaps the published log + epoch. Caller holds ingest_mu_ (swaps
  /// are serialized).
  void PublishLogLocked(std::shared_ptr<SignatureLog> log,
                        std::uint64_t new_epoch) {
    log_.store(std::move(log), std::memory_order_release);
    epoch_.store(new_epoch, std::memory_order_release);
  }

  UserStateShards users_;
  /// Per-community day quota, striped independently of users_ (nested
  /// acquisition in Add is always user → tenant across these two
  /// distinct structures — no cycle). Cleared wherever users_ is.
  UserStateShards tenants_;
  DedupIndex dedup_;
  std::atomic<std::shared_ptr<SignatureLog>> log_;
  std::mutex ingest_mu_;
  std::atomic<std::uint64_t> epoch_;
};

}  // namespace

std::unique_ptr<SignatureStore> SignatureStore::Create(
    const StoreOptions& options) {
  if (options.backend == Backend::kMonolithic) {
    return std::make_unique<MonolithicStore>(options);
  }
  return std::make_unique<ShardedStore>(options);
}

}  // namespace communix::store
