#include "communix/store/signature_store.hpp"

#include <atomic>
#include <cassert>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <shared_mutex>
#include <thread>
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

/// Builds the materialized reply slice for [from, n), reusing a cached
/// prefix when one is supplied (the extension path: only [prefix->upto,
/// n) is serialized). `serialize(lo, hi, w)` appends the length-prefixed
/// bytes of entries [lo, hi).
template <typename SerializeRange>
std::shared_ptr<const CachedSlice> BuildSlice(
    std::uint64_t from, std::uint64_t n,
    std::shared_ptr<const CachedSlice> prefix, SerializeRange&& serialize) {
  auto slice = std::make_shared<CachedSlice>();
  slice->from = from;
  slice->upto = n;
  slice->count = static_cast<std::uint32_t>(n - from);
  std::uint64_t scan_from = from;
  if (prefix != nullptr) {
    // A prefix reaching past n would leave more entries in the payload
    // than count says.
    assert(prefix->upto <= n && "cached prefix reaches past the slice");
    slice->payload = prefix->payload;  // the shared slice stays immutable
    scan_from = prefix->upto;
  }
  BinaryWriter w;
  serialize(scan_from, n, w);
  slice->payload.insert(slice->payload.end(), w.data().begin(),
                        w.data().end());
  return slice;
}

std::shared_ptr<const CachedSlice> EmptySlice(std::uint64_t from) {
  auto slice = std::make_shared<CachedSlice>();
  slice->from = from;
  slice->upto = from;
  return slice;
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
      : cache_(std::max<std::size_t>(options.read_cache_slices, 1)),
        cache_enabled_(options.read_cache_slices > 0),
        epoch_(options.epoch != 0 ? options.epoch : GenerateEpoch()) {}

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
                      std::uint64_t, const std::vector<std::uint8_t>&)>& fn)
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

  void VisitEntries(std::uint64_t from, std::uint64_t upto,
                    const std::function<void(
                        std::uint64_t, const StoredSignature&)>& fn)
      const override {
    std::shared_lock lock(mu_);
    const std::uint64_t n = std::min<std::uint64_t>(upto, db_.size());
    for (std::uint64_t i = from; i < n; ++i) {
      fn(i, db_[i]);
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
    generation_.fetch_add(1, std::memory_order_release);
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

  std::uint64_t read_generation() const override {
    return generation_.load(std::memory_order_acquire);
  }

  std::shared_ptr<const CachedSlice> ReadSince(std::uint64_t from,
                                               ReadPath* path) override {
    std::shared_lock lock(mu_);
    const std::uint64_t n = db_.size();
    if (from >= n) {
      if (path != nullptr) *path = ReadPath::kCacheHit;
      return EmptySlice(from);
    }
    const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
    std::shared_ptr<const CachedSlice> prefix;
    if (cache_enabled_) {
      if (auto hit = cache_.Lookup(gen, from); hit != nullptr) {
        if (hit->upto == n) {
          if (path != nullptr) *path = ReadPath::kCacheHit;
          return hit;
        }
        prefix = std::move(hit);
      }
    }
    if (path != nullptr) {
      *path = prefix != nullptr ? ReadPath::kCacheExtend : ReadPath::kColdScan;
    }
    auto slice = BuildSlice(
        from, n, std::move(prefix),
        [&](std::uint64_t lo, std::uint64_t hi, BinaryWriter& w) {
          for (std::uint64_t i = lo; i < hi; ++i) {
            w.WriteBytes(std::span<const std::uint8_t>(db_[i].bytes.data(),
                                                       db_[i].bytes.size()));
          }
        });
    if (cache_enabled_) cache_.Insert(gen, slice);
    return slice;
  }

  ReadCache::Stats read_cache_stats() const override {
    return cache_.GetStats();
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
    generation_.fetch_add(1, std::memory_order_release);
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
    generation_.fetch_add(1, std::memory_order_release);
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
  mutable ReadCache cache_;
  const bool cache_enabled_;
  std::atomic<std::uint64_t> epoch_;
  std::atomic<std::uint64_t> generation_{0};
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
// indexes being reused.
class ShardedStore final : public SignatureStore {
 public:
  explicit ShardedStore(const StoreOptions& options)
      : users_(options.user_shards),
        tenants_(options.user_shards),
        dedup_(options.dedup_shards),
        log_(std::make_shared<SignatureLog>()),
        cache_(std::max<std::size_t>(options.read_cache_slices, 1)),
        cache_enabled_(options.read_cache_slices > 0),
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
            // tenants stripe independently, so the multi-tenant hot
            // path stays contention-free across communities.
            return tenants_.With(CommunityOf(sender), [&](UserState& t) {
              return ConsumeTenantQuota(t, day, limits);
            });
          },
          [&] { return dedup_.TryInsert(content_id); },
          [&] {
            StoredSignature stored;
            stored.bytes = sig.ToBytes();
            stored.content_id = content_id;
            stored.sender = sender;
            stored.added_at = added_at;
            log->Append(std::move(stored));
          });
    });
  }

  void VisitRange(std::uint64_t from, std::uint64_t upto,
                  const std::function<void(
                      std::uint64_t, const std::vector<std::uint8_t>&)>& fn)
      const override {
    Log()->Visit(from, upto, [&](std::uint64_t i, const StoredSignature& s) {
      fn(i, s.bytes);
    });
  }

  std::uint64_t size() const override { return Log()->size(); }

  void VisitEntries(std::uint64_t from, std::uint64_t upto,
                    const std::function<void(
                        std::uint64_t, const StoredSignature&)>& fn)
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
    log->Append(std::move(entry));
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

  std::uint64_t read_generation() const override { return ReadView().gen; }

  std::shared_ptr<const CachedSlice> ReadSince(std::uint64_t from,
                                               ReadPath* path) override {
    const View view = ReadView();
    const std::uint64_t n = view.log->size();
    if (from >= n) {
      if (path != nullptr) *path = ReadPath::kCacheHit;
      return EmptySlice(from);
    }
    std::shared_ptr<const CachedSlice> prefix;
    if (cache_enabled_) {
      if (auto hit = cache_.Lookup(view.gen, from); hit != nullptr) {
        // A concurrent GET for this cursor that loaded a later length
        // may have cached a slice past n. Its entries are committed, so
        // it is served as it is; it must never become a prefix.
        if (hit->upto >= n) {
          if (path != nullptr) *path = ReadPath::kCacheHit;
          return hit;
        }
        prefix = std::move(hit);
      }
    }
    if (path != nullptr) {
      *path = prefix != nullptr ? ReadPath::kCacheExtend : ReadPath::kColdScan;
    }
    auto slice = BuildSlice(
        from, n, std::move(prefix),
        [&](std::uint64_t lo, std::uint64_t hi, BinaryWriter& w) {
          view.log->Visit(lo, hi,
                          [&](std::uint64_t, const StoredSignature& s) {
                            w.WriteBytes(std::span<const std::uint8_t>(
                                s.bytes.data(), s.bytes.size()));
                          });
        });
    // An insert that lost a race with a log swap is rejected by the
    // cache's generation check — a stale-log slice is never admitted.
    if (cache_enabled_) cache_.Insert(view.gen, slice);
    return slice;
  }

  ReadCache::Stats read_cache_stats() const override {
    return cache_.GetStats();
  }

  std::vector<StoredSignature> CaptureSnapshot() const override {
    const std::shared_ptr<SignatureLog> log = Log();
    const std::uint64_t n = log->size();
    std::vector<StoredSignature> snapshot;
    snapshot.reserve(n);
    log->Visit(0, n, [&](std::uint64_t i, const StoredSignature& s) {
      snapshot.push_back(s);
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
    log->Visit(0, n, [&](std::uint64_t i, const StoredSignature& s) {
      if (!log->IsSuperseded(i)) survivors.push_back(s);
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

  /// A consistent (generation, log) pair, seqlock-style: the swap path
  /// makes the generation odd, stores the log, then makes it even, so a
  /// reader that saw a torn combination (old generation, new log or
  /// vice versa) observes either an odd value or two different values
  /// and retries. Same generation ⟺ same log object.
  struct View {
    std::uint64_t gen;
    std::shared_ptr<SignatureLog> log;
  };
  View ReadView() const {
    for (;;) {
      const std::uint64_t g1 = gen_.load(std::memory_order_acquire);
      if ((g1 & 1) != 0) {
        std::this_thread::yield();
        continue;
      }
      std::shared_ptr<SignatureLog> log = Log();
      if (gen_.load(std::memory_order_acquire) == g1) {
        return View{g1, std::move(log)};
      }
    }
  }

  /// Swaps the published log + epoch under the seqlock. Caller holds
  /// ingest_mu_ (swaps are serialized; the seqlock only shields the
  /// lock-free readers).
  void PublishLogLocked(std::shared_ptr<SignatureLog> log,
                        std::uint64_t new_epoch) {
    gen_.fetch_add(1, std::memory_order_acq_rel);  // odd: swap in progress
    log_.store(std::move(log), std::memory_order_release);
    epoch_.store(new_epoch, std::memory_order_release);
    gen_.fetch_add(1, std::memory_order_release);  // even: next generation
  }

  UserStateShards users_;
  /// Per-community day quota, striped independently of users_ (nested
  /// acquisition in Add is always user → tenant across these two
  /// distinct structures — no cycle). Cleared wherever users_ is.
  UserStateShards tenants_;
  DedupIndex dedup_;
  std::atomic<std::shared_ptr<SignatureLog>> log_;
  std::mutex ingest_mu_;
  mutable ReadCache cache_;
  const bool cache_enabled_;
  std::atomic<std::uint64_t> epoch_;
  /// Log-identity generation (seqlock word): even when stable, odd
  /// mid-swap; the *user-visible* generation is the even value.
  std::atomic<std::uint64_t> gen_{0};
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
