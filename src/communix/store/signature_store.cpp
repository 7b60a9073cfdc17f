#include "communix/store/signature_store.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <random>

#include "communix/store/checkpoint.hpp"

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

/// Consumes one unit of a day quota (the per-user one or, in a UserState
/// keyed by community id, the per-community one): resets the counter on
/// a new clock day, then false when the day's `limit` is spent.
bool ConsumeQuota(UserState& quota, std::int64_t day, std::size_t limit) {
  if (quota.day != day) {
    quota.day = day;
    quota.processed_today = 0;
  }
  if (quota.processed_today >= limit) return false;
  ++quota.processed_today;
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

}  // namespace

SignatureStore::SignatureStore(const StoreOptions& options)
    : log_(std::make_shared<SignatureLog>()),
      epoch_(options.epoch != 0 ? options.epoch : GenerateEpoch()) {}

std::unique_ptr<SignatureStore> SignatureStore::Create(
    const StoreOptions& options) {
  return std::make_unique<SignatureStore>(options);
}

AddOutcome SignatureStore::Add(UserId sender, std::int64_t day,
                               const TopFrameKeys& tops,
                               std::uint64_t content_id,
                               const dimmunix::Signature& sig,
                               TimePoint added_at, const Limits& limits) {
  // The §III-C decision procedure, in the seed server's order: the daily
  // quota counts *processed* signatures (so adjacency and duplicate
  // rejections still consume it), the community quota is consumed after
  // the personal one (a sybil flood pays per-user budget to probe the
  // community limit), adjacency is checked before dedup, and only an
  // accepted signature records its top-frame set.
  //
  // Lock order: user stripe -> community stripe, and user stripe ->
  // dedup stripe -> the log's append mutex, always nested that way, so
  // there is no cycle. A duplicate can be reported an instant before the
  // winning append is published to readers; the decisions are still
  // those of some serialized order of the ADDs.
  const std::shared_ptr<SignatureLog> log = Log();
  return users_.With(sender, [&](UserState& state) {
    if (!ConsumeQuota(state, day, limits.per_user_daily_limit)) {
      return AddOutcome::kRateLimited;
    }
    if (limits.per_tenant_daily_limit != 0 &&
        !tenants_.With(CommunityOf(sender), [&](UserState& community) {
          return ConsumeQuota(community, day, limits.per_tenant_daily_limit);
        })) {
      return AddOutcome::kTenantRateLimited;
    }
    if (limits.adjacency_check_enabled) {
      for (const auto& prior : state.accepted_top_sets) {
        if (Adjacent(prior, tops)) return AddOutcome::kAdjacent;
      }
    }
    if (!dedup_.TryInsert(content_id)) return AddOutcome::kDuplicate;
    const std::vector<std::uint8_t> bytes = sig.ToBytes();
    log->Append(EntryView{bytes, content_id, sender, added_at});
    state.accepted_top_sets.push_back(tops);
    return AddOutcome::kAccepted;
  });
}

void SignatureStore::VisitRange(
    std::uint64_t from, std::uint64_t upto,
    const std::function<void(std::uint64_t, std::span<const std::uint8_t>)>&
        fn) const {
  Log()->VisitBytes(from, upto, fn);
}

std::uint64_t SignatureStore::size() const { return Log()->size(); }

void SignatureStore::VisitEntries(
    std::uint64_t from, std::uint64_t upto,
    const std::function<void(std::uint64_t, const EntryView&)>& fn) const {
  Log()->Visit(from, upto, fn);
}

std::uint64_t SignatureStore::epoch() const {
  return epoch_.load(std::memory_order_acquire);
}

Status SignatureStore::ApplyReplicated(std::uint64_t index,
                                       StoredSignature entry) {
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

void SignatureStore::ResetForReplication(std::uint64_t new_epoch) {
  std::lock_guard ingest(ingest_mu_);
  users_.Clear();
  tenants_.Clear();
  dedup_.Clear();
  // Fresh log object: concurrent GET scans keep reading the retired
  // one (kept alive by their shared_ptr snapshots) to completion.
  PublishLogLocked(std::make_shared<SignatureLog>(), new_epoch);
}

Status SignatureStore::SaveToFile(const std::string& path) const {
  // The snapshot log's committed prefix is immutable, so no lock is
  // needed: entries appended after the size() load inside are simply
  // not part of the save.
  return WriteDbFile(path, SerializeCheckpoint(epoch(), CaptureSnapshot()));
}

Status SignatureStore::LoadFromFile(const std::string& path) {
  CheckpointData data;
  if (auto s = ParseDbFile(path, &data); !s.ok()) return s;
  InstallSnapshot(data.epoch != 0 ? data.epoch : GenerateEpoch(),
                  std::move(data.records));
  return Status::Ok();
}

SuffixReply SignatureStore::ReadSince(std::uint64_t from) const {
  const std::shared_ptr<SignatureLog> log = Log();
  return log->ReadSince(from, log);
}

std::vector<StoredSignature> SignatureStore::CaptureSnapshot() const {
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

void SignatureStore::InstallSnapshot(std::uint64_t epoch,
                                     std::vector<CheckpointRecord> records) {
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

bool SignatureStore::MarkSuperseded(std::uint64_t index) {
  const std::shared_ptr<SignatureLog> log = Log();
  if (index >= log->size()) return false;
  return log->MarkSuperseded(index);
}

std::uint64_t SignatureStore::superseded_count() const {
  return Log()->superseded_count();
}

std::uint64_t SignatureStore::Compact() {
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

void SignatureStore::PublishLogLocked(std::shared_ptr<SignatureLog> log,
                                      std::uint64_t new_epoch) {
  log_.store(std::move(log), std::memory_order_release);
  epoch_.store(new_epoch, std::memory_order_release);
}

}  // namespace communix::store
