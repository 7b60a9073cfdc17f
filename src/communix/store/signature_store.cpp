#include "communix/store/signature_store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <random>
#include <utility>

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
// Persistence. The byte formats live in checkpoint.{hpp,cpp}; this file
// keeps the file-I/O shell around them.
// ---------------------------------------------------------------------------

/// An open file descriptor, closed when it goes out of scope.
class File {
 public:
  explicit File(int fd) : fd_(fd) {}
  ~File() {
    if (fd_ >= 0) ::close(fd_);
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  /// Closes now; false if close reports a deferred write error.
  bool Close() { return ::close(std::exchange(fd_, -1)) == 0; }

 private:
  int fd_;
};

Status IoError(const std::string& what) {
  return Status::Error(ErrorCode::kUnavailable,
                       what + ": " + std::strerror(errno));
}

bool WriteAll(int fd, std::span<const std::uint8_t> bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    bytes = bytes.subspan(static_cast<std::size_t>(n));
  }
  return true;
}

/// Writes `log` entries [from, upto) to `fd` as v4 frames, one frame at a
/// time. Adds the bytes and superseded records written to the
/// out-params.
Status WriteFrames(int fd, const SignatureLog& log, std::uint64_t from,
                   std::uint64_t upto, std::uint64_t* bytes,
                   std::uint64_t* superseded) {
  for (std::uint64_t base = from; base < upto;
       base += kCheckpointFrameEntries) {
    const std::vector<std::uint8_t> frame = EncodeDbFrame(
        log, base, std::min<std::uint64_t>(upto, base + kCheckpointFrameEntries),
        superseded);
    if (!WriteAll(fd, frame)) return IoError("write");
    *bytes += frame.size();
  }
  return Status::Ok();
}

/// Whether `st` is the file `device`/`inode` at length `bytes`.
bool SameFile(const struct stat& st, std::uint64_t device,
              std::uint64_t inode, std::uint64_t bytes) {
  return static_cast<std::uint64_t>(st.st_dev) == device &&
         static_cast<std::uint64_t>(st.st_ino) == inode &&
         static_cast<std::uint64_t>(st.st_size) == bytes;
}

/// Whether the file behind `fd` starts with `header`.
bool StartsWith(int fd, const std::vector<std::uint8_t>& header) {
  std::vector<std::uint8_t> head(header.size());
  return ::pread(fd, head.data(), head.size(), 0) ==
             static_cast<ssize_t>(head.size()) &&
         head == header;
}

/// Reads the whole file behind `fd`, `size` bytes long.
Status ReadAll(int fd, std::size_t size, std::vector<std::uint8_t>* out) {
  out->resize(size);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t n = ::read(fd, out->data() + done, size - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return IoError("read");
    if (n == 0) return Status::Error(ErrorCode::kUnavailable, "short read");
    done += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

/// Tops of a store-resident entry (accepted or validated at ingest, so
/// the bytes are known-good; an empty set on the impossible parse
/// failure just weakens adjacency instead of corrupting anything).
TopFrameKeys TopsOfEntry(std::span<const std::uint8_t> bytes) {
  auto sig = dimmunix::Signature::FromBytes(bytes);
  return sig ? TopFrameSet(*sig) : TopFrameKeys{};
}

}  // namespace

SignatureStore::SignatureStore(const StoreOptions& options)
    : log_(std::make_shared<SignatureLog>(
          options.epoch != 0 ? options.epoch : GenerateEpoch())) {}

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

std::uint64_t SignatureStore::epoch() const { return Log()->epoch(); }

Result<SignatureStore::IngestOutcome> SignatureStore::IngestReplicated(
    ReplicatedFrame frame) {
  // Validate every entry before anything is changed: a frame the store
  // refuses leaves it as it was.
  std::vector<CheckpointRecord> records;
  if (Status s = DecodeRecords(std::move(frame.entries), &records); !s.ok()) {
    return s;
  }
  IngestOutcome out;
  std::lock_guard ingest(ingest_mu_);
  if (frame.reset) {
    out.applied = records.size();
    ReplaceLocked(frame.epoch, std::move(records));
  } else {
    const std::shared_ptr<SignatureLog> log = Log();
    if (frame.epoch != log->epoch()) {
      return Status::Error(ErrorCode::kFailedPrecondition,
                           "epoch mismatch; re-handshake required");
    }
    const std::uint64_t size = log->size();
    if (frame.from_index > size) {
      return Status::Error(
          ErrorCode::kFailedPrecondition,
          "replication gap: batch starts past the committed length");
    }
    out.skipped =
        std::min<std::uint64_t>(size - frame.from_index, records.size());
    const std::span<CheckpointRecord> fresh =
        std::span(records).subspan(out.skipped);
    for (const CheckpointRecord& rec : fresh) {
      if (dedup_.Contains(rec.entry.content_id)) {
        return Status::Error(ErrorCode::kDataLoss,
                             "replicated entry duplicates the dedup set");
      }
    }
    // Lock-free GET scans stay concurrent with the appends.
    for (CheckpointRecord& rec : fresh) {
      dedup_.TryInsert(rec.entry.content_id);
      users_.With(rec.entry.sender, [&](UserState& state) {
        state.accepted_top_sets.push_back(std::move(rec.tops));
      });
      log->Append(ViewOf(rec.entry));
    }
    out.applied = fresh.size();
  }
  const std::shared_ptr<SignatureLog> log = Log();
  out.epoch = log->epoch();
  out.size = log->size();
  return out;
}

Status SignatureStore::SaveToFile(const std::string& path) {
  std::lock_guard lock(save_mu_);
  // One log snapshot: the lineage, marks and length below belong to it.
  // The marks are read before the entries, so a mark set later is either
  // in the frames written below or leaves the counts unequal at the next
  // save, which then rewrites.
  const std::shared_ptr<const SignatureLog> log = Log();
  const std::uint64_t marks = log->superseded_count();
  const std::uint64_t n = log->size();
  if (persisted_.has_value() && persisted_->path == path &&
      persisted_->log.lock() == log && persisted_->superseded == marks) {
    if (auto appended = AppendLocked(*log, n)) return *appended;
  }
  return RewriteLocked(path, log, n);
}

std::optional<Status> SignatureStore::AppendLocked(const SignatureLog& log,
                                                   std::uint64_t n) {
  PersistedFile& file = *persisted_;
  struct stat st {};
  if (n == file.entries) {
    // Nothing new: only the file's identity and length are checked.
    if (::stat(file.path.c_str(), &st) == 0 &&
        SameFile(st, file.device, file.inode, file.bytes)) {
      return Status::Ok();
    }
    return std::nullopt;
  }
  File f(::open(file.path.c_str(), O_RDWR | O_APPEND | O_CLOEXEC));
  if (!f.ok() || ::fstat(f.fd(), &st) != 0 ||
      !SameFile(st, file.device, file.inode, file.bytes) ||
      !StartsWith(f.fd(), EncodeDbHeader(log.epoch()))) {
    return std::nullopt;
  }
  std::uint64_t bytes = 0;
  std::uint64_t superseded = file.superseded;
  Status s = WriteFrames(f.fd(), log, file.entries, n, &bytes, &superseded);
  if (s.ok() && !f.Close()) s = IoError("close " + file.path);
  persist_bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  if (!s.ok()) {
    // The file may end in a cut-short frame now; never append after it.
    persisted_.reset();
    return s;
  }
  file.bytes += bytes;
  file.entries = n;
  file.superseded = superseded;
  ReportPersisted(n, superseded);
  return Status::Ok();
}

Status SignatureStore::RewriteLocked(
    const std::string& path, const std::shared_ptr<const SignatureLog>& log,
    std::uint64_t n) {
  persisted_.reset();
  const std::string tmp = path + ".tmp";
  File f(::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644));
  if (!f.ok()) return IoError("open " + tmp);
  const std::vector<std::uint8_t> header = EncodeDbHeader(log->epoch());
  std::uint64_t bytes = 0;
  std::uint64_t superseded = 0;
  Status s = WriteAll(f.fd(), header) ? Status::Ok() : IoError("write " + tmp);
  if (s.ok()) {
    bytes = header.size();
    s = WriteFrames(f.fd(), *log, 0, n, &bytes, &superseded);
  }
  struct stat st {};
  if (s.ok() && ::fstat(f.fd(), &st) != 0) s = IoError("fstat " + tmp);
  if (s.ok() && !f.Close()) s = IoError("close " + tmp);
  persist_bytes_written_.fetch_add(bytes, std::memory_order_relaxed);
  if (s.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    s = IoError("rename " + tmp);
  }
  if (!s.ok()) return s;
  persist_rewrites_.fetch_add(1, std::memory_order_relaxed);
  persisted_ = PersistedFile{path,
                             log,
                             static_cast<std::uint64_t>(st.st_dev),
                             static_cast<std::uint64_t>(st.st_ino),
                             bytes,
                             n,
                             superseded};
  ReportPersisted(n, superseded);
  return Status::Ok();
}

void SignatureStore::ReportPersisted(std::uint64_t entries,
                                     std::uint64_t superseded) {
  persist_entries_.store(entries, std::memory_order_relaxed);
  persist_superseded_.store(superseded, std::memory_order_relaxed);
}

Status SignatureStore::LoadFromFile(const std::string& path) {
  std::lock_guard lock(save_mu_);
  File f(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
  if (!f.ok()) {
    return Status::Error(ErrorCode::kNotFound, "cannot open " + path);
  }
  struct stat st {};
  if (::fstat(f.fd(), &st) != 0) return IoError("fstat " + path);
  std::vector<std::uint8_t> bytes;
  if (auto s = ReadAll(f.fd(), static_cast<std::size_t>(st.st_size), &bytes);
      !s.ok()) {
    return s;
  }
  DbFileContents file;
  if (auto s = ParseDbFile(
          std::span<const std::uint8_t>(bytes.data(), bytes.size()), &file);
      !s.ok()) {
    return s;
  }
  const std::uint64_t epoch =
      file.snapshot.epoch != 0 ? file.snapshot.epoch : GenerateEpoch();
  const std::uint64_t entries = file.snapshot.records.size();
  const auto superseded = static_cast<std::uint64_t>(std::count_if(
      file.snapshot.records.begin(), file.snapshot.records.end(),
      [](const CheckpointRecord& r) { return r.entry.superseded; }));
  {
    std::lock_guard ingest(ingest_mu_);
    ReplaceLocked(epoch, std::move(file.snapshot.records));
  }
  // Only a v4 file of this lineage can be appended to. Its length must
  // still be that of its whole frames at the next save: a file that
  // ends in a cut-short frame is rewritten, never appended after.
  persisted_.reset();
  if (file.v4_bytes.has_value() && epoch == file.snapshot.epoch) {
    persisted_ = PersistedFile{path,
                               Log(),
                               static_cast<std::uint64_t>(st.st_dev),
                               static_cast<std::uint64_t>(st.st_ino),
                               *file.v4_bytes,
                               entries,
                               superseded};
  }
  ReportPersisted(entries, superseded);
  return Status::Ok();
}

SignatureStore::PersistStats SignatureStore::persist_stats() const {
  PersistStats out;
  out.entries = persist_entries_.load(std::memory_order_relaxed);
  out.superseded = persist_superseded_.load(std::memory_order_relaxed);
  out.bytes_written = persist_bytes_written_.load(std::memory_order_relaxed);
  out.rewrites = persist_rewrites_.load(std::memory_order_relaxed);
  return out;
}

SuffixReply SignatureStore::ReadSince(std::uint64_t from) const {
  const std::shared_ptr<SignatureLog> log = Log();
  return log->ReadSince(from, log);
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
  std::vector<CheckpointRecord> survivors;
  survivors.reserve(n);
  log->Visit(0, n, [&](std::uint64_t i, const EntryView& e) {
    if (!log->IsSuperseded(i)) {
      survivors.push_back(CheckpointRecord{ToStored(e), TopsOfEntry(e.bytes)});
    }
  });
  const std::uint64_t dropped = n - survivors.size();
  // Derived state is rebuilt from survivors only, so the compacted store
  // is indistinguishable from a fresh one that ingested them as one
  // reset frame (the invariant the store tests pin). Dropping a replaced
  // signature's content id deliberately re-opens dedup for its
  // replacement lineage.
  ReplaceLocked(GenerateEpoch(), std::move(survivors));
  return dropped;
}

void SignatureStore::ReplaceLocked(std::uint64_t epoch,
                                   std::vector<CheckpointRecord> records) {
  users_.Clear();
  tenants_.Clear();
  dedup_.Clear();
  std::vector<StoredSignature> entries;
  entries.reserve(records.size());
  for (CheckpointRecord& rec : records) {
    dedup_.TryInsert(rec.entry.content_id);
    users_.With(rec.entry.sender, [&](UserState& state) {
      state.accepted_top_sets.push_back(std::move(rec.tops));
    });
    entries.push_back(std::move(rec.entry));
  }
  // Populate a private log, then publish it whole: concurrent GET scans
  // keep reading the retired one (kept alive by their shared_ptr
  // snapshots) to completion.
  auto fresh = std::make_shared<SignatureLog>(epoch);
  fresh->Reset(std::move(entries));
  log_.store(std::move(fresh), std::memory_order_release);
}

}  // namespace communix::store
