// Persistent deadlock history (§II-A).
//
// The history is the per-application store of deadlock signatures that
// Dimmunix's avoidance consults before every lock acquisition. Communix
// adds to it: the agent injects validated remote signatures and replaces
// entries when generalization merges them (§III-D).
//
// Thread-safety: History is not internally synchronized; the runtime
// serializes access under its own lock, and the agent runs at application
// startup before workload threads exist (mirroring the paper's design).
//
// The candidates-by-top-frame projection the avoidance hot path consults
// lives in AvoidanceIndex (an immutable snapshot republished per
// mutation), not here. History only journals which records each
// mutation touched (TakeChangedRecords), so a republish re-indexes those
// records and nothing else.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dimmunix/signature.hpp"
#include "util/clock.hpp"
#include "util/status.hpp"

namespace communix::dimmunix {

enum class SignatureOrigin : std::uint8_t { kLocal = 0, kRemote = 1 };

struct SignatureRecord {
  Signature sig;
  SignatureOrigin origin = SignatureOrigin::kLocal;
  /// Set by the false-positive detector (§III-C1): the signature is kept
  /// but no longer avoided, pending the user's decision.
  bool disabled = false;
  TimePoint added_at = 0;
  /// sig.ContentId(), computed once by History (Add, Replace, load), so
  /// no reader re-encodes a stored signature to identify it.
  std::uint64_t content_id = 0;
};

class History {
 public:
  /// Adds a signature; returns its index, or -1 if identical content is
  /// already present.
  int Add(Signature sig, SignatureOrigin origin, TimePoint now);

  /// Replaces the signature at `index` (generalization merge result).
  void Replace(std::size_t index, Signature sig);

  bool Disable(std::uint64_t content_id);
  bool ReEnable(std::uint64_t content_id);

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const SignatureRecord& record(std::size_t index) const {
    return records_.at(index);
  }
  const std::vector<SignatureRecord>& records() const { return records_; }

  bool ContainsContent(std::uint64_t content_id) const {
    return by_content_.count(content_id) > 0;
  }
  /// The record holding `content_id`, or nullptr.
  const SignatureRecord* FindContent(std::uint64_t content_id) const {
    auto it = by_content_.find(content_id);
    return it == by_content_.end() ? nullptr : &records_[it->second];
  }

  /// Indexes of signatures with the given bug identity.
  std::vector<std::size_t> FindByBugKey(std::uint64_t bug_key) const;

  /// Persistence: versioned binary file.
  Status SaveToFile(const std::string& path) const;
  static Result<History> LoadFromFile(const std::string& path);

  /// Drains the retired-content ledger: content ids this history stopped
  /// vouching for since the last drain — Replace() records the replaced
  /// signature's id (generalization superseded it), Disable() records the
  /// id on a fresh false→true transition (false positive). The agent
  /// ships one batched kMarkSuperseded frame per sync from this, instead
  /// of one server pass per event. Load/Add never feed the ledger: only
  /// in-process retirement does.
  std::vector<std::uint64_t> TakeRetiredContentIds();
  std::size_t retired_pending() const { return retired_content_ids_.size(); }

  /// Drains the change journal: the indexes of the records that Add,
  /// Replace, Disable and ReEnable touched since the last drain, in
  /// mutation order and possibly repeated — what an index republish
  /// re-indexes. nullopt when no journal describes the change: this
  /// History was copied or assigned whole since the last drain, so its
  /// records need not match anything derived from the old ones.
  std::optional<std::vector<std::size_t>> TakeChangedRecords();

 private:
  /// Copies and assignments do not carry the journal over: they mark it
  /// "everything changed".
  struct ChangeJournal {
    ChangeJournal() = default;
    ChangeJournal(const ChangeJournal&) : whole(true) {}
    ChangeJournal& operator=(const ChangeJournal&) {
      records.clear();
      whole = true;
      return *this;
    }
    std::vector<std::size_t> records;
    bool whole = false;
  };

  std::vector<SignatureRecord> records_;
  std::unordered_map<std::uint64_t, std::size_t> by_content_;
  std::vector<std::uint64_t> retired_content_ids_;
  ChangeJournal changed_;
};

}  // namespace communix::dimmunix
