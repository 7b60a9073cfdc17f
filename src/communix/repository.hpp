// Local signature repository (§III-B).
//
// The Communix client downloads new signatures from the server into this
// per-machine store; the per-application agent later inspects each
// signature exactly once ("the inspection of the local repository is
// incremental"). The repository therefore tracks, per signature, the
// outcome of the agent's analysis, plus the index of the first entry not
// yet inspected: a scan for new entries starts there, so its cost is the
// number of new entries, not the repository's size. Signatures that
// passed the hash check but failed the nesting check are re-examined
// when new classes load (§III-C3), so that outcome is kept distinct;
// that recheck still visits every entry.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace communix {

enum class SigState : std::uint8_t {
  kNew = 0,                // not yet inspected by the agent
  kAccepted = 1,           // validated; installed into the history
  kRejectedMalformed = 2,  // did not deserialize
  kRejectedHash = 3,       // top-frame hash mismatch (wrong app/version)
  kRejectedDepth = 4,      // outer stack depth < 5 after trimming
  kRejectedNesting = 5,    // outer top frames not nested (re-checkable)
};

class LocalRepository {
 public:
  struct Entry {
    std::vector<std::uint8_t> bytes;
    SigState state = SigState::kNew;
  };

  /// Index to request from the server next: GET(next_server_index()).
  std::uint64_t next_server_index() const;

  /// Appends signatures downloaded from the server (in server order).
  void Append(std::vector<std::vector<std::uint8_t>> sig_bytes);

  std::size_t size() const;

  /// Runs `fn(index, entry)` over entries in the given state, in index
  /// order; `fn` may return the new state for the entry. A kNew scan
  /// starts at the first uninspected entry.
  void ForEachInState(SigState state,
                      const std::function<SigState(
                          std::size_t, const Entry&)>& fn);

  SigState state(std::size_t index) const;
  std::vector<std::uint8_t> bytes(std::size_t index) const;

  struct Counts {
    std::size_t total = 0;
    std::size_t fresh = 0;
    std::size_t accepted = 0;
    std::size_t rejected_malformed = 0;
    std::size_t rejected_hash = 0;
    std::size_t rejected_depth = 0;
    std::size_t rejected_nesting = 0;
  };
  Counts GetCounts() const;

  /// Persistence (the repository survives client restarts). Load replaces
  /// `out`'s contents on success (out-param because the repository owns a
  /// mutex and is therefore not movable).
  Status SaveToFile(const std::string& path) const;
  static Status LoadFromFile(const std::string& path, LocalRepository& out);

 private:
  /// Every entry before this index has left kNew (guarded by mu_).
  /// Append leaves it where it is, LoadFromFile recomputes it, and
  /// ForEachInState moves it past the entries it inspects.
  std::size_t first_new_ = 0;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

}  // namespace communix
