#include "dimmunix/avoidance_index.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/fnv.hpp"

namespace communix::dimmunix {

std::size_t OccupancyTable::ClampBuckets(std::size_t buckets) {
  std::size_t width = kMinBuckets;
  while (width < buckets && width < kMaxBuckets) width <<= 1;
  return width;
}

std::size_t OccupancyTable::RecommendedBuckets(std::size_t candidate_keys) {
  const std::size_t want =
      std::max(kDefaultBuckets, candidate_keys * 8);
  return ClampBuckets(want);
}

OccupancyTable::OccupancyTable(std::size_t buckets)
    : bucket_count_(ClampBuckets(buckets)),
      counts_(new std::atomic<std::uint32_t>[bucket_count_]()) {}

void OccupancyTable::Resize(std::size_t buckets) {
  bucket_count_ = ClampBuckets(buckets);
  counts_.reset(new std::atomic<std::uint32_t>[bucket_count_]());
}

namespace {

using KeyedCandidate = std::pair<std::uint64_t, AvoidanceIndex::Candidate>;

/// Keys the entry's positions occupy, with the candidates they add.
void AppendCandidates(const AvoidanceIndex::Entry& entry,
                      std::vector<KeyedCandidate>* out) {
  const auto& sig_entries = entry.sig.entries();
  for (std::size_t pos = 0; pos < sig_entries.size(); ++pos) {
    out->emplace_back(
        sig_entries[pos].outer.TopKey(),
        AvoidanceIndex::Candidate{&entry, static_cast<std::uint32_t>(pos)});
  }
}

bool KeyBefore(const KeyedCandidate& a, const KeyedCandidate& b) {
  return a.first < b.first;
}

bool CandidateBefore(const AvoidanceIndex::Candidate& a,
                     const AvoidanceIndex::Candidate& b) {
  return a.entry->record != b.entry->record ? a.entry->record < b.entry->record
                                            : a.position < b.position;
}

/// Calls fn(i, old, rec) once per distinct record i of `changed` whose
/// indexed entry is stale: `old` is the entry `entries` holds for it (or
/// null), `rec` the record when it exists and is enabled (or null). A
/// record that still holds its indexed content, enabled, is skipped.
template <typename Fn>
void ForEachStaleRecord(const PersistentMap<AvoidanceIndex::Entry>& entries,
                        const History& history,
                        std::span<const std::size_t> changed, Fn fn) {
  std::vector<std::size_t> records(changed.begin(), changed.end());
  std::sort(records.begin(), records.end());
  records.erase(std::unique(records.begin(), records.end()), records.end());
  for (const std::size_t i : records) {
    const AvoidanceIndex::Entry* old = entries.Find(i);
    const SignatureRecord* rec =
        i < history.size() && !history.record(i).disabled ? &history.record(i)
                                                          : nullptr;
    if (old != nullptr && rec != nullptr && old->content_id == rec->content_id) {
      continue;
    }
    fn(i, old, rec);
  }
}

}  // namespace

std::shared_ptr<const AvoidanceIndex> AvoidanceIndex::Build(
    const History& history, std::uint64_t version,
    std::size_t occupancy_buckets) {
  auto index = std::shared_ptr<AvoidanceIndex>(new AvoidanceIndex());
  index->version_ = version;
  index->occupancy_buckets_ = occupancy_buckets;
  std::vector<KeyedCandidate> by_key;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const SignatureRecord& rec = history.record(i);
    if (rec.disabled) continue;
    const auto record = static_cast<std::uint32_t>(i);
    AppendCandidates(
        index->entries_.Set(i, Entry{rec.sig, rec.content_id, record}),
        &by_key);
  }
  // Group by key; the stable sort keeps each key's candidates in record
  // order.
  std::stable_sort(by_key.begin(), by_key.end(), KeyBefore);
  for (std::size_t lo = 0; lo < by_key.size();) {
    std::size_t hi = lo;
    std::vector<Candidate> candidates;
    for (; hi < by_key.size() && by_key[hi].first == by_key[lo].first; ++hi) {
      candidates.push_back(by_key[hi].second);
    }
    index->PutSlot(by_key[lo].first,
                   index->MakeSlot(std::move(candidates), nullptr));
    lo = hi;
  }
  return index;
}

std::shared_ptr<const AvoidanceIndex> AvoidanceIndex::Rebuild(
    const AvoidanceIndex& prev, const History& history,
    std::span<const std::size_t> changed, std::uint64_t version) {
  // Shares every map node with `prev`; the edits below copy paths only.
  auto index = std::shared_ptr<AvoidanceIndex>(new AvoidanceIndex(prev));
  index->version_ = version;

  // Re-index each stale record: drop the entry `prev` holds for it and
  // copy in the record's current content if it is enabled.
  std::vector<const Entry*> dropped;
  std::vector<KeyedCandidate> added;
  std::vector<std::uint64_t> touched_keys;
  std::size_t copied = 0;
  ForEachStaleRecord(
      prev.entries_, history, changed,
      [&](std::size_t i, const Entry* old, const SignatureRecord* rec) {
        if (old != nullptr) {
          index->entries_.Erase(i);
          dropped.push_back(old);
          for (const SignatureEntry& e : old->sig.entries()) {
            touched_keys.push_back(e.outer.TopKey());
          }
        }
        if (rec != nullptr) {
          const auto record = static_cast<std::uint32_t>(i);
          AppendCandidates(
              index->entries_.Set(i, Entry{rec->sig, rec->content_id, record}),
              &added);
          ++copied;
        }
      });
  index->entries_reused_ = index->entries_.size() - copied;
  for (const auto& [key, cand] : added) touched_keys.push_back(key);
  std::sort(touched_keys.begin(), touched_keys.end());
  touched_keys.erase(std::unique(touched_keys.begin(), touched_keys.end()),
                     touched_keys.end());
  std::sort(dropped.begin(), dropped.end(), std::less<>());
  std::sort(added.begin(), added.end(), KeyBefore);

  // Rebuild only the slots of the keys those entries occupy (both lists
  // are in key order, so `next_added` walks `added` once).
  auto next_added = added.begin();
  for (const std::uint64_t key : touched_keys) {
    const KeySlot* old = prev.slots_.Find(key);
    std::vector<Candidate> candidates;
    if (old != nullptr) {
      for (const Candidate& c : old->candidates) {
        if (!std::binary_search(dropped.begin(), dropped.end(), c.entry,
                                std::less<>())) {
          candidates.push_back(c);
        }
      }
    }
    for (; next_added != added.end() && next_added->first == key;
         ++next_added) {
      candidates.push_back(next_added->second);
    }
    if (candidates.empty()) {
      index->EraseSlot(key);
      continue;
    }
    std::sort(candidates.begin(), candidates.end(), CandidateBefore);
    index->PutSlot(key, index->MakeSlot(std::move(candidates), old));
  }
  return index;
}

std::size_t AvoidanceIndex::KeyCountAfter(const AvoidanceIndex& prev,
                                          const History& history,
                                          std::span<const std::size_t> changed) {
  // Rebuild's re-indexing decisions, counting keys instead of building
  // slots: a touched key is in the next index iff one of its old
  // candidates survives or a copied-in record adds one.
  std::vector<const Entry*> dropped;
  std::vector<std::uint64_t> added_keys;
  std::vector<std::uint64_t> touched_keys;
  ForEachStaleRecord(
      prev.entries_, history, changed,
      [&](std::size_t, const Entry* old, const SignatureRecord* rec) {
        if (old != nullptr) {
          dropped.push_back(old);
          for (const SignatureEntry& e : old->sig.entries()) {
            touched_keys.push_back(e.outer.TopKey());
          }
        }
        if (rec != nullptr) {
          for (const SignatureEntry& e : rec->sig.entries()) {
            added_keys.push_back(e.outer.TopKey());
            touched_keys.push_back(e.outer.TopKey());
          }
        }
      });
  std::sort(dropped.begin(), dropped.end(), std::less<>());
  std::sort(added_keys.begin(), added_keys.end());
  std::sort(touched_keys.begin(), touched_keys.end());
  touched_keys.erase(std::unique(touched_keys.begin(), touched_keys.end()),
                     touched_keys.end());
  std::size_t keys = prev.key_count();
  for (const std::uint64_t key : touched_keys) {
    const KeySlot* old = prev.slots_.Find(key);
    const bool after =
        std::binary_search(added_keys.begin(), added_keys.end(), key) ||
        (old != nullptr &&
         std::any_of(old->candidates.begin(), old->candidates.end(),
                     [&](const Candidate& c) {
                       return !std::binary_search(dropped.begin(),
                                                  dropped.end(), c.entry,
                                                  std::less<>());
                     }));
    if (old != nullptr && !after) --keys;
    if (old == nullptr && after) ++keys;
  }
  return keys;
}

std::size_t AvoidanceIndex::KeyCount(const History& history) {
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const SignatureRecord& rec = history.record(i);
    if (rec.disabled) continue;
    for (const SignatureEntry& e : rec.sig.entries()) {
      keys.push_back(e.outer.TopKey());
    }
  }
  std::sort(keys.begin(), keys.end());
  return static_cast<std::size_t>(
      std::unique(keys.begin(), keys.end()) - keys.begin());
}

AvoidanceIndex::KeySlot AvoidanceIndex::MakeSlot(
    std::vector<Candidate> candidates, const KeySlot* old) const {
  KeySlot slot;
  std::uint64_t fp = kFnvOffsetBasis;
  for (const Candidate& cand : candidates) {
    const Entry& e = *cand.entry;
    fp = HashCombine(fp, e.content_id);
    fp = HashCombine(fp, cand.position);
    const auto& sig_entries = e.sig.entries();
    for (std::size_t j = 0; j < sig_entries.size(); ++j) {
      if (j == cand.position) continue;
      slot.peer_buckets.push_back(OccupancyTable::BucketOf(
          sig_entries[j].outer.TopKey(), occupancy_buckets_));
    }
  }
  std::sort(slot.peer_buckets.begin(), slot.peer_buckets.end());
  slot.peer_buckets.erase(
      std::unique(slot.peer_buckets.begin(), slot.peer_buckets.end()),
      slot.peer_buckets.end());
  slot.candidates = std::move(candidates);
  slot.fingerprint = fp;
  slot.stats = old != nullptr && old->fingerprint == fp
                   ? old->stats
                   : std::make_shared<KeyStats>();
  return slot;
}

void AvoidanceIndex::PutSlot(std::uint64_t key, KeySlot slot) {
  if (slots_.Find(key) == nullptr) {
    // A new key: it collides with every key already in its bucket.
    const std::uint32_t bucket =
        OccupancyTable::BucketOf(key, occupancy_buckets_);
    const std::uint32_t* n = keys_per_bucket_.Find(bucket);
    if (n != nullptr) ++key_bucket_collisions_;
    keys_per_bucket_.Set(bucket, n != nullptr ? *n + 1 : 1);
  }
  slots_.Set(key, std::move(slot));
}

void AvoidanceIndex::EraseSlot(std::uint64_t key) {
  if (!slots_.Erase(key)) return;
  const std::uint32_t bucket =
      OccupancyTable::BucketOf(key, occupancy_buckets_);
  const std::uint32_t n = *keys_per_bucket_.Find(bucket);
  if (n > 1) {
    --key_bucket_collisions_;
    keys_per_bucket_.Set(bucket, n - 1);
  } else {
    keys_per_bucket_.Erase(bucket);
  }
}

}  // namespace communix::dimmunix
