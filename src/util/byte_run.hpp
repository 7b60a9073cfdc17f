// Owner-pinned byte runs: borrowed byte ranges that keep their memory
// alive.
//
// A reply that points into long-lived storage instead of copying out of
// it (a GET reply pointing into the signature log's arena) carries each
// range together with a shared owner. The bytes stay valid for as long
// as any run holds that owner, even if the storage is retired meanwhile
// (the store publishes a fresh log on a replicated reset, Compact and
// a load). This lives in util/ so the store can hand out runs
// without depending on the net tier that sends them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace communix {

struct ByteRun {
  /// Keeps [data, data + size) alive.
  std::shared_ptr<const void> owner;
  const std::uint8_t* data = nullptr;
  std::size_t size = 0;

  std::span<const std::uint8_t> bytes() const { return {data, size}; }

  /// A run covering all of `bytes`, owning them.
  static ByteRun Of(std::shared_ptr<const std::vector<std::uint8_t>> bytes) {
    const std::uint8_t* data = bytes->data();
    const std::size_t size = bytes->size();
    return ByteRun{std::move(bytes), data, size};
  }
};

/// Total length of `runs`.
inline std::size_t TotalSize(std::span<const ByteRun> runs) {
  std::size_t total = 0;
  for (const ByteRun& run : runs) total += run.size;
  return total;
}

/// Appends the bytes of `runs`, in order, to `out`.
inline void AppendRuns(std::span<const ByteRun> runs,
                       std::vector<std::uint8_t>* out) {
  out->reserve(out->size() + TotalSize(runs));
  for (const ByteRun& run : runs) {
    out->insert(out->end(), run.data, run.data + run.size);
  }
}

}  // namespace communix
