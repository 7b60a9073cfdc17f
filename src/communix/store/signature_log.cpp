#include "communix/store/signature_log.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace communix::store {

struct SignatureLog::Slot {
  std::uint64_t content_id = 0;
  UserId sender = 0;
  TimePoint added_at = 0;
  /// Where the entry's wire encoding (u32 length + bytes) sits.
  std::uint32_t block = 0;
  std::uint32_t offset = 0;
  /// Signature bytes; the encoding is 4 + size long.
  std::uint32_t size = 0;
};

struct SignatureLog::Segment {
  std::array<Slot, kSegmentSize> slots;
  /// Superseded side-flags, one per slot. Kept apart from the entry so a
  /// mark never writes memory a lock-free scan is reading.
  std::array<std::atomic<bool>, kSegmentSize> superseded{};
};

struct SignatureLog::Block {
  explicit Block(std::size_t capacity)
      : bytes(new std::uint8_t[capacity]), capacity(capacity) {}

  std::unique_ptr<std::uint8_t[]> bytes;
  const std::size_t capacity;
  /// Final length, stored (release) when the writer opens the next
  /// block, so before any entry in the next block is published.
  std::atomic<std::size_t> sealed{0};
};

namespace {

EntryView ViewIn(const std::uint8_t* block, std::uint32_t offset,
                 std::uint32_t size, std::uint64_t content_id, UserId sender,
                 TimePoint added_at) {
  return EntryView{std::span<const std::uint8_t>(block + offset + 4, size),
                   content_id, sender, added_at};
}

}  // namespace

SignatureLog::SignatureLog(std::uint64_t epoch)
    : segments_(new std::atomic<Segment*>[kMaxSegments]),
      blocks_(new std::atomic<Block*>[kMaxBlocks]),
      epoch_(epoch) {
  for (std::size_t i = 0; i < kMaxSegments; ++i) {
    segments_[i].store(nullptr, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kMaxBlocks; ++i) {
    blocks_[i].store(nullptr, std::memory_order_relaxed);
  }
}

SignatureLog::~SignatureLog() { FreeAll(); }

void SignatureLog::FreeAll() {
  for (std::size_t i = 0; i < kMaxSegments; ++i) {
    delete segments_[i].exchange(nullptr, std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < blocks_used_; ++i) {
    delete blocks_[i].exchange(nullptr, std::memory_order_relaxed);
  }
  blocks_used_ = 0;
  tail_used_ = 0;
}

const SignatureLog::Slot& SignatureLog::SlotAt(std::uint64_t index) const {
  const std::size_t seg = static_cast<std::size_t>(index >> kSegmentBits);
  const Segment* segment = segments_[seg].load(std::memory_order_acquire);
  return segment->slots[index & (kSegmentSize - 1)];
}

SignatureLog::Slot* SignatureLog::SlotForAppend(std::uint64_t index) {
  if (index >= kCapacity) {
    std::fprintf(stderr, "SignatureLog: capacity (%llu) exhausted\n",
                 static_cast<unsigned long long>(kCapacity));
    std::abort();
  }
  const std::size_t seg = static_cast<std::size_t>(index >> kSegmentBits);
  Segment* segment = segments_[seg].load(std::memory_order_relaxed);
  if (segment == nullptr) {
    segment = new Segment();
    // Release so a reader that chases this pointer after the acquiring
    // load of published_ sees a fully constructed segment.
    segments_[seg].store(segment, std::memory_order_release);
  }
  return &segment->slots[index & (kSegmentSize - 1)];
}

void SignatureLog::Fill(Slot* slot, const EntryView& entry) {
  const std::size_t need = 4 + entry.bytes.size();
  Block* tail = blocks_used_ == 0
                    ? nullptr
                    : blocks_[blocks_used_ - 1].load(std::memory_order_relaxed);
  if (tail == nullptr || tail_used_ + need > tail->capacity) {
    if (blocks_used_ == kMaxBlocks) {
      std::fprintf(stderr, "SignatureLog: arena (%zu blocks) exhausted\n",
                   kMaxBlocks);
      std::abort();
    }
    // Seal the full block, then open the next; both stores precede the
    // published_ release of the entry written below.
    if (tail != nullptr) {
      tail->sealed.store(tail_used_, std::memory_order_release);
    }
    tail = new Block(std::max(kBlockBytes, need));
    blocks_[blocks_used_].store(tail, std::memory_order_release);
    ++blocks_used_;
    tail_used_ = 0;
  }
  std::uint8_t* at = tail->bytes.get() + tail_used_;
  const auto size = static_cast<std::uint32_t>(entry.bytes.size());
  for (int i = 0; i < 4; ++i) {
    at[i] = static_cast<std::uint8_t>(size >> (i * 8));
  }
  if (size > 0) std::memcpy(at + 4, entry.bytes.data(), size);
  slot->content_id = entry.content_id;
  slot->sender = entry.sender;
  slot->added_at = entry.added_at;
  slot->block = static_cast<std::uint32_t>(blocks_used_ - 1);
  slot->offset = static_cast<std::uint32_t>(tail_used_);
  slot->size = size;
  tail_used_ += need;
}

std::uint64_t SignatureLog::Append(const EntryView& entry) {
  std::lock_guard lock(append_mu_);
  const std::uint64_t index = published_.load(std::memory_order_relaxed);
  Fill(SlotForAppend(index), entry);
  // Publish: every write above happens-before a reader's acquire of the
  // new length.
  published_.store(index + 1, std::memory_order_release);
  return index;
}

EntryView SignatureLog::At(std::uint64_t index) const {
  const Slot& s = SlotAt(index);
  const Block* block = blocks_[s.block].load(std::memory_order_acquire);
  return ViewIn(block->bytes.get(), s.offset, s.size, s.content_id, s.sender,
                s.added_at);
}

template <typename Fn>
void SignatureLog::ForEachSlot(std::uint64_t from, std::uint64_t upto,
                               Fn&& fn) const {
  const std::uint64_t n = std::min(upto, size());
  std::uint64_t i = from;
  std::uint32_t block_index = 0;
  const Block* block = nullptr;
  while (i < n) {
    // One segment-pointer chase per segment. The per-entry At() loop
    // this replaces cost an acquire load (a cache-miss-prone indirection
    // on the shared atomic array) for every single entry; fig2's
    // scan_cost series times this loop.
    const std::size_t seg = static_cast<std::size_t>(i >> kSegmentBits);
    const Segment* segment = segments_[seg].load(std::memory_order_acquire);
    const std::uint64_t seg_end =
        std::min<std::uint64_t>(n, (static_cast<std::uint64_t>(seg) + 1)
                                       << kSegmentBits);
    for (; i < seg_end; ++i) {
      const Slot& s = segment->slots[i & (kSegmentSize - 1)];
      if (block == nullptr || s.block != block_index) {
        block_index = s.block;
        block = blocks_[block_index].load(std::memory_order_acquire);
      }
      fn(i, s, block->bytes.get());
    }
  }
}

void SignatureLog::Visit(
    std::uint64_t from, std::uint64_t upto,
    const std::function<void(std::uint64_t, const EntryView&)>& fn) const {
  ForEachSlot(from, upto,
              [&](std::uint64_t i, const Slot& s, const std::uint8_t* block) {
                fn(i, ViewIn(block, s.offset, s.size, s.content_id, s.sender,
                             s.added_at));
              });
}

void SignatureLog::VisitBytes(
    std::uint64_t from, std::uint64_t upto,
    const std::function<void(std::uint64_t, std::span<const std::uint8_t>)>&
        fn) const {
  ForEachSlot(from, upto,
              [&](std::uint64_t i, const Slot& s, const std::uint8_t* block) {
                fn(i, std::span<const std::uint8_t>(block + s.offset + 4,
                                                    s.size));
              });
}

SuffixReply SignatureLog::ReadSince(
    std::uint64_t from, const std::shared_ptr<const void>& pin) const {
  SuffixReply reply;
  const std::uint64_t n = size();
  if (from >= n) return reply;
  reply.count = static_cast<std::uint32_t>(n - from);
  // Entries [from, n) are contiguous in every block they touch: from
  // the first entry's offset in its block, through whole blocks, to the
  // end of the last entry. A block before the last one was sealed before
  // entry n - 1 was published, so its final length is visible here.
  const Slot& first = SlotAt(from);
  const Slot& last = SlotAt(n - 1);
  reply.runs.reserve(last.block - first.block + 1);
  for (std::uint32_t b = first.block; b <= last.block; ++b) {
    const Block* block = blocks_[b].load(std::memory_order_acquire);
    const std::size_t begin = b == first.block ? first.offset : 0;
    const std::size_t end =
        b == last.block ? std::size_t{last.offset} + 4 + last.size
                        : block->sealed.load(std::memory_order_acquire);
    reply.runs.push_back(
        ByteRun{pin, block->bytes.get() + begin, end - begin});
  }
  return reply;
}

bool SignatureLog::MarkSuperseded(std::uint64_t index) {
  const std::size_t seg = static_cast<std::size_t>(index >> kSegmentBits);
  Segment* segment = segments_[seg].load(std::memory_order_acquire);
  const bool first = !segment->superseded[index & (kSegmentSize - 1)].exchange(
      true, std::memory_order_acq_rel);
  if (first) superseded_.fetch_add(1, std::memory_order_acq_rel);
  return first;
}

bool SignatureLog::IsSuperseded(std::uint64_t index) const {
  const std::size_t seg = static_cast<std::size_t>(index >> kSegmentBits);
  const Segment* segment = segments_[seg].load(std::memory_order_acquire);
  return segment->superseded[index & (kSegmentSize - 1)].load(
      std::memory_order_acquire);
}

void SignatureLog::Reset(std::vector<StoredSignature> entries) {
  std::lock_guard lock(append_mu_);
  published_.store(0, std::memory_order_release);
  superseded_.store(0, std::memory_order_release);
  FreeAll();
  std::uint64_t index = 0;
  std::uint64_t marked = 0;
  for (StoredSignature& e : entries) {
    Fill(SlotForAppend(index), ViewOf(e));
    // The arena holds the bytes now; release the input's copy as we go
    // so a large install never holds the database twice.
    std::vector<std::uint8_t>().swap(e.bytes);
    if (e.superseded) {
      const std::size_t seg = static_cast<std::size_t>(index >> kSegmentBits);
      segments_[seg].load(std::memory_order_relaxed)
          ->superseded[index & (kSegmentSize - 1)]
          .store(true, std::memory_order_relaxed);
      ++marked;
    }
    ++index;
  }
  superseded_.store(marked, std::memory_order_release);
  published_.store(index, std::memory_order_release);
}

}  // namespace communix::store
