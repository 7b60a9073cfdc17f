// Persistent map from 64-bit keys to values: the structure successive
// AvoidanceIndex snapshots share.
//
// A 16-way radix trie over the key's nibbles, least significant first.
// Versions share nodes: copying a map copies one pointer, and Set/Erase
// never change a node another version reaches. They copy the shared
// nodes on the key's path (about log16(size) of them for well-mixed keys,
// never more than 16) and edit in place only nodes this version alone
// holds (ones it copied or built itself), so a batch of edits copies
// each shared path once, and building a map from empty copies nothing.
// A value lives in its leaf, so Find returns the same address in every
// version that did not touch that key. Reads take no lock and never
// allocate; a version must not be mutated while another thread reads it
// (publish a copy instead).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace communix::dimmunix {

template <class V>
class PersistentMap {
 public:
  /// The value stored under `key`, or nullptr.
  const V* Find(std::uint64_t key) const {
    const Node* node = root_.get();
    for (std::uint64_t rest = key; node != nullptr; rest >>= kBits) {
      if (node->is_leaf) {
        const auto* leaf = static_cast<const Leaf*>(node);
        return leaf->key == key ? &leaf->value : nullptr;
      }
      node = static_cast<const Inner*>(node)->kids[rest & kMask].get();
    }
    return nullptr;
  }

  /// Stores `value` under `key` (replacing any value there) and returns
  /// the stored value, whose address is stable for this leaf's lifetime.
  const V& Set(std::uint64_t key, V value) {
    const Leaf* stored = nullptr;
    root_ = Insert(root_, key, 0, std::move(value), &stored);
    return stored->value;
  }

  /// Removes `key`; false if it was absent (nothing is copied then).
  bool Erase(std::uint64_t key) {
    if (Find(key) == nullptr) return false;
    root_ = Remove(root_, key, 0);
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  static constexpr unsigned kBits = 4;
  static constexpr std::uint64_t kMask = (1u << kBits) - 1;

  struct Node {
    explicit Node(bool leaf) : is_leaf(leaf) {}
    const bool is_leaf;
  };
  using Ptr = std::shared_ptr<const Node>;
  struct Leaf : Node {
    Leaf(std::uint64_t k, V v) : Node(true), key(k), value(std::move(v)) {}
    const std::uint64_t key;
    const V value;
  };
  struct Inner : Node {
    Inner() : Node(false) {}
    std::array<Ptr, std::size_t{1} << kBits> kids;
  };

  static std::size_t Slot(std::uint64_t key, unsigned shift) {
    return static_cast<std::size_t>((key >> shift) & kMask);
  }

  /// `node` itself when its parent (or this version's root pointer) is
  /// its only holder, else a copy. Edits make each node on the path
  /// writable before descending, so a parent reached that way belongs to
  /// this version alone, and so does a child only that parent holds:
  /// editing it in place is invisible to every other version.
  static std::shared_ptr<Inner> Writable(const Ptr& node) {
    const auto& inner = static_cast<const Inner&>(*node);
    if (node.use_count() == 1) {
      return std::shared_ptr<Inner>(node, const_cast<Inner*>(&inner));
    }
    return std::make_shared<Inner>(inner);
  }

  Ptr Insert(const Ptr& node, std::uint64_t key, unsigned shift, V&& value,
             const Leaf** stored) {
    if (node != nullptr && !node->is_leaf) {
      std::shared_ptr<Inner> inner = Writable(node);
      Ptr& kid = inner->kids[Slot(key, shift)];
      kid = Insert(kid, key, shift + kBits, std::move(value), stored);
      return inner;
    }
    const auto* resident = static_cast<const Leaf*>(node.get());
    if (resident == nullptr || resident->key == key) {
      if (resident == nullptr) ++size_;
      auto leaf = std::make_shared<const Leaf>(key, std::move(value));
      *stored = leaf.get();
      return leaf;
    }
    // Two keys meet: push the resident leaf one level down and insert
    // beside it (again, one level further, while their nibbles agree).
    auto split = std::make_shared<Inner>();
    split->kids[Slot(resident->key, shift)] = node;
    Ptr& kid = split->kids[Slot(key, shift)];
    kid = Insert(kid, key, shift + kBits, std::move(value), stored);
    return split;
  }

  /// Removes `key`, which must be present under `node`.
  static Ptr Remove(const Ptr& node, std::uint64_t key, unsigned shift) {
    if (node->is_leaf) return nullptr;  // the key's own leaf
    std::shared_ptr<Inner> inner = Writable(node);
    Ptr& kid = inner->kids[Slot(key, shift)];
    kid = Remove(kid, key, shift + kBits);
    // A node left with one leaf and nothing else collapses into that
    // leaf, so erasing keeps paths as short as inserting made them.
    const Ptr* only = nullptr;
    std::size_t live = 0;
    for (const Ptr& k : inner->kids) {
      if (k == nullptr) continue;
      ++live;
      only = &k;
    }
    if (live == 0) return nullptr;
    if (live == 1 && (*only)->is_leaf) return *only;
    return inner;
  }

  Ptr root_;
  std::size_t size_ = 0;
};

}  // namespace communix::dimmunix
