// Packed hash set of equal-size bitsets.
//
// Identification keeps a visited set of every subgraph it grows: tens of
// thousands of node sets per basic block. std::unordered_set<Bitset> pays a
// list node and a separate word vector per entry. This set stores the key
// words back to back in fixed-size pages and indexes them with one
// open-addressing table, so an insert allocates nothing but an occasional
// new page or a doubling of the index, and no stored key is ever copied.
//
// Keys are hashed by Zobrist: the hash of a set is the XOR of a fixed random
// word per member (zobrist_key). A search that grows a set one member at a
// time carries the hash along, h(S + u) = h(S) ^ zobrist_key(u), and never
// rehashes the words.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "isex/util/bitset.hpp"

namespace isex::util {

class BitsetSet {
 public:
  /// Fixed pseudo-random word of bit i (the splitmix64 output for i).
  static std::uint64_t zobrist_key(std::size_t i) {
    return mix(static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull +
               0x9e3779b97f4a7c15ull);
  }
  /// Zobrist hash of b: XOR of zobrist_key over its set bits.
  static std::uint64_t zobrist_hash(const Bitset& b) {
    std::uint64_t h = 0;
    b.for_each([&](std::size_t i) { h ^= zobrist_key(i); });
    return h;
  }

  /// An empty set of bitsets over `universe` bits.
  explicit BitsetSet(std::size_t universe)
      : words_((universe + 63) / 64),
        page_keys_(kPageWords / std::max<std::size_t>(words_, 1) + 1) {}

  /// Inserts b; true when it was not in the set yet.
  bool insert(const Bitset& b) { return insert(b, zobrist_hash(b)); }
  /// Same, with b's hash supplied by the caller. Any hash works as long as
  /// every insert into one set uses the same function of the key.
  bool insert(const Bitset& b, std::uint64_t hash) {
    assert(b.words().size() == words_);
    const std::uint64_t m = mix(hash);
    std::size_t i = find(b.words().data(), m);
    if (slots_[i] != 0) return false;
    if (2 * (size_ + 1) > slots_.size()) {
      grow_index();
      i = find(b.words().data(), m);
    }
    if (size_ % page_keys_ == 0)
      pages_.push_back(std::make_unique<std::uint64_t[]>(page_keys_ * words_));
    std::copy(b.words().begin(), b.words().end(), key(size_));
    ++size_;
    assert(size_ <= ~kTagMask);
    slots_[i] = (m & kTagMask) | size_;
    return true;
  }

  std::size_t size() const { return size_; }
  /// Bytes allocated: the key pages plus the index table.
  std::size_t bytes() const {
    return (pages_.size() * page_keys_ * words_ + slots_.size()) *
           sizeof(std::uint64_t);
  }

 private:
  static constexpr std::size_t kPageWords = 4096;  // 32 KiB key pages
  // A slot holds (high 32 bits of the mixed hash) | (entry id + 1); 0 = empty.
  // Those hash bits pick the home slot too, so the index doubles without
  // touching a key.
  static constexpr std::uint64_t kTagMask = 0xffffffff00000000ull;

  /// 64-bit finalizer (splitmix64 / murmur3 fmix): every input bit reaches
  /// the bits the index uses.
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }

  std::uint64_t* key(std::size_t id) const {
    return pages_[id / page_keys_].get() + (id % page_keys_) * words_;
  }

  /// Slot holding the key `w` (mixed hash m), or the empty slot that ends
  /// its probe sequence.
  std::size_t find(const std::uint64_t* w, std::uint64_t m) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (m >> 32) & mask;; i = (i + 1) & mask) {
      const std::uint64_t s = slots_[i];
      if (s == 0) return i;
      if ((s & kTagMask) == (m & kTagMask) &&
          std::equal(w, w + words_, key((s & ~kTagMask) - 1)))
        return i;
    }
  }

  /// Doubles the index and re-places every entry by its stored hash bits.
  void grow_index() {
    std::vector<std::uint64_t> old = std::move(slots_);
    slots_.assign(2 * old.size(), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::uint64_t s : old) {
      if (s == 0) continue;
      std::size_t i = (s >> 32) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::size_t words_;      // words per key
  std::size_t page_keys_;  // keys per page, >= 1 even for very wide keys
  std::size_t size_ = 0;
  std::vector<std::unique_ptr<std::uint64_t[]>> pages_;
  std::vector<std::uint64_t> slots_ =
      std::vector<std::uint64_t>(16, 0);  // power-of-two open-addressing index
};

}  // namespace isex::util
