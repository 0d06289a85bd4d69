// Dynamic bitset tuned for subgraph manipulation in DFGs.
//
// Custom-instruction identification, convexity checking and the graph
// partitioners all manipulate node sets of graphs whose size is only known at
// runtime (basic blocks range from a handful of operations to ~2700 for 3des).
// std::vector<bool> is too slow for the set-algebra in the enumeration inner
// loops, and std::bitset needs a compile-time size, so we roll a small
// word-parallel implementation.
#pragma once

#include <cstdint>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace isex::util {

/// Fixed-universe dynamic bitset with word-parallel set algebra.
class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t size)
      : size_(size), words_((size + 63) / 64, 0) {}

  std::size_t size() const { return size_; }
  /// The backing words, bit i in words()[i / 64] at position i % 64.
  std::span<const std::uint64_t> words() const { return words_; }

  void set(std::size_t i) { words_[i >> 6] |= (std::uint64_t{1} << (i & 63)); }
  void reset(std::size_t i) { words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }

  void clear() { std::fill(words_.begin(), words_.end(), 0); }

  /// Number of set bits.
  std::size_t count() const {
    std::size_t n = 0;
    for (auto w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  bool any() const {
    for (auto w : words_)
      if (w) return true;
    return false;
  }
  bool none() const { return !any(); }

  bool operator==(const Bitset& o) const = default;

  Bitset& operator|=(const Bitset& o) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= o.words_[i];
    return *this;
  }
  Bitset& operator&=(const Bitset& o) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= o.words_[i];
    return *this;
  }
  /// Set difference: removes every bit present in o.
  Bitset& operator-=(const Bitset& o) {
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~o.words_[i];
    return *this;
  }

  friend Bitset operator|(Bitset a, const Bitset& b) { return a |= b; }
  friend Bitset operator&(Bitset a, const Bitset& b) { return a &= b; }
  friend Bitset operator-(Bitset a, const Bitset& b) { return a -= b; }

  /// True if this and o share at least one set bit.
  bool intersects(const Bitset& o) const {
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & o.words_[i]) return true;
    return false;
  }

  /// True iff (this ∩ a) has a set bit outside excl — one fused pass over
  /// the words. This is the inner test of the union-based convexity check:
  /// with this = desc-union(S), a = anc-union(S), excl = S, a hit is a node
  /// outside S lying on a path between two members of S.
  bool intersects_outside(const Bitset& a, const Bitset& excl) const {
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & a.words_[i] & ~excl.words_[i]) return true;
    return false;
  }

  /// True if every set bit of this is also set in o.
  bool is_subset_of(const Bitset& o) const {
    for (std::size_t i = 0; i < words_.size(); ++i)
      if (words_[i] & ~o.words_[i]) return false;
    return true;
  }

  /// Invokes f(index) for every set bit, in increasing index order.
  template <typename F>
  void for_each(F&& f) const {
    for (std::size_t wi = 0; wi < words_.size(); ++wi) {
      std::uint64_t w = words_[wi];
      while (w) {
        const int bit = __builtin_ctzll(w);
        f(wi * 64 + static_cast<std::size_t>(bit));
        w &= w - 1;
      }
    }
  }

  /// Collects the indices of all set bits.
  std::vector<int> to_vector() const {
    std::vector<int> out;
    out.reserve(count());
    for_each([&](std::size_t i) { out.push_back(static_cast<int>(i)); });
    return out;
  }

  /// FNV-style hash over the words, for use as an unordered_map key.
  std::size_t hash() const {
    std::size_t h = 1469598103934665603ull;
    for (auto w : words_) {
      h ^= static_cast<std::size_t>(w);
      h *= 1099511628211ull;
    }
    return h;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

struct BitsetHash {
  std::size_t operator()(const Bitset& b) const { return b.hash(); }
};

}  // namespace isex::util
