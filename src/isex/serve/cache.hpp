// isex::serve — the two content-addressed memos of one Server.
//
// The serving scale lever: design-space-exploration clients issue the same
// (task set, constraints, budget) query over and over, and the same inline
// DFG under many periods and area budgets. Both memos key on FNV-1a hashes
// over canonical bytes, are LRU-bounded by CacheOptions and belong to one
// Server instance (each worker of `--workers N` has its own).
//
// ResultCache — one solved select. The key covers *everything that
// determines the answer*: per-task configuration curves (which encode the
// DFG + cell library), periods, the area constraint, policy, the effective
// execution budget and the shedding rung — so two requests collide only
// when a cold solve would be expected to produce the same result object.
// Reuse is never blind: before a hit is served, the stored selection is
// re-certified by the independent witness checkers (certify::) against a
// freshly built task set. A corrupted entry — bit rot, a poisoned request
// that somehow scribbled on shared state, a stale curve — fails its
// certificate, is evicted, and the request falls through to a cold solve.
// That is the per-request isolation contract: the cache can only ever
// return answers that check out *now*, not answers that checked out once.
//
// CurveCache — one identified inline DFG. The key is the canonical bytes of
// the program (per node: opcode, operands, live-out; per block: its WCET
// count) plus the curve options and the cell library it was built with; the
// hash only finds the entry, and a hit must match those bytes exactly, so a
// hash collision costs a rebuild, never a wrong curve. A curve is the
// deterministic output of identification on exactly those bytes, so it
// needs no certificate beyond its cheap invariants (point 0 is the
// zero-area software point, areas ascend, cycles strictly descend), which
// are re-checked on every hit; the result cache still certifies every
// selection made over it. Only curves whose build the request budget did
// not cut are stored, with the nodes and peak memory the build charged; a
// hit replays both into the request budget, so `nodes`, status and
// truncation points are what a cold build gives.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <vector>

#include "isex/customize/select_rms.hpp"
#include "isex/hw/cell_library.hpp"
#include "isex/ir/program.hpp"
#include "isex/robust/budget.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/rt/simulator.hpp"
#include "isex/rt/task.hpp"

namespace isex::serve {

/// 64-bit FNV-1a over arbitrary bytes; the building block of cache keys.
std::uint64_t fnv1a(const void* data, std::size_t len,
                    std::uint64_t seed = 0xcbf29ce484222325ull);
std::uint64_t fnv1a_str(const std::string& s, std::uint64_t seed);
std::uint64_t fnv1a_f64(double v, std::uint64_t seed);
std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t seed);

/// The canonical key of a select request (see file comment for what it
/// covers). Curves are hashed point by point, so an inline task set and a
/// benchmark ref producing identical curves share cache entries.
std::uint64_t select_cache_key(const rt::TaskSet& ts, double area_budget,
                               rt::Policy policy, double time_budget_seconds,
                               long node_budget, std::size_t mem_budget_bytes,
                               bool paranoid, int shed_rung);

struct CacheOptions {
  std::size_t max_entries = 512;
  std::size_t max_bytes = 32u << 20;  // accounted bytes (see Entry::bytes)
};

/// The LRU core both memos share: 64-bit keys, entries that report their
/// accounted size through `bytes()`, bounded by CacheOptions. The newest
/// entry always stays, whatever its size.
template <typename Entry>
class LruMap {
 public:
  explicit LruMap(const CacheOptions& opts) : opts_(opts) {}

  /// LRU-touching lookup; nullptr when absent. The pointer stays valid until
  /// the next insert()/erase().
  Entry* find(std::uint64_t key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    lru_.splice(lru_.begin(), lru_, it->second);
    return &it->second->second;
  }

  /// Inserts (replacing any entry under `key`); returns how many older
  /// entries were evicted to stay within the bounds.
  std::size_t insert(std::uint64_t key, Entry entry) {
    erase(key);
    bytes_ += entry.bytes();
    lru_.emplace_front(key, std::move(entry));
    map_[key] = lru_.begin();
    std::size_t evicted = 0;
    while ((map_.size() > opts_.max_entries || bytes_ > opts_.max_bytes) &&
           lru_.size() > 1) {
      const auto& [old_key, old] = lru_.back();
      bytes_ -= old.bytes();
      map_.erase(old_key);
      lru_.pop_back();
      ++evicted;
    }
    return evicted;
  }

  /// Drops the entry under `key`; false when there is none.
  bool erase(std::uint64_t key) {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    bytes_ -= it->second->second.bytes();
    lru_.erase(it->second);
    map_.erase(it);
    return true;
  }

  std::size_t size() const { return map_.size(); }
  std::size_t bytes() const { return bytes_; }

 private:
  using List = std::list<std::pair<std::uint64_t, Entry>>;
  CacheOptions opts_;
  List lru_;  // front = most recent
  std::unordered_map<std::uint64_t, typename List::iterator> map_;
  std::size_t bytes_ = 0;
};

class ResultCache {
 public:
  struct Entry {
    std::string result_json;  // rendered stable `result` object
    /// Stored claims for revalidation; `rms` selects the checker family.
    customize::RmsResult selection;
    bool rms = false;
    long nodes_charged = 0;  // of the cold solve (echoed on hits)

    std::size_t bytes() const { return result_json.size(); }
  };

  explicit ResultCache(const CacheOptions& opts) : lru_(opts) {}

  /// LRU-touching lookup; nullptr on miss. The pointer stays valid until the
  /// next insert()/erase().
  const Entry* find(std::uint64_t key);
  void insert(std::uint64_t key, Entry entry);
  /// Drops a poisoned entry (certificate failed on reuse).
  void erase(std::uint64_t key);

  std::size_t entries() const { return lru_.size(); }
  std::size_t bytes() const { return lru_.bytes(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t poisoned() const { return poisoned_; }

 private:
  LruMap<Entry> lru_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, poisoned_ = 0;
};

/// The canonical identification key of a program's configuration curve:
/// per block its WCET count and, per node, opcode, operands and live-out;
/// then every CurveOptions field that shapes the curve (the enumeration
/// constraints and caps included, the budget pointer excluded) and the
/// cell library's full cost table. Equal bytes mean equal curves.
std::string curve_key(const ir::Program& prog,
                      const std::vector<std::int64_t>& counts,
                      const hw::CellLibrary& lib,
                      const select::CurveOptions& opts);

class CurveCache {
 public:
  struct Entry {
    std::string key;  // curve_key bytes, compared in full on every hit
    std::vector<select::Config> points;
    long nodes_charged = 0;          // what the stored build charged
    std::size_t mem_peak_bytes = 0;  // its accounted-memory peak

    std::size_t bytes() const {
      return key.size() + points.size() * sizeof(select::Config);
    }
  };

  explicit CurveCache(const CacheOptions& opts) : lru_(opts) {}

  /// The stored curve for `key` (found through `hash`), with its recorded
  /// cost replayed into `budget`: the nodes in one charge, the memory peak
  /// charged and released. nullptr means "build cold", in three cases:
  ///  * miss — no entry, or one whose bytes differ (a hash collision), or
  ///    one whose curve breaks an invariant against `base_cycles` (point 0
  ///    is not (0, base_cycles), areas descend, or cycles do not strictly
  ///    descend): it is dropped and counted poisoned;
  ///  * replay refused — the budget is exhausted, or its remaining nodes or
  ///    memory cannot take the recorded cost; the entry stays and nothing is
  ///    charged, so the cold build truncates exactly as it would uncached.
  /// The pointer stays valid until the next insert().
  const std::vector<select::Config>* reuse(std::uint64_t hash,
                                           const std::string& key,
                                           double base_cycles,
                                           robust::Budget& budget);
  void insert(std::uint64_t hash, Entry entry);

  std::size_t entries() const { return lru_.size(); }
  std::size_t bytes() const { return lru_.bytes(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t poisoned() const { return poisoned_; }
  std::uint64_t replay_refused() const { return replay_refused_; }

 private:
  LruMap<Entry> lru_;
  std::uint64_t hits_ = 0, misses_ = 0, evictions_ = 0, poisoned_ = 0,
                replay_refused_ = 0;
};

}  // namespace isex::serve
