#include "isex/serve/cache.hpp"

#include <cstring>

#include "isex/obs/metrics.hpp"

namespace isex::serve {

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = seed;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t fnv1a_str(const std::string& s, std::uint64_t seed) {
  // Length-prefix so adjacent fields can't alias ("ab","c" vs "a","bc").
  const std::uint64_t n = s.size();
  seed = fnv1a(&n, sizeof n, seed);
  return fnv1a(s.data(), s.size(), seed);
}

std::uint64_t fnv1a_f64(double v, std::uint64_t seed) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return fnv1a(&bits, sizeof bits, seed);
}

std::uint64_t fnv1a_u64(std::uint64_t v, std::uint64_t seed) {
  return fnv1a(&v, sizeof v, seed);
}

std::uint64_t select_cache_key(const rt::TaskSet& ts, double area_budget,
                               rt::Policy policy, double time_budget_seconds,
                               long node_budget, std::size_t mem_budget_bytes,
                               bool paranoid, int shed_rung) {
  std::uint64_t h = fnv1a_str("isex.serve.select.v1", 0xcbf29ce484222325ull);
  h = fnv1a_u64(policy == rt::Policy::kRms ? 1 : 0, h);
  h = fnv1a_f64(area_budget, h);
  h = fnv1a_f64(time_budget_seconds, h);
  h = fnv1a_u64(static_cast<std::uint64_t>(node_budget < 0 ? -1 : node_budget),
                h);
  h = fnv1a_u64(mem_budget_bytes, h);
  h = fnv1a_u64((paranoid ? 2u : 0u) |
                    (static_cast<unsigned>(shed_rung) << 8),
                h);
  h = fnv1a_u64(ts.size(), h);
  for (const rt::Task& t : ts.tasks) {
    h = fnv1a_str(t.name, h);
    h = fnv1a_f64(t.period, h);
    h = fnv1a_u64(t.configs.size(), h);
    for (const auto& c : t.configs) {
      h = fnv1a_f64(c.area, h);
      h = fnv1a_f64(c.cycles, h);
    }
  }
  return h;
}

const ResultCache::Entry* ResultCache::find(std::uint64_t key) {
  const Entry* e = lru_.find(key);
  if (e == nullptr) {
    ++misses_;
    ISEX_COUNT("serve.cache.misses");
    return nullptr;
  }
  ++hits_;
  ISEX_COUNT("serve.cache.hits");
  return e;
}

void ResultCache::insert(std::uint64_t key, Entry entry) {
  const std::size_t evicted = lru_.insert(key, std::move(entry));
  evictions_ += evicted;
  if (evicted > 0) ISEX_COUNT_ADD("serve.cache.evictions", evicted);
  ISEX_GAUGE_SET("serve.cache.entries", lru_.size());
  ISEX_GAUGE_SET("serve.cache.bytes", lru_.bytes());
}

void ResultCache::erase(std::uint64_t key) {
  if (lru_.erase(key)) {
    ++poisoned_;  // the only caller of public erase() is poison eviction
    ISEX_COUNT("serve.cache.poisoned");
  }
}

namespace {

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// True when `points` is a well-formed configuration curve of a task whose
/// software-only cycle count is `base_cycles`.
bool curve_invariants_hold(const std::vector<select::Config>& points,
                           double base_cycles) {
  if (points.empty() || points.front().area != 0 ||
      points.front().cycles != base_cycles)
    return false;
  for (std::size_t i = 1; i < points.size(); ++i)
    if (!(points[i].area >= points[i - 1].area) ||
        !(points[i].cycles < points[i - 1].cycles))
      return false;
  return true;
}

}  // namespace

std::string curve_key(const ir::Program& prog,
                      const std::vector<std::int64_t>& counts,
                      const hw::CellLibrary& lib,
                      const select::CurveOptions& opts) {
  std::string k = "isex.serve.curve.v1";
  put_u64(k, counts.size());
  for (const std::int64_t c : counts) put_u64(k, static_cast<std::uint64_t>(c));
  put_u64(k, static_cast<std::uint64_t>(prog.num_blocks()));
  for (const ir::BasicBlock& block : prog.blocks()) {
    const ir::Dfg& dfg = block.dfg;
    put_u64(k, static_cast<std::uint64_t>(dfg.num_nodes()));
    for (const ir::Node& n : dfg.nodes()) {
      put_u64(k, static_cast<std::uint64_t>(n.op) |
                     (static_cast<std::uint64_t>(n.live_out) << 32) |
                     (static_cast<std::uint64_t>(n.operands.size()) << 40));
      for (const ir::NodeId o : n.operands)
        put_u64(k, static_cast<std::uint64_t>(o));
    }
  }
  const ise::EnumOptions& e = opts.enum_opts;
  put_u64(k, static_cast<std::uint64_t>(e.constraints.max_inputs));
  put_u64(k, static_cast<std::uint64_t>(e.constraints.max_outputs));
  put_u64(k, static_cast<std::uint64_t>(e.max_candidate_nodes));
  put_u64(k, static_cast<std::uint64_t>(e.max_candidates));
  put_u64(k, static_cast<std::uint64_t>(opts.max_points));
  put_u64(k, (opts.share_isomorphic ? 1u : 0u) |
                 (opts.disconnected_pairs ? 2u : 0u));
  for (int i = 0; i < ir::kNumOpcodes; ++i) {
    const hw::OpCost& c = lib.cost(static_cast<ir::Opcode>(i));
    put_f64(k, c.sw_cycles);
    put_f64(k, c.hw_latency_ns);
    put_f64(k, c.area);
  }
  put_f64(k, lib.clock_period_ns());
  put_u64(k, static_cast<std::uint64_t>(lib.issue_overhead_cycles()));
  put_f64(k, lib.area_overhead_factor());
  return k;
}

const std::vector<select::Config>* CurveCache::reuse(std::uint64_t hash,
                                                     const std::string& key,
                                                     double base_cycles,
                                                     robust::Budget& budget) {
  const Entry* e = lru_.find(hash);
  if (e != nullptr && e->key == key &&
      !curve_invariants_hold(e->points, base_cycles)) {
    lru_.erase(hash);
    ++poisoned_;
    ISEX_COUNT("serve.curve_cache.poisoned");
    e = nullptr;
  }
  if (e == nullptr || e->key != key) {
    ++misses_;
    ISEX_COUNT("serve.curve_cache.misses");
    return nullptr;
  }
  const robust::BudgetReport r = budget.report();
  const bool nodes_fit = r.node_budget < 0 ||
                         r.nodes_charged + e->nodes_charged <= r.node_budget;
  const bool mem_fits =
      r.mem_budget_bytes == 0 ||
      budget.mem_current() + e->mem_peak_bytes <= r.mem_budget_bytes;
  if (!nodes_fit || !mem_fits || budget.exhausted()) {
    ++replay_refused_;
    ISEX_COUNT("serve.curve_cache.replay_refused");
    return nullptr;
  }
  if (e->nodes_charged > 0) budget.charge(e->nodes_charged);
  if (e->mem_peak_bytes > 0) {
    budget.charge_mem(e->mem_peak_bytes);
    budget.release_mem(e->mem_peak_bytes);
  }
  ++hits_;
  ISEX_COUNT("serve.curve_cache.hits");
  return &e->points;
}

void CurveCache::insert(std::uint64_t hash, Entry entry) {
  const std::size_t evicted = lru_.insert(hash, std::move(entry));
  evictions_ += evicted;
  if (evicted > 0) ISEX_COUNT_ADD("serve.curve_cache.evictions", evicted);
  ISEX_GAUGE_SET("serve.curve_cache.entries", lru_.size());
  ISEX_GAUGE_SET("serve.curve_cache.bytes", lru_.bytes());
}

}  // namespace isex::serve
