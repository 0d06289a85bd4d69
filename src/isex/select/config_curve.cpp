#include "isex/select/config_curve.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "isex/codegen/schedule.hpp"
#include "isex/obs/trace.hpp"

namespace isex::select {

double ConfigCurve::cycles_at(double area_budget) const {
  return config_at(area_budget).cycles;
}

const Config& ConfigCurve::config_at(double area_budget) const {
  const Config* best = &points.front();
  for (const Config& c : points) {
    if (c.area <= area_budget + 1e-9) best = &c;
    else break;
  }
  return *best;
}

CurveOptions task_curve_options(const ir::Program& prog) {
  CurveOptions opts;
  int max_block = 0;
  for (const auto& b : prog.blocks())
    max_block = std::max(max_block, b.dfg.num_nodes());
  if (max_block > 600) {
    opts.enum_opts.max_candidates = 20000;
    opts.enum_opts.max_candidate_nodes = 16;
  } else {
    opts.enum_opts.max_candidates = 60000;
    opts.enum_opts.max_candidate_nodes = 24;
  }
  return opts;
}

CurveOptions inline_dfg_curve_options() {
  CurveOptions opts;
  opts.enum_opts.max_candidates = 20000;
  return opts;
}

std::vector<ise::Candidate> disjoint_pool(const ir::Dfg& dfg,
                                          std::vector<ise::Candidate> cands) {
  std::sort(cands.begin(), cands.end(),
            [](const ise::Candidate& a, const ise::Candidate& b) {
              if (a.total_gain() != b.total_gain())
                return a.total_gain() > b.total_gain();
              const double da = a.est.area > 0 ? a.total_gain() / a.est.area : 1e18;
              const double db = b.est.area > 0 ? b.total_gain() / b.est.area : 1e18;
              return da > db;
            });
  util::Bitset covered = dfg.empty_set();
  util::Bitset anc = dfg.empty_set(), desc = dfg.empty_set();
  std::vector<ise::Candidate> pool;
  std::vector<util::Bitset> accepted;
  codegen::ScheduleScratch scratch;
  for (auto& c : cands) {
    if (c.total_gain() <= 0) continue;
    if (c.nodes.intersects(covered)) continue;
    // Disjointness is not enough: the pool must stay jointly atomically
    // schedulable (see codegen::jointly_schedulable). The accepted CIs are,
    // so a new cycle must run through c. If c is convex, that cycle leaves
    // c into an accepted CI and comes back from one: c's descendant union
    // and its ancestor union both meet `covered`. When either misses it, c
    // is safe without rebuilding the contracted graph.
    anc.clear();
    desc.clear();
    c.nodes.for_each([&](std::size_t v) {
      dfg.reach_union_add(static_cast<ir::NodeId>(v), anc, desc);
    });
    accepted.push_back(c.nodes);
    const bool fast = dfg.is_convex_unions(c.nodes, anc, desc) &&
                      !(anc.intersects(covered) && desc.intersects(covered));
    if (!fast && !codegen::jointly_schedulable(dfg, accepted, scratch)) {
      accepted.pop_back();
      continue;
    }
    covered |= c.nodes;
    pool.push_back(std::move(c));
  }
  return pool;
}

double base_cycles(const ir::Program& prog,
                   const std::vector<std::int64_t>& counts,
                   const hw::CellLibrary& lib) {
  double base = 0;
  for (int b = 0; b < prog.num_blocks(); ++b) {
    double cost = 0;
    for (const ir::Node& n : prog.block(b).dfg.nodes())
      cost += lib.sw_cycles(n);
    base += cost * static_cast<double>(counts[static_cast<std::size_t>(b)]);
  }
  return base;
}

namespace {

/// Identification, per-block thinning and isomorphic merging: fills `out`'s
/// pool and knapsack items.
void selection_items(const ir::Program& prog,
                     const std::vector<std::int64_t>& counts,
                     const hw::CellLibrary& lib, const CurveOptions& opts,
                     CurveBuild& out) {
  ISEX_SPAN_CAT("select.selection_items", "select");
  // Hottest blocks by cycle contribution.
  std::vector<double> contribution(static_cast<std::size_t>(prog.num_blocks()));
  for (int b = 0; b < prog.num_blocks(); ++b) {
    double cost = 0;
    for (const ir::Node& n : prog.block(b).dfg.nodes())
      cost += lib.sw_cycles(n);
    contribution[static_cast<std::size_t>(b)] =
        cost * static_cast<double>(counts[static_cast<std::size_t>(b)]);
  }
  std::vector<int> order(static_cast<std::size_t>(prog.num_blocks()));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return contribution[static_cast<std::size_t>(a)] >
           contribution[static_cast<std::size_t>(b)];
  });

  // Candidate pool: disjoint per block, merged across blocks in hot order.
  const int hot = std::min<int>(kMaxHotBlocks, prog.num_blocks());
  std::vector<ise::Candidate>& pool = out.pool;
  for (int i = 0; i < hot; ++i) {
    const int b = order[static_cast<std::size_t>(i)];
    const auto freq = static_cast<double>(counts[static_cast<std::size_t>(b)]);
    if (freq <= 0) continue;
    auto cands = ise::enumerate_candidates(prog.block(b).dfg, lib,
                                           opts.enum_opts, b, freq);
    auto block_pool = disjoint_pool(prog.block(b).dfg, cands);
    if (opts.disconnected_pairs) {
      // The greedy cover is not monotone in the candidate set, so build the
      // pair-augmented pool separately and keep whichever covers more gain.
      auto augmented = cands;
      for (auto& c : ise::enumerate_disconnected(
               prog.block(b).dfg, lib, cands, opts.enum_opts.constraints))
        augmented.push_back(std::move(c));
      auto pair_pool = disjoint_pool(prog.block(b).dfg, std::move(augmented));
      auto total = [](const std::vector<ise::Candidate>& v) {
        double g = 0;
        for (const auto& c : v) g += c.total_gain();
        return g;
      };
      if (total(pair_pool) > total(block_pool)) block_pool = std::move(pair_pool);
    }
    for (auto& c : block_pool) pool.push_back(std::move(c));
  }

  // Isomorphic instructions (same datapath shape) may share one hardware
  // implementation: a whole isomorphism class becomes one item whose gain is
  // the sum over its occurrences.
  std::vector<opt::KnapsackItem>& items = out.items;
  if (opts.share_isomorphic) {
    std::unordered_map<std::uint64_t, opt::KnapsackItem> classes;
    for (const auto& c : pool) {
      auto [it, inserted] =
          classes.try_emplace(c.iso_hash, opt::KnapsackItem{c.est.area, 0});
      it->second.gain += c.total_gain();
      if (!inserted) it->second.area = std::max(it->second.area, c.est.area);
    }
    items.reserve(classes.size());
    for (auto& [h, item] : classes) items.push_back(item);
  } else {
    items.reserve(pool.size());
    for (const auto& c : pool)
      items.push_back(opt::KnapsackItem{c.est.area, c.total_gain()});
  }
}

}  // namespace

CurveBuild build_config_curve(const ir::Program& prog,
                              const std::vector<std::int64_t>& counts,
                              const hw::CellLibrary& lib,
                              const CurveOptions& opts) {
  ISEX_SPAN_CAT("select.build_config_curve", "select");
  ISEX_COUNT("select.curve_builds");
  const double base = base_cycles(prog, counts, lib);
  CurveBuild out;
  selection_items(prog, counts, lib, opts, out);
  ISEX_COUNT_ADD("select.knapsack_items", out.items.size());
  out.curve = curve_from_items(out.items, base, opts);
  return out;
}

ConfigCurve curve_from_items(const std::vector<opt::KnapsackItem>& items,
                             double base, const CurveOptions& opts) {
  double max_area = 0;
  for (const auto& it : items) max_area += it.area;

  ConfigCurve curve;
  curve.points.push_back(Config{0, base});
  if (!items.empty() && max_area > 0) {
    const auto profile = opt::knapsack_profile(items, max_area, kAreaGrid);
    double last_gain = 0;
    for (std::size_t a = 1; a < profile.size(); ++a) {
      if (profile[a] > last_gain + 1e-9) {
        last_gain = profile[a];
        curve.points.push_back(Config{static_cast<double>(a) * kAreaGrid,
                                      base - profile[a]});
      }
    }
  }
  // Thin to at most max_points, always keeping the first and last.
  if (opts.max_points > 1 &&
      static_cast<int>(curve.points.size()) > opts.max_points) {
    std::vector<Config> thin;
    const std::size_t n = curve.points.size();
    for (int i = 0; i < opts.max_points; ++i) {
      const std::size_t idx =
          (static_cast<std::size_t>(i) * (n - 1)) /
          static_cast<std::size_t>(opts.max_points - 1);
      thin.push_back(curve.points[idx]);
    }
    thin.erase(std::unique(thin.begin(), thin.end(),
                           [](const Config& a, const Config& b) {
                             return a.area == b.area && a.cycles == b.cycles;
                           }),
               thin.end());
    curve.points = std::move(thin);
  }
  return curve;
}

}  // namespace isex::select
