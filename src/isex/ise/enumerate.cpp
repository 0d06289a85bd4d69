#include "isex/ise/enumerate.hpp"

#include <algorithm>
#include <unordered_set>

#include "isex/obs/trace.hpp"

namespace isex::ise {

namespace {

/// Approximate bytes one retained subgraph costs (bitset words + container
/// bookkeeping) — the unit the enumerators charge against a memory budget.
std::size_t subgraph_bytes(const ir::Dfg& dfg) {
  return 8 * ((static_cast<std::size_t>(dfg.num_nodes()) + 63) / 64) + 64;
}

/// Progress record one enumeration phase fills in: whether the budget cut it
/// short and how many of its seed nodes it finished, the basis for the
/// coverage-style optimality gap of enumerate_candidates_bounded().
struct EnumStats {
  bool truncated = false;
  long seeds_total = 0;
  long seeds_processed = 0;
};

/// Grows the MaxMISO of `root`: absorb a predecessor when it is valid and
/// all of its consumers are already inside (so only root's value escapes).
util::Bitset miso_grow(const ir::Dfg& dfg, const util::Bitset& valid,
                       int root) {
  util::Bitset s = dfg.empty_set();
  s.set(static_cast<std::size_t>(root));
  bool changed = true;
  while (changed) {
    changed = false;
    // Iterate over a snapshot; s only grows.
    for (int v : s.to_vector()) {
      for (std::int32_t o : dfg.operands_of(v)) {
        const auto oi = static_cast<std::size_t>(o);
        if (s.test(oi) || !valid.test(oi)) continue;
        if (dfg.node(o).op == ir::Opcode::kConst) continue;
        if (dfg.node(o).live_out) continue;
        bool absorbed = true;
        for (std::int32_t cons : dfg.consumers_of(o))
          if (!s.test(static_cast<std::size_t>(cons))) {
            absorbed = false;
            break;
          }
        if (absorbed) {
          s.set(oi);
          changed = true;
        }
      }
    }
  }
  return s;
}

std::vector<Candidate> maximal_misos_impl(const ir::Dfg& dfg,
                                          const hw::CellLibrary& lib,
                                          const Constraints& c, int block,
                                          double exec_freq,
                                          robust::Budget* budget,
                                          EnumStats* stats) {
  ISEX_SPAN_CAT("ise.maximal_misos", "ise");
  long input_rejects = 0, duplicates = 0;
  std::vector<Candidate> out;
  std::unordered_set<util::Bitset, util::BitsetHash> seen;
  const std::size_t entry_bytes = subgraph_bytes(dfg);
  const util::Bitset& valid = dfg.valid_mask();
  if (stats != nullptr) stats->seeds_total = dfg.num_nodes();
  for (int root = 0; root < dfg.num_nodes(); ++root) {
    if (budget != nullptr && budget->charge()) {
      if (stats != nullptr) stats->truncated = true;
      break;
    }
    if (stats != nullptr) ++stats->seeds_processed;
    if (!valid.test(static_cast<std::size_t>(root))) continue;
    if (dfg.node(root).op == ir::Opcode::kConst) continue;
    util::Bitset s = miso_grow(dfg, valid, root);
    if (s.count() < 2) continue;  // single nodes are not worth an instruction
    if (budget != nullptr && budget->charge_mem(entry_bytes)) {
      if (stats != nullptr) {
        stats->truncated = true;
        --stats->seeds_processed;  // this root's pattern was dropped
      }
      break;
    }
    if (!seen.insert(s).second) {
      ++duplicates;
      continue;
    }
    // A MaxMISO is convex by construction (it is closed under "all consumers
    // inside"), has one output, and only the input constraint can fail.
    if (dfg.input_count(s) > c.max_inputs) {
      ++input_rejects;
      continue;
    }
    out.push_back(make_candidate(dfg, s, lib, block, exec_freq));
  }
  ISEX_COUNT_ADD("ise.miso.candidates", out.size());
  ISEX_COUNT_ADD("ise.miso.input_rejects", input_rejects);
  ISEX_COUNT_ADD("ise.miso.duplicates", duplicates);
  return out;
}

}  // namespace

std::vector<Candidate> maximal_misos(const ir::Dfg& dfg,
                                     const hw::CellLibrary& lib,
                                     const Constraints& c, int block,
                                     double exec_freq) {
  return maximal_misos_impl(dfg, lib, c, block, exec_freq, nullptr, nullptr);
}

namespace {

/// One level of the growth DFS. Frames are preallocated per search depth so
/// the inner loop reuses bitset storage instead of allocating per child.
struct GrowFrame {
  util::Bitset s;     // current subgraph
  util::Bitset anc;   // union of ancestors(v) over v in s
  util::Bitset desc;  // union of descendants(v) over v in s
  std::vector<int> frontier;
};

/// Growth enumeration state shared across the recursion.
struct GrowCtx {
  const ir::Dfg& dfg;
  const hw::CellLibrary& lib;
  const EnumOptions& opts;
  int block;
  double exec_freq;
  long budget;  // remaining grow-call allowance (max_candidates countdown)
  std::unordered_set<util::Bitset, util::BitsetHash> visited = {};
  std::vector<Candidate> out = {};
  bool truncated = false;  // set once opts.budget stops the search
  // Search statistics, published to the obs registry once per enumeration.
  long grow_calls = 0;
  long input_rejects = 0;
  long output_rejects = 0;
  long convexity_rejects = 0;
  std::vector<GrowFrame> frames = {};
};

/// Expands the subgraph in frames[depth] (connected, valid nodes only, all
/// ids >= seed) by every neighbour with id > seed; emits it if legal. The
/// frame carries the running ancestor/descendant unions, so the convexity
/// test is O(words) bitops instead of an O(V) full-graph rescan.
void grow(GrowCtx& ctx, std::size_t depth, int seed) {
  if (ctx.budget <= 0 || ctx.truncated) return;
  robust::Budget* rbudget = ctx.opts.budget;
  if (rbudget != nullptr && rbudget->charge()) {
    ctx.truncated = true;
    return;
  }
  --ctx.budget;
  ++ctx.grow_calls;
  const ir::Dfg& dfg = ctx.dfg;
  GrowFrame& f = ctx.frames[depth];
  // Same legality tests in the same short-circuit order as the original
  // single conjunction; the split only attributes the first failing reason.
  if (f.s.count() >= 2) {
    if (dfg.input_count(f.s) > ctx.opts.constraints.max_inputs) {
      ++ctx.input_rejects;
    } else if (dfg.output_count(f.s) > ctx.opts.constraints.max_outputs) {
      ++ctx.output_rejects;
    } else if (!dfg.is_convex_unions(f.s, f.anc, f.desc)) {
      ++ctx.convexity_rejects;
    } else {
      ctx.out.push_back(
          make_candidate(dfg, f.s, ctx.lib, ctx.block, ctx.exec_freq));
    }
  }
  if (f.s.count() >= static_cast<std::size_t>(ctx.opts.max_candidate_nodes))
    return;

  // Frontier: valid neighbours with id > seed not yet in s.
  const util::Bitset& valid = dfg.valid_mask();
  f.frontier.clear();
  f.s.for_each([&](std::size_t v) {
    auto consider = [&](ir::NodeId u) {
      const auto ui = static_cast<std::size_t>(u);
      if (u <= seed || f.s.test(ui) || !valid.test(ui)) return;
      if (dfg.node(u).op == ir::Opcode::kConst) return;
      f.frontier.push_back(u);
    };
    for (std::int32_t o : dfg.operands_of(static_cast<int>(v))) consider(o);
    for (std::int32_t c : dfg.consumers_of(static_cast<int>(v))) consider(c);
  });
  std::sort(f.frontier.begin(), f.frontier.end());
  f.frontier.erase(std::unique(f.frontier.begin(), f.frontier.end()),
                   f.frontier.end());

  GrowFrame& child = ctx.frames[depth + 1];
  for (int u : f.frontier) {
    if (ctx.truncated) return;
    child.s = f.s;
    child.s.set(static_cast<std::size_t>(u));
    if (ctx.visited.insert(child.s).second) {
      if (rbudget != nullptr && rbudget->charge_mem(subgraph_bytes(dfg))) {
        ctx.truncated = true;
        return;
      }
      child.anc = f.anc;
      child.desc = f.desc;
      dfg.reach_union_add(u, child.anc, child.desc);
      grow(ctx, depth + 1, seed);
    }
  }
}

/// Sizes ctx.frames for the deepest possible search node and seeds frame 0.
void init_frames(GrowCtx& ctx, int seed) {
  const auto depth_cap = static_cast<std::size_t>(
      std::max(2, ctx.opts.max_candidate_nodes) + 2);
  if (ctx.frames.size() < depth_cap) ctx.frames.resize(depth_cap);
  GrowFrame& f0 = ctx.frames[0];
  f0.s = ctx.dfg.empty_set();
  f0.s.set(static_cast<std::size_t>(seed));
  f0.anc = ctx.dfg.ancestors(seed);
  f0.desc = ctx.dfg.descendants(seed);
}

/// Body of enumerate_connected() with budget progress reported via `stats`:
/// seeds in id order, one visited set, the grow-call cap and opts.budget
/// charged in the order the search runs. Parallelism lives a layer up,
/// across blocks (select::selection_items) and tasks
/// (workloads::prefetch_tasks).
std::vector<Candidate> enumerate_connected_impl(const ir::Dfg& dfg,
                                                const hw::CellLibrary& lib,
                                                const EnumOptions& opts,
                                                int block, double exec_freq,
                                                EnumStats* stats) {
  ISEX_SPAN_CAT("ise.enumerate_connected", "ise");
  GrowCtx ctx{dfg, lib, opts, block, exec_freq, opts.max_candidates};
  const util::Bitset& valid = dfg.valid_mask();
  if (stats != nullptr) stats->seeds_total = dfg.num_nodes();
  for (int seed = 0; seed < dfg.num_nodes(); ++seed) {
    if (ctx.truncated) break;
    if (stats != nullptr) ++stats->seeds_processed;
    if (!valid.test(static_cast<std::size_t>(seed))) continue;
    if (dfg.node(seed).op == ir::Opcode::kConst) continue;
    init_frames(ctx, seed);
    grow(ctx, 0, seed);
    if (ctx.budget <= 0) break;
  }
  if (stats != nullptr && ctx.truncated) {
    stats->truncated = true;
    if (stats->seeds_processed > 0) --stats->seeds_processed;  // cut mid-seed
  }
  ISEX_COUNT_ADD("ise.enum.candidates", ctx.out.size());
  ISEX_COUNT_ADD("ise.enum.grow_calls", ctx.grow_calls);
  ISEX_COUNT_ADD("ise.enum.input_rejects", ctx.input_rejects);
  ISEX_COUNT_ADD("ise.enum.output_rejects", ctx.output_rejects);
  ISEX_COUNT_ADD("ise.enum.convexity_rejects", ctx.convexity_rejects);
  if (ctx.budget <= 0) ISEX_COUNT("ise.enum.budget_exhausted");
  if (ctx.truncated) ISEX_COUNT("ise.enum.robust_budget_truncations");
  return std::move(ctx.out);
}

}  // namespace

std::vector<Candidate> enumerate_connected(const ir::Dfg& dfg,
                                           const hw::CellLibrary& lib,
                                           const EnumOptions& opts, int block,
                                           double exec_freq) {
  return enumerate_connected_impl(dfg, lib, opts, block, exec_freq, nullptr);
}

std::vector<Candidate> enumerate_disconnected(
    const ir::Dfg& dfg, const hw::CellLibrary& lib,
    const std::vector<Candidate>& connected, const Constraints& constraints,
    int max_seeds, int max_pairs) {
  ISEX_SPAN_CAT("ise.enumerate_disconnected", "ise");
  long legality_rejects = 0, edge_rejects = 0;
  // Work from the highest-gain connected candidates.
  std::vector<const Candidate*> seeds;
  seeds.reserve(connected.size());
  for (const auto& c : connected) seeds.push_back(&c);
  std::sort(seeds.begin(), seeds.end(), [](const Candidate* a, const Candidate* b) {
    return a->est.gain_per_exec > b->est.gain_per_exec;
  });
  if (static_cast<int>(seeds.size()) > max_seeds)
    seeds.resize(static_cast<std::size_t>(max_seeds));

  std::vector<Candidate> out;
  std::unordered_set<util::Bitset, util::BitsetHash> seen;
  for (std::size_t i = 0; i < seeds.size() &&
                          static_cast<int>(out.size()) < max_pairs;
       ++i) {
    for (std::size_t j = i + 1; j < seeds.size() &&
                                static_cast<int>(out.size()) < max_pairs;
         ++j) {
      const Candidate& a = *seeds[i];
      const Candidate& b = *seeds[j];
      if (a.nodes.intersects(b.nodes)) continue;
      // Node-disjoint is not enough: an edge between the components would
      // serialize them. Reject pairs where one feeds the other.
      bool connected_pair = false;
      a.nodes.for_each([&](std::size_t v) {
        for (std::int32_t c : dfg.consumers_of(static_cast<int>(v)))
          if (b.nodes.test(static_cast<std::size_t>(c))) connected_pair = true;
        for (std::int32_t o : dfg.operands_of(static_cast<int>(v)))
          if (b.nodes.test(static_cast<std::size_t>(o))) connected_pair = true;
      });
      if (connected_pair) {
        ++edge_rejects;
        continue;
      }
      util::Bitset merged = a.nodes;
      merged |= b.nodes;
      if (!seen.insert(merged).second) continue;
      if (!is_legal(dfg, merged, constraints)) {
        ++legality_rejects;
        continue;
      }
      out.push_back(
          make_candidate(dfg, merged, lib, a.block, a.exec_freq));
    }
  }
  ISEX_COUNT_ADD("ise.disconnected.pairs", out.size());
  ISEX_COUNT_ADD("ise.disconnected.edge_rejects", edge_rejects);
  ISEX_COUNT_ADD("ise.disconnected.legality_rejects", legality_rejects);
  return out;
}

std::vector<Candidate> enumerate_candidates(const ir::Dfg& dfg,
                                            const hw::CellLibrary& lib,
                                            const EnumOptions& opts, int block,
                                            double exec_freq) {
  return enumerate_candidates_bounded(dfg, lib, opts, block, exec_freq).value;
}

robust::Outcome<std::vector<Candidate>> enumerate_candidates_bounded(
    const ir::Dfg& dfg, const hw::CellLibrary& lib, const EnumOptions& opts,
    int block, double exec_freq) {
  ISEX_SPAN_CAT("ise.enumerate_candidates", "ise");
  EnumStats connected_stats;
  std::vector<Candidate> out = enumerate_connected_impl(
      dfg, lib, opts, block, exec_freq, &connected_stats);
  std::unordered_set<util::Bitset, util::BitsetHash> seen;
  for (const Candidate& c : out) seen.insert(c.nodes);
  EnumStats miso_stats;
  for (Candidate& m : maximal_misos_impl(dfg, lib, opts.constraints, block,
                                         exec_freq, opts.budget, &miso_stats))
    if (seen.insert(m.nodes).second) out.push_back(std::move(m));
#if ISEX_OBS_ENABLED
  for (const Candidate& c : out)
    ISEX_HIST("ise.candidate_nodes", c.nodes.count());
#endif
  robust::Outcome<std::vector<Candidate>> res;
  res.value = std::move(out);
  const bool truncated = connected_stats.truncated || miso_stats.truncated;
  res.status =
      truncated ? robust::Status::kBudgetTruncated : robust::Status::kExact;
  if (truncated) {
    // Coverage bound: the fraction of seed nodes (over both phases) the
    // enumeration never finished. Not a gain bound — candidates found are
    // individually legal regardless.
    const long total =
        connected_stats.seeds_total + miso_stats.seeds_total;
    const long done =
        connected_stats.seeds_processed + miso_stats.seeds_processed;
    res.optimality_gap =
        total > 0 ? 1.0 - static_cast<double>(done) / static_cast<double>(total)
                  : 1.0;
    res.detail = "enumeration stopped after " + std::to_string(done) + "/" +
                 std::to_string(total) + " seeds";
  }
  if (opts.budget != nullptr) res.budget = opts.budget->report();
  return res;
}

}  // namespace isex::ise
