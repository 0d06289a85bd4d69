#include "isex/ise/enumerate.hpp"

#include <algorithm>
#include <iterator>
#include <span>
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
  long input_rejects = 0;
  std::vector<Candidate> out;
  robust::MemCharge mem{budget};  // the retained patterns
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
    if (mem.charge(entry_bytes)) {
      if (stats != nullptr) {
        stats->truncated = true;
        --stats->seeds_processed;  // this root's pattern was dropped
      }
      break;
    }
    // Distinct roots give distinct patterns (the root is a pattern's largest
    // id). A MaxMISO is convex by construction (it is closed under "all
    // consumers inside"), has one output, and only the input constraint can
    // fail.
    if (dfg.input_count(s) > c.max_inputs) {
      ++input_rejects;
      continue;
    }
    out.push_back(make_candidate(dfg, s, lib, block, exec_freq));
  }
  ISEX_COUNT_ADD("ise.miso.candidates", out.size());
  ISEX_COUNT_ADD("ise.miso.input_rejects", input_rejects);
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

/// One level of the growth DFS. Frames are preallocated per search depth, so
/// once their storage is warm a grow call allocates nothing.
struct GrowFrame {
  util::Bitset s;     // current subgraph: the members path[0..depth]
  util::Bitset anc;   // union of ancestors(v) over v in s
  util::Bitset desc;  // union of descendants(v) over v in s
  std::vector<int> frontier;  // sorted valid neighbours of s with id > seed
};

/// Growth enumeration state shared across the recursion.
struct GrowCtx {
  const ir::Dfg& dfg;
  const hw::CellLibrary& lib;
  const EnumOptions& opts;
  int block;
  double exec_freq;
  long budget;  // remaining grow-call allowance (max_candidates countdown)
  robust::MemCharge mem;  // the emitted candidates charged to opts.budget
  std::vector<Candidate> out = {};
  bool truncated = false;  // set once opts.budget stops the search
  // Search statistics, published to the obs registry once per enumeration.
  long grow_calls = 0;
  long rejects[4] = {};  // rejects[r]: grow calls with reject_reason() == r
  std::vector<GrowFrame> frames = {};
  std::vector<int> path = {};  // path[d]: the node frame d added to s
  util::Bitset excluded = {};  // u such that a frame on the path grew s+u
  std::vector<int> excluded_log = {};  // excluded's marks, undone per frame
  // reject_reason() scratch: mark[v] == epoch iff input v is counted.
  std::vector<std::uint64_t> mark = {};
  std::uint64_t epoch = 0;
  std::vector<int> nbrs = {};  // build_frontier() scratch
};

/// The legality test that rejects frames[depth].s, whose members are
/// path[0..depth], in is_legal()'s order: 1 inputs, 2 outputs, 3 convexity;
/// 0 when legal. Counting stops at the first port past its limit, and an
/// epoch stamp stands in for Dfg::input_count's node-sized seen set.
int reject_reason(GrowCtx& ctx, std::size_t depth) {
  const ir::Dfg& dfg = ctx.dfg;
  const Constraints& c = ctx.opts.constraints;
  const GrowFrame& f = ctx.frames[depth];
  const std::span<const int> members(ctx.path.data(), depth + 1);
  ++ctx.epoch;
  int inputs = 0;
  for (int v : members)
    for (std::int32_t o : dfg.operands_of(v)) {
      const auto oi = static_cast<std::size_t>(o);
      if (f.s.test(oi) || ctx.mark[oi] == ctx.epoch) continue;
      ctx.mark[oi] = ctx.epoch;
      if (!ir::is_free_input(dfg.node(o).op) && ++inputs > c.max_inputs)
        return 1;
    }
  int outputs = 0;
  for (int v : members) {
    if (!ir::produces_value(dfg.node(v).op)) continue;
    bool escapes = dfg.node(v).live_out;
    for (std::int32_t u : dfg.consumers_of(v))
      escapes = escapes || !f.s.test(static_cast<std::size_t>(u));
    if (escapes && ++outputs > c.max_outputs) return 2;
  }
  return dfg.is_convex_unions(f.s, f.anc, f.desc) ? 0 : 3;
}

/// Fills frames[depth].frontier, the sorted valid neighbours of s with
/// id > seed: the parent's frontier without path[depth], merged with
/// path[depth]'s own such neighbours.
void build_frontier(GrowCtx& ctx, std::size_t depth, int seed) {
  const ir::Dfg& dfg = ctx.dfg;
  GrowFrame& f = ctx.frames[depth];
  const int u = ctx.path[depth];
  ctx.nbrs.clear();
  for (auto adjacent : {dfg.operands_of(u), dfg.consumers_of(u)})
    for (std::int32_t v : adjacent)
      if (v > seed && !f.s.test(static_cast<std::size_t>(v)) &&
          dfg.valid_mask().test(static_cast<std::size_t>(v)) &&
          dfg.node(v).op != ir::Opcode::kConst)
        ctx.nbrs.push_back(v);
  std::sort(ctx.nbrs.begin(), ctx.nbrs.end());
  ctx.nbrs.erase(std::unique(ctx.nbrs.begin(), ctx.nbrs.end()),
                 ctx.nbrs.end());
  f.frontier.clear();
  std::span<const int> pf;  // frame 0 has no parent
  if (depth > 0) pf = ctx.frames[depth - 1].frontier;
  std::set_union(pf.begin(), pf.end(), ctx.nbrs.begin(), ctx.nbrs.end(),
                 std::back_inserter(f.frontier));
  std::erase(f.frontier, u);
}

/// Expands the subgraph in frames[depth] (connected, valid nodes only, all
/// ids >= seed) by every neighbour with id > seed; emits it if legal. The
/// frame carries the running ancestor/descendant unions, so the convexity
/// test is O(words) bitops instead of an O(V) full-graph rescan. Once child
/// s+u returns, u is excluded from its later siblings' subtrees: s+u's
/// subtree grew their supersets of s+u. So each subgraph is grown once, in
/// the order of a visited-set search (DESIGN.md, "Identification").
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
  const int r = depth == 0 ? -1 : reject_reason(ctx, depth);
  if (r > 0) ++ctx.rejects[r];
  if (r == 0) {
    if (ctx.mem.charge(subgraph_bytes(dfg))) {
      ctx.truncated = true;
      return;
    }
    ctx.out.push_back(
        make_candidate(dfg, f.s, ctx.lib, ctx.block, ctx.exec_freq));
  }
  if (depth + 1 >= static_cast<std::size_t>(ctx.opts.max_candidate_nodes))
    return;

  build_frontier(ctx, depth, seed);
  GrowFrame& child = ctx.frames[depth + 1];
  const std::size_t log_mark = ctx.excluded_log.size();
  for (int u : f.frontier) {
    if (ctx.truncated || ctx.budget <= 0) break;  // past the cap
    const auto ui = static_cast<std::size_t>(u);
    if (ctx.excluded.test(ui)) continue;
    ctx.path[depth + 1] = u;
    child.s = f.s;
    child.s.set(ui);
    child.anc = f.anc;
    child.desc = f.desc;
    dfg.reach_union_add(u, child.anc, child.desc);
    grow(ctx, depth + 1, seed);
    ctx.excluded.set(ui);
    ctx.excluded_log.push_back(u);
  }
  for (; ctx.excluded_log.size() > log_mark; ctx.excluded_log.pop_back())
    ctx.excluded.reset(static_cast<std::size_t>(ctx.excluded_log.back()));
}

/// Sizes ctx.frames for the deepest possible search node and seeds frame 0.
void init_frames(GrowCtx& ctx, int seed) {
  const auto depth_cap = static_cast<std::size_t>(
      std::max(2, ctx.opts.max_candidate_nodes) + 2);
  ctx.frames.resize(depth_cap);
  ctx.path.resize(depth_cap);
  ctx.mark.resize(static_cast<std::size_t>(ctx.dfg.num_nodes()));
  ctx.excluded = ctx.dfg.empty_set();
  GrowFrame& f0 = ctx.frames[0];
  f0.s = ctx.dfg.empty_set();
  f0.s.set(static_cast<std::size_t>(seed));
  f0.anc = ctx.dfg.ancestors(seed);
  f0.desc = ctx.dfg.descendants(seed);
  ctx.path[0] = seed;
}

/// Body of enumerate_connected() with budget progress reported via `stats`:
/// seeds in id order, the grow-call cap and opts.budget charged in the order
/// the search runs. Parallelism lives a layer up, across blocks
/// (select::selection_items) and tasks (workloads::prefetch_tasks).
std::vector<Candidate> enumerate_connected_impl(const ir::Dfg& dfg,
                                                const hw::CellLibrary& lib,
                                                const EnumOptions& opts,
                                                int block, double exec_freq,
                                                EnumStats* stats) {
  ISEX_SPAN_CAT("ise.enumerate_connected", "ise");
  GrowCtx ctx{dfg, lib, opts, block, exec_freq, opts.max_candidates,
              {opts.budget}};
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
  ISEX_COUNT("ise.enum.calls");
  ISEX_COUNT_ADD("ise.enum.candidates", ctx.out.size());
  ISEX_COUNT_ADD("ise.enum.grow_calls", ctx.grow_calls);
  ISEX_COUNT_ADD("ise.enum.input_rejects", ctx.rejects[1]);
  ISEX_COUNT_ADD("ise.enum.output_rejects", ctx.rejects[2]);
  ISEX_COUNT_ADD("ise.enum.convexity_rejects", ctx.rejects[3]);
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
