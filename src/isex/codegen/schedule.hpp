// Code generation: lowering a basic block with selected custom instructions
// into a linear instruction schedule (the final stage of the Fig 1.2 design
// flow).
//
// Every selected custom instruction executes atomically, so its nodes must
// be contiguous in the schedule. Contracting each CI into a supernode and
// topologically sorting the contracted graph yields such a schedule exactly
// when every CI is convex — a non-convex CI creates a cycle among
// supernodes, which lower() reports. The scheduled program exposes the code
// size reduction (packing many primitives into one instruction shrinks the
// fetch/decode stream) and can be executed against ir::evaluate for
// functional verification.
#pragma once

#include <vector>

#include "isex/ir/dfg.hpp"
#include "isex/ir/eval.hpp"
#include "isex/util/bitset.hpp"

namespace isex::codegen {

struct Instruction {
  bool custom = false;
  std::vector<ir::NodeId> nodes;  // one node, or a CI's nodes in topo order
};

struct ScheduledBlock {
  std::vector<Instruction> code;

  /// Instructions in the stream (each CI counts once).
  std::size_t length() const { return code.size(); }
};

/// Lowers the block: each CI in `cis` (disjoint node sets) becomes one
/// atomic instruction, remaining operations stay primitive (kInput/kConst
/// leaves produce no instruction). Throws std::invalid_argument if a CI is
/// non-convex (unschedulable) or the CIs overlap.
ScheduledBlock lower(const ir::Dfg& dfg,
                     const std::vector<util::Bitset>& cis);

/// Executes the schedule (each instruction's nodes atomically, in order)
/// and returns per-node values; must equal ir::evaluate on every value node.
std::vector<std::int64_t> execute(const ir::Dfg& dfg,
                                  const ScheduledBlock& block,
                                  const std::vector<std::int64_t>& inputs);

/// Buffers jointly_schedulable() works in. A caller that tests many CI sets
/// keeps one, and once it is warm a test allocates nothing.
struct ScheduleScratch {
  std::vector<int> super;     // supernode of each node, -1 for leaves
  std::vector<int> loose;     // the node of each loose-op supernode
  std::vector<int> indegree;  // unreleased in-edges of each supernode
  std::vector<int> order;     // supernodes released so far, in order
};

/// True iff the (disjoint, individually convex) CIs admit a joint atomic
/// schedule. Pairwise convexity is NOT sufficient: two convex CIs with
/// interleaved dependencies form a cycle in the contracted graph — the
/// "unschedulable code" hazard Section 2.3.2 of the thesis warns about.
bool jointly_schedulable(const ir::Dfg& dfg,
                         const std::vector<util::Bitset>& cis,
                         ScheduleScratch& scratch);
bool jointly_schedulable(const ir::Dfg& dfg,
                         const std::vector<util::Bitset>& cis);

/// Greedily keeps a jointly schedulable subset of the candidates, scanning
/// in the given order (put the highest-gain candidates first). Returns the
/// indices of the kept candidates.
std::vector<std::size_t> schedulable_subset(
    const ir::Dfg& dfg, const std::vector<util::Bitset>& cis);

}  // namespace isex::codegen
