// Custom-instruction selection under RMS via branch-and-bound (Algorithm 2).
//
// RMS has no utilization-only exact test, so minimizing U alone can produce
// an infeasible schedule; the search must check Theorem 1 level by level.
// Levels of the search tree follow decreasing priority (increasing period):
// a lower-priority task can never disturb the already-verified higher-
// priority ones, so only task T_i's own L_i needs checking at level i.
// Pruning: (a) lower bound = chosen utilizations + best-possible utilization
// of all remaining tasks, against the incumbent; (b) area-infeasible
// configurations; (c) configurations are tried fastest-first so a good
// incumbent appears early.
//
// The search is one serial depth-first walk, so its answer, node count and
// pruning counters depend only on the input, never on the thread count. The
// answer is the leftmost (DFS-order) minimum: until the first optimal leaf
// is reached the incumbent lies strictly above the optimum, so the
// non-strict bound prune (>=) cannot cut the path to it. That holds for any
// admissible lower bound.
#pragma once

#include "isex/customize/select_edf.hpp"

namespace isex::customize {

struct RmsOptions {
  /// Ablation switches (DESIGN.md: pruning-component study).
  bool use_bound_pruning = true;
  bool fastest_first = true;
  long max_nodes = -1;  // search-node cap; <0 = unlimited
  /// Cooperative execution budget (non-owning; nullptr = unlimited), charged
  /// once per search node. Exhaustion keeps the best incumbent found so far.
  robust::Budget* budget = nullptr;
};

struct RmsResult : SelectionResult {
  long nodes_visited = 0;
  bool found_feasible = false;  // some assignment met all deadlines
  /// True when the search ran to completion (no node cap or budget cut it
  /// short) — i.e. `found_feasible == false` proves infeasibility.
  bool completed = true;
};

/// Requires ts sorted by increasing period (rate-monotonic priority).
/// Minimizes utilization over all RMS-schedulable assignments within the
/// area budget; if none is schedulable, returns the all-software assignment
/// with schedulable=false. With a budget the result is anytime: status
/// kBudgetTruncated keeps the best RMS-schedulable incumbent found.
RmsResult select_rms(const rt::TaskSet& ts, double area_budget,
                     const RmsOptions& opts = {});

/// Anytime wrapper: validates the task set (degenerate inputs become
/// kInfeasible instead of a throw/crash); a completed search with no
/// feasible assignment is also kInfeasible (value = all-software).
robust::Outcome<RmsResult> select_rms_bounded(const rt::TaskSet& ts,
                                              double area_budget,
                                              const RmsOptions& opts = {});

}  // namespace isex::customize
