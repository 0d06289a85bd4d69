// Custom-instruction identification: enumeration of legal candidates.
//
// Two enumerators from the literature the thesis builds on:
//  - maximal_misos(): the linear-time maximal multiple-input single-output
//    pattern enumeration (Alippi et al. [82]) — grow upward from each node,
//    absorbing a predecessor only when all of its consumers are absorbed.
//  - enumerate_connected(): growth-based enumeration of *connected convex*
//    MIMO subgraphs under input/output constraints (the clustering family
//    [9,24]); exhaustive over connected convex shapes for small regions and
//    budget-capped for large ones. Seed-anchored growth (extensions have id >
//    seed; a finished branch's node is excluded from its later siblings'
//    subtrees) grows each subgraph once, so it emits no duplicates.
#pragma once

#include <vector>

#include "isex/ise/candidate.hpp"
#include "isex/robust/outcome.hpp"

namespace isex::ise {

struct EnumOptions {
  Constraints constraints;
  int max_candidate_nodes = 40;  // size cap per candidate
  long max_candidates = 200000;  // global work cap per basic block
  /// Cooperative execution budget (non-owning; nullptr = unlimited). The
  /// enumerators charge one unit per grow call / MISO root and account the
  /// memory of the candidates they emit. Exhaustion stops enumeration with
  /// the candidates found so far. The max_candidates/max_candidate_nodes
  /// caps above are quality knobs, not budget truncation: hitting them never
  /// changes the reported Status.
  robust::Budget* budget = nullptr;
};

/// All maximal MISO patterns of the block's DFG that satisfy the constraints.
std::vector<Candidate> maximal_misos(const ir::Dfg& dfg,
                                     const hw::CellLibrary& lib,
                                     const Constraints& c, int block = 0,
                                     double exec_freq = 1);

/// Connected convex MIMO candidates under the options' constraints.
std::vector<Candidate> enumerate_connected(const ir::Dfg& dfg,
                                           const hw::CellLibrary& lib,
                                           const EnumOptions& opts,
                                           int block = 0, double exec_freq = 1);

/// Union of both enumerators with duplicate node-sets removed; the standard
/// candidate library used by the selection stages.
std::vector<Candidate> enumerate_candidates(const ir::Dfg& dfg,
                                            const hw::CellLibrary& lib,
                                            const EnumOptions& opts,
                                            int block = 0,
                                            double exec_freq = 1);

/// Anytime variant of enumerate_candidates(): identical output and status
/// kExact when opts.budget never exhausts (or is null); on exhaustion the
/// value is the (individually legal) candidates found so far with status
/// kBudgetTruncated and optimality_gap = fraction of enumeration seeds not
/// yet processed — a coverage bound, not a gain bound.
robust::Outcome<std::vector<Candidate>> enumerate_candidates_bounded(
    const ir::Dfg& dfg, const hw::CellLibrary& lib, const EnumOptions& opts,
    int block = 0, double exec_freq = 1);

/// Disconnected candidates ([81, 23, 36]): pairs of node-disjoint connected
/// candidates whose union is still legal. The components share no edges, so
/// the CFU executes them in parallel — hardware latency is the maximum of
/// the two, software cost the sum — which raises the gain ceiling on a
/// single-issue base core that has no other instruction-level parallelism.
/// `connected` is an existing candidate library; pairs are built from its
/// top `max_seeds` entries by gain and capped at `max_pairs` outputs.
std::vector<Candidate> enumerate_disconnected(
    const ir::Dfg& dfg, const hw::CellLibrary& lib,
    const std::vector<Candidate>& connected, const Constraints& constraints,
    int max_seeds = 40, int max_pairs = 400);

}  // namespace isex::ise
