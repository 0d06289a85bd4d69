// Independent witness checkers for custom-instruction legality.
//
// Re-validates what ise::enumerate / ise::single_cut / mlgp::generate and
// the curve builder's pools claim about their outputs — valid opcodes,
// input/output port limits, convexity, membership in the source DFG, and the
// hardware estimate the selection stages trust — from first principles. None
// of the Dfg subgraph queries or hw::estimate are called here: the checker
// walks raw operand/consumer lists and recomputes reachability, port counts,
// critical path and area with its own (deliberately naive, O(|S| * E)) code,
// so a bug in the shared fast paths cannot certify its own output.
#pragma once

#include <vector>

#include "isex/certify/report.hpp"
#include "isex/hw/cell_library.hpp"
#include "isex/ir/dfg.hpp"
#include "isex/ir/program.hpp"
#include "isex/ise/candidate.hpp"

namespace isex::certify {

/// Re-checks one candidate: node ids in range, every op CI-valid, input /
/// output counts honest and within the constraints, the set convex, and the
/// hardware estimate (area, sw/hw cycles, gain) consistent with the cell
/// library. `expected_block` >= 0 additionally pins the owning block index.
CertifyReport check_candidate(const ir::Dfg& dfg, const hw::CellLibrary& lib,
                              const ise::Constraints& c,
                              const ise::Candidate& cand,
                              int expected_block = -1);

/// Re-checks an enumerated candidate pool: every candidate legal and every
/// node set unique (the enumerators deduplicate).
CertifyReport check_candidate_pool(const ir::Dfg& dfg,
                                   const hw::CellLibrary& lib,
                                   const ise::Constraints& c,
                                   const std::vector<ise::Candidate>& pool);

/// Witness for partition-style generators (mlgp::generate): every part is a
/// legal candidate, parts are pairwise node-disjoint, and each part lies
/// inside `region` (coverage of the region is not promised by the producer —
/// single-node and zero-gain parts are dropped — so only containment is
/// certified).
CertifyReport check_partition(const ir::Dfg& dfg, const hw::CellLibrary& lib,
                              const ise::Constraints& c,
                              const util::Bitset& region,
                              const std::vector<ise::Candidate>& parts);

/// Witness for the pool a configuration curve was built from
/// (select::CurveBuild::pool): each candidate names a block of `prog`, and
/// each block's candidates pass check_partition over the whole block.
CertifyReport check_curve_pool(const ir::Program& prog,
                               const hw::CellLibrary& lib,
                               const ise::Constraints& c,
                               const std::vector<ise::Candidate>& pool);

}  // namespace isex::certify
