// Independent witness checkers for Pareto fronts.
//
// pareto::undominated / the intra- and inter-stage DPs return staircase
// fronts; the FPTAS additionally promises an epsilon-cover of the exact
// front. Both properties are re-checked here with plain nested loops that
// share no code with pareto/front.cpp (same numeric tolerances, different
// implementation), so a sorting or pruning bug cannot certify itself.
#pragma once

#include <vector>

#include "isex/certify/report.hpp"
#include "isex/pareto/front.hpp"
#include "isex/select/config_curve.hpp"

namespace isex::certify {

/// Re-checks staircase form: every coordinate finite and non-negative, cost
/// strictly ascending, value strictly descending, and — independently of the
/// ordering — no point dominated by any other (naive O(n^2) pairwise scan).
/// `what` labels the front in violation messages (e.g. "exact", "approx").
CertifyReport check_front(const pareto::Front& f, const std::string& what);

/// Re-checks the Papadimitriou-Yannakakis guarantee: every exact point has
/// an approx point within factor (1+eps) in both coordinates.
CertifyReport check_eps_cover(const pareto::Front& exact,
                              const pareto::Front& approx, double eps);

/// Re-checks that a task's configuration curve lies on the exact front over
/// the same knapsack items: every point (area, cycles) sits on the area grid,
/// and at cost c = round(area / grid) the front's staircase value equals
/// `cycles` (1e-9 relative) and is first reached there, i.e. the point is a
/// front vertex. This pits the curve builder's knapsack
/// (opt::knapsack_profile) against the independent Pareto DP.
CertifyReport check_curve_on_front(const std::vector<select::Config>& curve,
                                   const pareto::Front& exact, double grid,
                                   const std::string& what);

}  // namespace isex::certify
