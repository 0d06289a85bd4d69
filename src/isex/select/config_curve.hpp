// Per-task custom-instruction configuration curves.
//
// A "configuration" config_{i,j} of task T_i in Chapter 3 is a selected set
// of custom instructions with its silicon area and the resulting task cycle
// count; config_{i,1} is the plain-software point (area 0). This module runs
// the full identification + selection pipeline over a task Program and
// extracts the area/cycles trade-off curve of Fig 3.1: enumerate candidates
// in the hottest blocks, thin them to a non-overlapping pool (each operation
// is covered by at most one custom instruction), merge isomorphic datapaths
// so identical instructions share silicon, and sweep an exact 0-1 knapsack
// over every area budget.
#pragma once

#include <cstdint>
#include <vector>

#include "isex/hw/cell_library.hpp"
#include "isex/ir/program.hpp"
#include "isex/ise/enumerate.hpp"
#include "isex/opt/knapsack.hpp"

namespace isex::select {

/// One processor configuration: CI silicon area vs task execution cycles.
struct Config {
  double area = 0;    // adder-equivalents
  double cycles = 0;  // task execution time in processor cycles
};

/// Undominated configurations in ascending area / strictly descending cycles.
struct ConfigCurve {
  std::vector<Config> points;

  double base_cycles() const { return points.front().cycles; }
  double max_area() const { return points.back().area; }
  double best_cycles() const { return points.back().cycles; }

  /// Cheapest achievable cycle count with CI area <= budget.
  double cycles_at(double area_budget) const;

  /// Largest area point with area <= budget (the configuration a budget buys).
  const Config& config_at(double area_budget) const;
};

struct CurveOptions {
  ise::EnumOptions enum_opts;
  double area_grid = 0.25;       // knapsack quantization (adder-equivalents)
  bool share_isomorphic = true;  // isomorphic CIs share one implementation
  int max_hot_blocks = 12;       // enumerate only in the hottest blocks
  int max_points = 64;           // curve thinning (0 = keep all breakpoints)
  /// Also build disconnected two-component candidates (CFU-internal
  /// parallelism on the single-issue base core); see
  /// ise::enumerate_disconnected.
  bool disconnected_pairs = false;
};

/// Thins an (overlapping) candidate list of one block to a disjoint pool,
/// greedily by total gain (ties: gain density).
std::vector<ise::Candidate> disjoint_pool(const ir::Dfg& dfg,
                                          std::vector<ise::Candidate> cands);

/// Builds the configuration curve for a task. `counts` gives per-block
/// execution counts — WCET-path counts for the real-time chapters, profiled
/// counts for the speedup studies. When `items_out` is non-null it receives
/// the selection_items() the curve was built from, so callers that also need
/// the task's Pareto items (certify, `isex pareto`) identify only once.
ConfigCurve build_config_curve(const ir::Program& prog,
                               const std::vector<std::int64_t>& counts,
                               const hw::CellLibrary& lib,
                               const CurveOptions& opts,
                               std::vector<opt::KnapsackItem>* items_out =
                                   nullptr);

/// The knapsack half of build_config_curve: sweeps an exact 0-1 knapsack
/// over every area budget (quantized to opts.area_grid) and thins the
/// breakpoints to opts.max_points. `base` is the software-only cycle count.
ConfigCurve curve_from_items(const std::vector<opt::KnapsackItem>& items,
                             double base, const CurveOptions& opts);

/// The additive (gain, area) items the curve is built from: the task's
/// custom-instruction library after per-block conflict thinning and optional
/// isomorphic merging. This is the candidate set the Chapter 4 Pareto
/// machinery consumes directly (each item is one delta_{i,j} / a_{i,j}).
std::vector<opt::KnapsackItem> selection_items(
    const ir::Program& prog, const std::vector<std::int64_t>& counts,
    const hw::CellLibrary& lib, const CurveOptions& opts);

/// Base (software-only) cycle count of the task under `counts`.
double base_cycles(const ir::Program& prog,
                   const std::vector<std::int64_t>& counts,
                   const hw::CellLibrary& lib);

}  // namespace isex::select
