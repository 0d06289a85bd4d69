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

/// Knapsack quantization of every configuration curve (adder-equivalents).
inline constexpr double kAreaGrid = 0.25;
/// Identification runs only in a program's hottest blocks, by cycle share.
inline constexpr int kMaxHotBlocks = 12;

struct CurveOptions {
  ise::EnumOptions enum_opts;
  bool share_isomorphic = true;  // isomorphic CIs share one implementation
  int max_points = 64;           // curve thinning (0 = keep all breakpoints)
  /// Also build disconnected two-component candidates (CFU-internal
  /// parallelism on the single-issue base core); see
  /// ise::enumerate_disconnected.
  bool disconnected_pairs = false;
};

/// Identification policy of the benchmark tasks (workloads::cached_task) and
/// of `isex lift`: 60000 grow calls and 24-node candidates per block, or
/// 20000 / 16 when the program has a block over 600 nodes (3des); the curve
/// quality saturates long before these caps.
CurveOptions task_curve_options(const ir::Program& prog);

/// Identification policy of serve's inline DFGs (at most 256 ops): 20000
/// grow calls and 40-node candidates. Serve keeps its own because the task
/// policy's larger grow-call cap makes identification of its traffic slower.
CurveOptions inline_dfg_curve_options();

/// Thins an (overlapping) candidate list of one block to a disjoint pool,
/// greedily by total gain (ties: gain density).
std::vector<ise::Candidate> disjoint_pool(const ir::Dfg& dfg,
                                          std::vector<ise::Candidate> cands);

/// A configuration curve with the candidates it was built from.
struct CurveBuild {
  ConfigCurve curve;
  /// Each hot block's disjoint pool (disjoint_pool), concatenated in hot
  /// order; Candidate::block names the block. What certify checks.
  std::vector<ise::Candidate> pool;
  /// The additive (gain, area) knapsack items: `pool` after optional
  /// isomorphic merging. The Chapter 4 Pareto machinery consumes them
  /// directly (each item is one delta_{i,j} / a_{i,j}).
  std::vector<opt::KnapsackItem> items;
};

/// Builds the configuration curve for a task: identification in the hottest
/// blocks, per-block thinning, isomorphic merging, then curve_from_items.
/// `counts` gives per-block execution counts — WCET-path counts for the
/// real-time chapters, profiled counts for the speedup studies.
CurveBuild build_config_curve(const ir::Program& prog,
                              const std::vector<std::int64_t>& counts,
                              const hw::CellLibrary& lib,
                              const CurveOptions& opts);

/// The knapsack half of build_config_curve: sweeps an exact 0-1 knapsack
/// over every area budget (quantized to kAreaGrid) and thins the
/// breakpoints to opts.max_points. `base` is the software-only cycle count.
ConfigCurve curve_from_items(const std::vector<opt::KnapsackItem>& items,
                             double base, const CurveOptions& opts);

/// Base (software-only) cycle count of the task under `counts`.
double base_cycles(const ir::Program& prog,
                   const std::vector<std::int64_t>& counts,
                   const hw::CellLibrary& lib);

}  // namespace isex::select
