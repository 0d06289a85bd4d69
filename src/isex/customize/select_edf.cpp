#include "isex/customize/select_edf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "isex/obs/trace.hpp"
#include "isex/rt/schedulability.hpp"

namespace isex::customize {

namespace {

/// Area-unconstrained utilization lower bound: every task at its fastest
/// configuration. The denominator of the truncated-run optimality gap.
double utilization_lower_bound(const rt::TaskSet& ts) {
  double lb = 0;
  for (const rt::Task& t : ts.tasks) {
    double best = std::numeric_limits<double>::infinity();
    for (const select::Config& c : t.configs) best = std::min(best, c.cycles);
    if (std::isfinite(best)) lb += best / t.period;
  }
  return lb;
}

}  // namespace

SelectionResult select_edf(const rt::TaskSet& ts, double area_budget,
                           const EdfOptions& opts) {
  ISEX_SPAN_CAT("customize.select_edf", "customize");
  const auto n = ts.size();
  const double grid = opts.area_grid;
  // Quantize areas up so budgets are never exceeded. Kept in double: an
  // area from a request may lie far beyond what an int cell index holds.
  const auto weight = [grid](const select::Config& c) {
    return std::ceil(c.area / grid - 1e-9);
  };
  // Past the sum of the per-task largest weights every assignment fits, so
  // capping the table width there leaves the optimum and the backtracked
  // assignment unchanged.
  double reach = 0;
  for (const rt::Task& t : ts.tasks) {
    double w = 0;
    for (const select::Config& c : t.configs) w = std::max(w, weight(c));
    reach += w;
  }
  const double cells_d =
      std::min(std::floor(area_budget / grid + 1e-9), reach);
  const double bytes_d = static_cast<double>(n) * (cells_d + 1) *
                         static_cast<double>(sizeof(double) + sizeof(int));
  const bool representable =
      cells_d >= 0 && cells_d < std::numeric_limits<int>::max() &&
      bytes_d < static_cast<double>(std::numeric_limits<std::size_t>::max());
  const int cells = representable ? static_cast<int>(cells_d) : 0;
  const auto width = static_cast<std::size_t>(cells) + 1;
  long config_scans = 0, area_skips = 0;
  robust::Budget* budget = opts.budget;
  const std::size_t table_bytes = n * width * (sizeof(double) + sizeof(int));
  bool truncated = false;
  std::size_t rows_done = 0;

  SelectionResult res;
  res.assignment.assign(n, 0);

  robust::MemCharge table_mem{budget};
  if (!representable || table_mem.charge(table_bytes)) {
    // The DP table cannot be sized or does not fit the memory budget: fall
    // back to the baseline assignment (configuration 0 per task) without
    // allocating.
    truncated = true;
  } else {
    // u[i*width + a]: min utilization of tasks 0..i with quantized budget a.
    // choice[.]: configuration index realizing it.
    std::vector<double> u(n * width, std::numeric_limits<double>::infinity());
    std::vector<int> choice(n * width, 0);

    for (std::size_t i = 0; i < n && !truncated; ++i) {
      const rt::Task& t = ts.tasks[i];
      for (int a = 0; a <= cells; ++a) {
        if (budget != nullptr && budget->charge()) {
          truncated = true;
          break;
        }
        double best = std::numeric_limits<double>::infinity();
        int best_j = 0;
        for (std::size_t j = 0; j < t.configs.size(); ++j) {
          ++config_scans;
          const double w = weight(t.configs[j]);
          if (w > a) {
            ++area_skips;
            continue;
          }
          const double below =
              i == 0 ? 0.0
                     : u[(i - 1) * width +
                         static_cast<std::size_t>(a - static_cast<int>(w))];
          const double cand = t.configs[j].cycles / t.period + below;
          if (cand < best) {
            best = cand;
            best_j = static_cast<int>(j);
          }
        }
        u[i * width + static_cast<std::size_t>(a)] = best;
        choice[i * width + static_cast<std::size_t>(a)] = best_j;
      }
      if (!truncated) rows_done = i + 1;
    }

    // Backtrack through the completed rows; any remaining task keeps its
    // baseline configuration 0 (zero area), so the assignment stays within
    // the area budget even when truncated.
    int a = cells;
    for (std::size_t i = rows_done; i-- > 0;) {
      const int j = choice[i * width + static_cast<std::size_t>(a)];
      res.assignment[i] = j;
      a -= static_cast<int>(
          weight(ts.tasks[i].configs[static_cast<std::size_t>(j)]));
    }
  }

  res.utilization = ts.utilization(res.assignment);
  res.area_used = ts.area(res.assignment);
  res.schedulable = rt::edf_schedulable(res.utilization);
  if (truncated) {
    res.status = robust::Status::kBudgetTruncated;
    const double lb = utilization_lower_bound(ts);
    res.optimality_gap =
        lb > 0 ? std::max(0.0, (res.utilization - lb) / lb) : 0.0;
    ISEX_COUNT("customize.edf.budget_truncations");
  }
  ISEX_COUNT("customize.edf.runs");
  ISEX_COUNT_ADD("customize.edf.dp_cells", n * width);
  ISEX_COUNT_ADD("customize.edf.config_scans", config_scans);
  ISEX_COUNT_ADD("customize.edf.area_skips", area_skips);
  ISEX_HIST("customize.edf.dp_width", width);
  return res;
}

robust::Outcome<SelectionResult> select_edf_bounded(const rt::TaskSet& ts,
                                                    double area_budget,
                                                    const EdfOptions& opts) {
  robust::Outcome<SelectionResult> out;
  if (std::string err = ts.validate(); !err.empty()) {
    out.status = robust::Status::kInfeasible;
    out.detail = err;
    if (opts.budget != nullptr) out.budget = opts.budget->report();
    return out;
  }
  out.value = select_edf(ts, area_budget, opts);
  out.status = out.value.status;
  out.optimality_gap = out.value.optimality_gap;
  if (opts.budget != nullptr) out.budget = opts.budget->report();
  return out;
}

}  // namespace isex::customize
