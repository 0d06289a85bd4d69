#include "isex/customize/select_rms.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

#include "isex/obs/trace.hpp"
#include "isex/rt/schedulability.hpp"

namespace isex::customize {

namespace {

struct Search {
  const rt::TaskSet& ts;
  double area_budget;
  const RmsOptions& opts;

  std::vector<double> min_util_suffix;  // best possible utilization of tasks i..N-1
  std::vector<double> periods;
  std::vector<double> cycles;  // execution time of tasks 0..level-1 (chosen)
  std::vector<int> current;

  double best_util = std::numeric_limits<double>::infinity();
  std::vector<int> best_assignment;
  bool found = false;
  bool truncated = false;  // node cap or budget stopped the search
  long nodes = 0;
  long bound_pruned = 0;
  long area_pruned = 0;
  long sched_pruned = 0;
  long incumbent_updates = 0;

  Search(const rt::TaskSet& t, double budget, const RmsOptions& o)
      : ts(t), area_budget(budget), opts(o) {
    const auto n = ts.size();
    min_util_suffix.assign(n + 1, 0);
    for (std::size_t i = n; i-- > 0;)
      min_util_suffix[i] =
          min_util_suffix[i + 1] + ts.tasks[i].best_cycles() / ts.tasks[i].period;
    periods.reserve(n);
    for (const auto& task : ts.tasks) periods.push_back(task.period);
    cycles.assign(n, 0);
    current.assign(n, 0);
  }

  void run(std::size_t level, double util, double area) {
    if (truncated) return;
    if (opts.max_nodes >= 0 && nodes > opts.max_nodes) {
      truncated = true;
      return;
    }
    if (opts.budget != nullptr && opts.budget->charge()) {
      truncated = true;
      return;
    }
    ++nodes;
    if (level == ts.size()) {
      if (util < best_util) {
        best_util = util;
        best_assignment = current;
        found = true;
        ++incumbent_updates;
      }
      return;
    }
    if (opts.use_bound_pruning && util + min_util_suffix[level] >= best_util) {
      ++bound_pruned;
      return;
    }

    const rt::Task& t = ts.tasks[level];
    std::vector<std::size_t> order(t.configs.size());
    std::iota(order.begin(), order.end(), 0u);
    if (opts.fastest_first)
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return t.configs[a].cycles < t.configs[b].cycles;
      });

    for (std::size_t j : order) {
      const auto& cfg = t.configs[j];
      if (cfg.area > area + 1e-9) {  // area pruning
        ++area_pruned;
        continue;
      }
      cycles[level] = cfg.cycles;
      // Exact Theorem-1 check for this task only; the higher-priority tasks
      // were verified at shallower levels and cannot be disturbed.
      if (!rt::rms_task_schedulable(
              static_cast<int>(level),
              {cycles.begin(), cycles.begin() + static_cast<long>(level) + 1},
              {periods.begin(),
               periods.begin() + static_cast<long>(level) + 1})) {
        ++sched_pruned;
        continue;  // this and only this subtree is infeasible
      }
      current[level] = static_cast<int>(j);
      run(level + 1, util + cfg.cycles / t.period, area - cfg.area);
    }
  }
};

}  // namespace

RmsResult select_rms(const rt::TaskSet& ts, double area_budget,
                     const RmsOptions& opts) {
  ISEX_SPAN_CAT("customize.select_rms", "customize");
  Search s(ts, area_budget, opts);
  s.run(0, 0, area_budget);
  ISEX_COUNT("customize.rms.runs");
  ISEX_COUNT_ADD("customize.rms.nodes", s.nodes);
  ISEX_COUNT_ADD("customize.rms.bound_pruned", s.bound_pruned);
  ISEX_COUNT_ADD("customize.rms.area_pruned", s.area_pruned);
  ISEX_COUNT_ADD("customize.rms.sched_pruned", s.sched_pruned);
  ISEX_COUNT_ADD("customize.rms.incumbent_updates", s.incumbent_updates);

  RmsResult res;
  res.nodes_visited = s.nodes;
  res.found_feasible = s.found;
  res.completed = !s.truncated;
  if (s.found) {
    res.assignment = s.best_assignment;
    res.schedulable = true;
  } else {
    res.assignment.assign(ts.size(), 0);
    res.schedulable = false;
  }
  res.utilization = ts.utilization(res.assignment);
  res.area_used = ts.area(res.assignment);
  if (s.truncated) {
    res.status = robust::Status::kBudgetTruncated;
    // Lower bound: every task at its fastest configuration regardless of
    // area or schedulability — the root node's bound of the search.
    const double lb = s.min_util_suffix[0];
    res.optimality_gap =
        lb > 0 ? std::max(0.0, (res.utilization - lb) / lb) : 0.0;
    ISEX_COUNT("customize.rms.budget_truncations");
  }
  return res;
}

robust::Outcome<RmsResult> select_rms_bounded(const rt::TaskSet& ts,
                                              double area_budget,
                                              const RmsOptions& opts) {
  robust::Outcome<RmsResult> out;
  std::string err = ts.validate();
  if (err.empty())
    for (std::size_t i = 1; i < ts.size(); ++i)
      if (ts.tasks[i].period < ts.tasks[i - 1].period) {
        err = "tasks not sorted by increasing period (RMS priority order)";
        break;
      }
  if (!err.empty()) {
    out.status = robust::Status::kInfeasible;
    out.detail = err;
    if (opts.budget != nullptr) out.budget = opts.budget->report();
    return out;
  }
  out.value = select_rms(ts, area_budget, opts);
  out.status = out.value.status;
  out.optimality_gap = out.value.optimality_gap;
  if (out.value.completed && !out.value.found_feasible) {
    out.status = robust::Status::kInfeasible;
    out.detail =
        "no RMS-schedulable assignment within the area budget; value is the "
        "all-software assignment";
  }
  if (opts.budget != nullptr) out.budget = opts.budget->report();
  return out;
}

}  // namespace isex::customize
