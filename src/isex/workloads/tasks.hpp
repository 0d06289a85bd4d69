// Task-set construction: benchmark kernels -> configuration curves -> the
// multi-task workloads of Tables 3.1, 4.1 and 5.2.
#pragma once

#include <string>
#include <vector>

#include "isex/rt/task.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/workloads/workloads.hpp"

namespace isex::workloads {

/// Runs the full identification + selection pipeline on a benchmark under
/// select::task_curve_options and returns it as a periodic task (period
/// unset; callers use TaskSet::set_periods_for_utilization). Results are
/// memoized per benchmark — curve construction enumerates thousands of
/// candidates — and each benchmark is identified once per process.
const rt::Task& cached_task(const std::string& benchmark);

/// The (area, gain) knapsack items cached_task(benchmark)'s curve was built
/// from: the custom-instruction library after disjoint-pool thinning and
/// isomorphic merging (select::CurveBuild::items). Shares the task memo, so
/// the Pareto fronts of `isex pareto` / `isex certify` are over exactly the
/// items the solver's curve came from, with no second identification.
const std::vector<opt::KnapsackItem>& cached_items(const std::string& benchmark);

/// The disjoint per-block candidate pool cached_items(benchmark) was merged
/// from (select::CurveBuild::pool): what `isex certify` checks.
const std::vector<ise::Candidate>& cached_pool(const std::string& benchmark);

/// Builds every not-yet-cached benchmark in `names` concurrently (tasks are
/// independent, so build order does not affect content) and publishes them
/// to the cache. Serial no-op with one thread or at most one cold name.
void prefetch_tasks(const std::vector<std::string>& names);

/// Composes a task set from benchmark names at the given software-only
/// utilization.
rt::TaskSet make_taskset(const std::vector<std::string>& names,
                         double utilization);

/// Table 3.1: the six 4-task sets of the Chapter 3 experiments.
const std::vector<std::vector<std::string>>& ch3_tasksets();

/// Table 4.1: the five 6-10-task sets of the Chapter 4 experiments.
const std::vector<std::vector<std::string>>& ch4_tasksets();

/// Table 5.2: the five 4-task sets of the Chapter 5 experiments.
const std::vector<std::vector<std::string>>& ch5_tasksets();

}  // namespace isex::workloads
