#include "isex/workloads/tasks.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>

#include "isex/hw/cell_library.hpp"
#include "isex/obs/trace.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/util/task_pool.hpp"

namespace isex::workloads {

namespace {

/// One memo entry: the task and the pool and knapsack items its curve came
/// from.
struct TaskEntry {
  rt::Task task;
  std::vector<ise::Candidate> pool;
  std::vector<opt::KnapsackItem> items;
};

TaskEntry build_task(const std::string& benchmark) {
  ISEX_SPAN_CAT("workloads.build_task." + benchmark, "workloads");
  ISEX_COUNT("workloads.tasks_built");
  const auto& lib = hw::CellLibrary::standard_018um();
  ir::Program prog = make_benchmark(benchmark);
  const auto cost = ir::Program::sum_cost(
      [&lib](const ir::Node& n) { return lib.sw_cycles(n); });
  const auto counts = prog.wcet_counts(cost);
  select::CurveBuild build = select::build_config_curve(
      prog, counts, lib, select::task_curve_options(prog));
  TaskEntry e;
  e.task.name = benchmark;
  e.task.configs = std::move(build.curve.points);
  e.pool = std::move(build.pool);
  e.items = std::move(build.items);
  return e;
}

struct TaskCache {
  std::mutex mu;
  std::map<std::string, TaskEntry> map;  // node-stable: refs survive inserts
};

TaskCache& task_cache() {
  static TaskCache c;
  return c;
}

const TaskEntry& cached_entry(const std::string& benchmark) {
  TaskCache& c = task_cache();
  std::scoped_lock lock(c.mu);
  auto it = c.map.find(benchmark);
  if (it == c.map.end())
    it = c.map.emplace(benchmark, build_task(benchmark)).first;
  return it->second;
}

}  // namespace

const rt::Task& cached_task(const std::string& benchmark) {
  return cached_entry(benchmark).task;
}

const std::vector<opt::KnapsackItem>& cached_items(
    const std::string& benchmark) {
  return cached_entry(benchmark).items;
}

const std::vector<ise::Candidate>& cached_pool(const std::string& benchmark) {
  return cached_entry(benchmark).pool;
}

void prefetch_tasks(const std::vector<std::string>& names) {
  TaskCache& c = task_cache();
  std::vector<std::string> missing;
  {
    std::scoped_lock lock(c.mu);
    for (const auto& n : names)
      if (!n.empty() && !c.map.contains(n) &&
          std::find(missing.begin(), missing.end(), n) == missing.end())
        missing.push_back(n);
  }
  // cached_task serializes builds under the cache lock; with several cold
  // kernels and threads available, build them outside the lock concurrently
  // (a task's content is independent of build order) and publish at the end.
  // This is the library's one parallel region: each build runs serially.
  if (missing.size() <= 1 || util::max_threads() <= 1) return;
  std::vector<TaskEntry> built(missing.size());
  util::parallel_for(missing.size(),
                     [&](std::size_t i) { built[i] = build_task(missing[i]); });
  std::scoped_lock lock(c.mu);
  for (std::size_t i = 0; i < missing.size(); ++i)
    c.map.emplace(std::move(missing[i]), std::move(built[i]));
}

rt::TaskSet make_taskset(const std::vector<std::string>& names,
                         double utilization) {
  prefetch_tasks(names);
  if (names.empty())
    throw std::invalid_argument("make_taskset: empty benchmark list");
  if (!(utilization > 0) || !std::isfinite(utilization))
    throw std::invalid_argument(
        "make_taskset: utilization must be positive and finite (got " +
        std::to_string(utilization) + ")");
  rt::TaskSet ts;
  for (const auto& n : names) {
    if (n.empty())
      throw std::invalid_argument("make_taskset: empty benchmark name");
    ts.tasks.push_back(cached_task(n));
  }
  ts.set_periods_for_utilization(utilization);
  if (const std::string err = ts.validate(); !err.empty())
    throw std::logic_error("make_taskset: built an invalid task set: " + err);
  return ts;
}

const std::vector<std::vector<std::string>>& ch3_tasksets() {
  static const std::vector<std::vector<std::string>> sets = {
      {"crc32", "sha", "djpeg", "blowfish"},
      {"blowfish", "adpcm_dec", "crc32", "cjpeg"},
      {"adpcm_enc", "blowfish", "djpeg", "crc32"},
      {"sha", "susan", "crc32", "g721encode"},
      {"adpcm_dec", "djpeg", "crc32", "blowfish"},
      {"crc32", "sha", "blowfish", "susan"},
  };
  return sets;
}

const std::vector<std::vector<std::string>>& ch4_tasksets() {
  static const std::vector<std::vector<std::string>> sets = {
      {"cjpeg", "adpcm_enc", "aes", "compress", "rijndael", "ispell"},
      {"djpeg", "g721decode", "cjpeg", "ispell", "adpcm_enc", "jfdctint",
       "aes"},
      {"cjpeg", "ispell", "edn", "sha", "g721decode", "djpeg", "compress",
       "ndes"},
      {"adpcm_enc", "rijndael", "cjpeg", "ispell", "sha", "ndes", "djpeg",
       "compress", "edn"},
      {"aes", "djpeg", "g721decode", "rijndael", "jfdctint", "cjpeg", "edn",
       "ispell", "sha", "ndes"},
  };
  return sets;
}

const std::vector<std::vector<std::string>>& ch5_tasksets() {
  static const std::vector<std::vector<std::string>> sets = {
      {"3des", "rijndael", "sha", "g721decode"},
      {"sha", "jfdctint", "rijndael", "ndes"},
      {"ndes", "g721decode", "rijndael", "sha"},
      {"aes", "3des", "adpcm_enc", "jfdctint"},
      {"adpcm_enc", "jfdctint", "rijndael", "sha"},
  };
  return sets;
}

}  // namespace isex::workloads
