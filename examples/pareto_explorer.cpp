// Chapter 4 scenario: explore the workload-area and utilization-area design
// spaces, comparing the exact Pareto front against epsilon-approximate
// fronts at several accuracy settings.
//
//   $ ./example_pareto_explorer
#include <cstdio>

#include "isex/pareto/inter.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/util/stopwatch.hpp"
#include "isex/workloads/tasks.hpp"

using namespace isex;

namespace {

pareto::Front task_items_front(const std::string& name, double grid,
                               std::vector<pareto::Item>* items_out,
                               double* base_out) {
  const auto& lib = hw::CellLibrary::standard_018um();
  auto prog = workloads::make_benchmark(name);
  const auto counts = prog.wcet_counts(ir::Program::sum_cost(
      [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
  select::CurveOptions opts;
  const auto raw =
      select::build_config_curve(prog, counts, lib, opts).items;
  std::vector<std::pair<double, double>> ag;
  for (const auto& it : raw) ag.emplace_back(it.area, it.gain);
  const auto items = pareto::quantize_items(ag, grid);
  const double base = select::base_cycles(prog, counts, lib);
  if (items_out) *items_out = items;
  if (base_out) *base_out = base;
  return pareto::exact_workload_front(items, base);
}

}  // namespace

int main() {
  // Intra-task: g721 decode, as in Fig 4.4(a).
  std::vector<pareto::Item> items;
  double base = 0;
  util::Stopwatch sw;
  const auto exact = task_items_front("g721decode", 0.25, &items, &base);
  const double t_exact = sw.seconds();
  std::printf("g721decode: %zu candidates, base workload %.3g cycles\n",
              items.size(), base);
  std::printf("exact workload-area front: %zu points in %.3f s\n",
              exact.size(), t_exact);

  for (double eps : {0.21, 0.44, 0.69, 3.0}) {
    sw.restart();
    const auto approx = pareto::approx_workload_front(items, base, eps);
    const double t = sw.seconds();
    std::printf(
        "  eps=%.2f: %4zu points (%.1f%% of exact) in %.4f s, "
        "cover=%s, speedup %.0fx\n",
        eps, approx.size(), 100.0 * approx.size() / exact.size(), t,
        pareto::eps_covers(exact, approx, eps) ? "yes" : "NO",
        t > 0 ? t_exact / t : 0.0);
  }

  // Inter-task: a 6-task set.
  std::vector<pareto::TaskMenu> menus;
  for (const auto& name : workloads::ch4_tasksets()[0]) {
    std::vector<pareto::Item> task_items;
    double task_base = 0;
    const auto front = task_items_front(name, 0.25, &task_items, &task_base);
    const double period = task_base * 4;  // ~25% software utilization each
    menus.push_back(pareto::menu_from_front(front, period));
  }
  sw.restart();
  const auto exact_u = pareto::exact_utilization_front(menus);
  const double t_exact_u = sw.seconds();
  std::printf("\ntask set 1 (%zu tasks): exact utilization-area front "
              "%zu points in %.2f s\n",
              menus.size(), exact_u.size(), t_exact_u);
  for (double eps : {0.44, 3.0}) {
    sw.restart();
    const auto approx = pareto::approx_utilization_front(menus, eps);
    std::printf("  eps=%.2f: %4zu points in %.4f s (speedup %.0fx)\n", eps,
                approx.size(), sw.seconds(),
                sw.seconds() > 0 ? t_exact_u / sw.seconds() : 0.0);
  }
  return 0;
}
