// Fig 4.4: the exact and epsilon-approximate Pareto curves for
// (a) the workload-area space of g721decode and (b) the utilization-area
// space of task set 1, at eps = 0.69 and eps = 3.
//
// Paper shapes: the approximate curves hug the exact staircase from above
// within factor (1+eps); point counts shrink dramatically (Pe has ~97% fewer
// points than the exact curve even at small eps); larger eps -> coarser
// curve and wider gap.
#include <cstdio>

#include "isex/pareto/inter.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/util/table.hpp"
#include "isex/workloads/tasks.hpp"

using namespace isex;

namespace {

constexpr double kGrid = 0.05;

void load(const std::string& name, std::vector<pareto::Item>* items,
          double* base) {
  const auto& lib = hw::CellLibrary::standard_018um();
  auto prog = workloads::make_benchmark(name);
  const auto counts = prog.wcet_counts(ir::Program::sum_cost(
      [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
  const auto raw =
      select::build_config_curve(prog, counts, lib, select::CurveOptions{})
          .items;
  std::vector<std::pair<double, double>> ag;
  for (const auto& it : raw) ag.emplace_back(it.area, it.gain);
  *items = pareto::quantize_items(ag, kGrid);
  *base = select::base_cycles(prog, counts, lib);
}

void print_front(const char* label, const pareto::Front& f, int max_rows) {
  std::printf("%s (%zu points):\n", label, f.size());
  util::Table t({"cost(grid units)", "value"});
  const int step = std::max(1, static_cast<int>(f.size()) / max_rows);
  for (std::size_t i = 0; i < f.size(); i += static_cast<std::size_t>(step))
    t.row().cell(f[i].cost, 0).cell(f[i].value, 4);
  t.print();
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("=== Fig 4.4(a): workload-area fronts, g721decode ===\n\n");
  std::vector<pareto::Item> items;
  double base = 0;
  load("g721decode", &items, &base);
  const auto exact = pareto::exact_workload_front(items, base);
  print_front("exact", exact, 12);
  for (double eps : {0.69, 3.0}) {
    const auto approx = pareto::approx_workload_front(items, base, eps);
    char label[64];
    std::snprintf(label, sizeof label,
                  "eps=%.2f  (cover=%s, %.1f%% fewer points)", eps,
                  pareto::eps_covers(exact, approx, eps) ? "yes" : "NO",
                  100.0 * (1.0 - static_cast<double>(approx.size()) /
                                     static_cast<double>(exact.size())));
    print_front(label, approx, 12);
  }

  std::printf("=== Fig 4.4(b): utilization-area fronts, task set 1 ===\n\n");
  std::vector<pareto::TaskMenu> menus;
  for (const auto& name : workloads::ch4_tasksets()[0]) {
    std::vector<pareto::Item> ti;
    double tb = 0;
    load(name, &ti, &tb);
    menus.push_back(pareto::menu_from_front(
        pareto::exact_workload_front(ti, tb), tb * 6));
  }
  const auto exact_u = pareto::exact_utilization_front(menus);
  print_front("exact", exact_u, 12);
  for (double eps : {0.69, 3.0}) {
    const auto approx = pareto::approx_utilization_front(menus, eps);
    char label[64];
    std::snprintf(label, sizeof label,
                  "eps=%.2f  (cover=%s, %.1f%% fewer points)", eps,
                  pareto::eps_covers(exact_u, approx, eps) ? "yes" : "NO",
                  100.0 * (1.0 - static_cast<double>(approx.size()) /
                                     static_cast<double>(exact_u.size())));
    print_front(label, approx, 12);
  }
  return 0;
}
