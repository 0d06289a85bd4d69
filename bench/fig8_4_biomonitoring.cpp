// Fig 8.4: performance speedup with customization for the wearable
// bio-monitoring applications (heart-rate monitoring, pulse-transit-time,
// fall detection).
//
// Paper shapes: all three fixed-point kernels customize well (their inner
// loops are MAC/compare chains); speedups in the low single digits, with
// the FIR/energy-dominated heart-rate pipeline benefiting most.
#include <cstdio>

#include "isex/biomon/biomon.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/util/table.hpp"

using namespace isex;

int main() {
  const auto& lib = hw::CellLibrary::standard_018um();
  std::printf("=== Fig 8.4: bio-monitoring speedup with customization ===\n\n");
  util::Table t({"application", "SW cycles", "area budget", "cycles",
                 "speedup"});
  for (auto& prog : biomon::all_biomon_kernels()) {
    const auto counts = prog.wcet_counts(ir::Program::sum_cost(
        [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
    const auto curve =
        select::build_config_curve(prog, counts, lib, select::CurveOptions{})
            .curve;
    const double base = curve.base_cycles();
    for (double frac : {0.25, 0.5, 1.0}) {
      const double budget = frac * curve.max_area();
      const double cycles = curve.cycles_at(budget);
      t.row()
          .cell(prog.name())
          .cell(base, 0)
          .cell(budget, 1)
          .cell(cycles, 0)
          .cell(base / cycles, 3);
    }
  }
  t.print();
  std::printf("\npaper: speedups of roughly 2-4x across the bio-monitoring "
              "kernels after fixed-point conversion\n");
  return 0;
}
