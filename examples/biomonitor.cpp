// Chapter 8 scenario: the wearable bio-monitoring platform. Runs the
// fixed-point beat detector on a synthetic ECG (numeric ground truth), then
// sizes a processor customization for the three monitoring kernels under a
// shared silicon budget with isomorphic sharing.
//
//   $ ./example_biomonitor
#include <cmath>
#include <cstdio>
#include <vector>

#include "isex/biomon/biomon.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/util/table.hpp"

using namespace isex;

int main() {
  // Synthetic ECG: 8 beats over ~4 seconds at 128 Hz with baseline wander.
  std::vector<double> ecg;
  for (int beat = 0; beat < 8; ++beat) {
    for (int i = 0; i < 62; ++i)
      ecg.push_back(0.05 + 0.02 * std::sin(0.1 * static_cast<double>(i)));
    ecg.push_back(0.9);
    ecg.push_back(-0.4);
  }
  std::printf("fixed-point beat detector: %d beats in %zu samples "
              "(expected 8)\n\n",
              biomon::detect_beats_fixed(ecg, 0.05), ecg.size());

  const auto& lib = hw::CellLibrary::standard_018um();
  util::Table t({"kernel", "SW cycles/frame", "best cycles", "speedup",
                 "CI area"});
  double total_area = 0;
  for (auto& prog : biomon::all_biomon_kernels()) {
    const auto counts = prog.wcet_counts(ir::Program::sum_cost(
        [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
    const auto curve =
        select::build_config_curve(prog, counts, lib, select::CurveOptions{})
            .curve;
    // Spend half of each kernel's saturation area.
    const auto& cfg = curve.config_at(0.5 * curve.max_area());
    total_area += cfg.area;
    t.row()
        .cell(prog.name())
        .cell(curve.base_cycles(), 0)
        .cell(cfg.cycles, 0)
        .cell(curve.base_cycles() / cfg.cycles, 2)
        .cell(cfg.area, 1);
  }
  t.print();
  std::printf("\ntotal custom-instruction area: %.1f adder-equivalents\n",
              total_area);
  return 0;
}
