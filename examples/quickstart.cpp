// Quickstart: the core identification -> selection pipeline on a hand-built
// basic block.
//
// Builds the data-flow graph of a small filter kernel, enumerates legal
// custom-instruction candidates under the 4-input / 2-output constraint,
// selects the best set under an area budget, and prints the resulting
// processor configuration.
//
//   $ ./example_quickstart
#include <cstdio>

#include "isex/hw/cell_library.hpp"
#include "isex/ir/program.hpp"
#include "isex/select/config_curve.hpp"

using namespace isex;

int main() {
  const auto& lib = hw::CellLibrary::standard_018um();

  // y = ((a + b) * c) >> s;  z = (a ^ b) + (c & mask)   -- one basic block.
  ir::Program prog("quickstart");
  const int bb = prog.add_block("kernel");
  auto& d = prog.block(bb).dfg;
  const auto a = d.add(ir::Opcode::kInput);
  const auto b = d.add(ir::Opcode::kInput);
  const auto c = d.add(ir::Opcode::kInput);
  const auto s = d.add(ir::Opcode::kConst);
  const auto mask = d.add(ir::Opcode::kConst);
  const auto sum = d.add(ir::Opcode::kAdd, {a, b});
  const auto prod = d.add(ir::Opcode::kMul, {sum, c});
  const auto y = d.add(ir::Opcode::kShr, {prod, s});
  const auto x1 = d.add(ir::Opcode::kXor, {a, b});
  const auto m1 = d.add(ir::Opcode::kAnd, {c, mask});
  const auto z = d.add(ir::Opcode::kAdd, {x1, m1});
  d.mark_live_out(y);
  d.mark_live_out(z);

  // The kernel runs 1000 times per activation.
  prog.set_root(prog.stmt_loop(1000, prog.stmt_block(bb)));

  // Enumerate candidates and print the library.
  ise::EnumOptions eopts;
  const auto cands = ise::enumerate_candidates(d, lib, eopts, bb, 1000);
  std::printf("candidate library: %zu legal custom instructions\n\n",
              cands.size());
  std::printf("%-6s %-6s %-4s %-4s %-10s %-8s %-8s\n", "nodes", "in", "out",
              "hwcy", "gain/exec", "area", "ns");
  for (const auto& cand : cands) {
    if (cand.est.gain_per_exec <= 0) continue;
    std::printf("%-6zu %-6d %-4d %-4d %-10.1f %-8.2f %-8.2f\n",
                cand.nodes.count(), cand.num_inputs, cand.num_outputs,
                cand.est.hw_cycles, cand.est.gain_per_exec, cand.est.area,
                cand.est.latency_ns);
  }

  // Full curve: cycles vs area.
  const auto counts = prog.wcet_counts(ir::Program::sum_cost(
      [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
  const auto curve =
      select::build_config_curve(prog, counts, lib, select::CurveOptions{})
          .curve;
  std::printf("\nconfiguration curve (area -> cycles):\n");
  for (const auto& pt : curve.points)
    std::printf("  %8.2f -> %10.0f  (speedup %.2fx)\n", pt.area, pt.cycles,
                curve.base_cycles() / pt.cycles);
  return 0;
}
