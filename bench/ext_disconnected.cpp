// Extension study: disconnected custom-instruction candidates
// (Section 2.3.1, [81,23,36]) — pairs of independent datapaths fused into
// one instruction so the CFU supplies the instruction-level parallelism the
// single-issue base core lacks.
//
// Expected shape: enabling disconnected pairs never hurts and helps most on
// kernels with several independent hot dataflows per block (DCT butterflies,
// multi-lane quantization), while serial-chain kernels (crc32) gain little.
#include <cstdio>

#include "isex/select/config_curve.hpp"
#include "isex/util/table.hpp"
#include "isex/workloads/tasks.hpp"

using namespace isex;

int main() {
  const auto& lib = hw::CellLibrary::standard_018um();
  std::printf("=== Extension: disconnected candidates (connected-only vs "
              "+pairs) ===\n\n");
  util::Table t({"benchmark", "speedup conn.", "speedup +pairs", "delta%",
                 "area conn.", "area +pairs"});
  for (const char* name : {"jfdctint", "cjpeg", "edn", "susan", "sha",
                           "crc32", "md5", "lms"}) {
    auto prog = workloads::make_benchmark(name);
    const auto counts = prog.wcet_counts(ir::Program::sum_cost(
        [&lib](const ir::Node& n) { return lib.sw_cycles(n); }));
    select::CurveOptions base;
    select::CurveOptions pairs;
    pairs.disconnected_pairs = true;
    const auto c0 =
        select::build_config_curve(prog, counts, lib, base).curve;
    const auto c1 =
        select::build_config_curve(prog, counts, lib, pairs).curve;
    const double s0 = c0.base_cycles() / c0.best_cycles();
    const double s1 = c1.base_cycles() / c1.best_cycles();
    t.row()
        .cell(name)
        .cell(s0, 3)
        .cell(s1, 3)
        .cell(100 * (s1 / s0 - 1), 2)
        .cell(c0.max_area(), 1)
        .cell(c1.max_area(), 1);
  }
  t.print();
  std::printf("\nliterature: disconnected patterns raise speedups when the "
              "base architecture has no ILP; no benefit on serial chains\n");
  return 0;
}
