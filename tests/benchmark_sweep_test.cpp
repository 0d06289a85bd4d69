// Whole-suite sweep: every benchmark kernel flows through the full pipeline
// (WCET analysis, profiling, identification, selection, MLGP, codegen
// functional verification). One TEST_P instance per kernel.
#include <gtest/gtest.h>

#include "isex/codegen/schedule.hpp"
#include "isex/mlgp/mlgp.hpp"
#include "isex/select/config_curve.hpp"
#include "isex/workloads/workloads.hpp"

namespace isex::workloads {
namespace {

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

class BenchmarkSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkSweep, WcetAndProfileAreConsistent) {
  auto prog = make_benchmark(GetParam());
  const auto cost = ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); });
  const double wcet = prog.wcet(cost);
  const double profiled = prog.profile(cost);
  EXPECT_GT(wcet, 0);
  EXPECT_GT(profiled, 0);
  // The WCET path takes max branches; the profile averages them.
  EXPECT_GE(wcet, profiled - 1e-6) << GetParam();
  // Block counts on the WCET path never exceed structural bounds.
  const auto counts = prog.wcet_counts(cost);
  double recomputed = 0;
  for (int b = 0; b < prog.num_blocks(); ++b)
    recomputed += cost(b, prog.block(b)) *
                  static_cast<double>(counts[static_cast<std::size_t>(b)]);
  EXPECT_NEAR(recomputed, wcet, 1e-6 * wcet + 1e-9);
}

TEST_P(BenchmarkSweep, CurveIsValidAndCiLibraryLegal) {
  auto prog = make_benchmark(GetParam());
  const auto cost = ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); });
  const auto counts = prog.wcet_counts(cost);
  select::CurveOptions opts;
  opts.enum_opts.max_candidates = 8000;  // keep the sweep fast
  const auto curve =
      select::build_config_curve(prog, counts, lib(), opts).curve;
  ASSERT_GE(curve.points.size(), 1u);
  EXPECT_DOUBLE_EQ(curve.points.front().area, 0);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_GT(curve.points[i].area, curve.points[i - 1].area);
    EXPECT_LT(curve.points[i].cycles, curve.points[i - 1].cycles);
    EXPECT_GT(curve.points[i].cycles, 0);
  }
}

TEST_P(BenchmarkSweep, MlgpSelectionsVerifyFunctionally) {
  auto prog = make_benchmark(GetParam());
  const auto cost = ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); });
  prog.profile(cost);
  // Hottest block only (the sweep runs for every kernel).
  int hot = 0;
  double best = -1;
  for (int b = 0; b < prog.num_blocks(); ++b) {
    const double w = cost(b, prog.block(b)) *
                     static_cast<double>(prog.block(b).exec_count);
    if (w > best) {
      best = w;
      hot = b;
    }
  }
  const auto& dfg = prog.block(hot).dfg;
  util::Rng rng(3);
  const auto cis = mlgp::generate_for_block(dfg, lib(), mlgp::MlgpOptions{}, rng);
  std::vector<util::Bitset> sets;
  for (const auto& c : cis) sets.push_back(c.nodes);
  ASSERT_NO_THROW({
    const auto block = codegen::lower(dfg, sets);
    std::vector<std::int64_t> inputs;
    util::Rng vals(11);
    for (int k = 0; k < dfg.num_nodes(); ++k)
      inputs.push_back(vals.uniform_i64(-5000, 5000));
    const auto sw = ir::evaluate(dfg, inputs);
    const auto hw = codegen::execute(dfg, block, inputs);
    for (int v = 0; v < dfg.num_nodes(); ++v)
      if (ir::produces_value(dfg.node(v).op))
        ASSERT_EQ(sw[static_cast<std::size_t>(v)],
                  hw[static_cast<std::size_t>(v)])
            << GetParam() << " node " << v;
  }) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, BenchmarkSweep, ::testing::ValuesIn(benchmark_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name)
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      return name;
    });

}  // namespace
}  // namespace isex::workloads
