// Workload substrate tests: kernel calibration against the published
// statistics (Table 5.1), registry behaviour, task-set construction, and
// energy/DVFS model invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "isex/energy/dvfs.hpp"
#include "isex/workloads/tasks.hpp"
#include "isex/workloads/workloads.hpp"

namespace isex::workloads {
namespace {

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

double wcet_of(const ir::Program& p) {
  return p.wcet(ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); }));
}

int max_bb(const ir::Program& p) {
  int mx = 0;
  for (const auto& b : p.blocks()) mx = std::max(mx, b.dfg.num_operations());
  return mx;
}

TEST(Registry, AllBenchmarksBuildDeterministically) {
  for (const auto& name : benchmark_names()) {
    const auto p1 = make_benchmark(name);
    const auto p2 = make_benchmark(name);
    ASSERT_EQ(p1.num_blocks(), p2.num_blocks()) << name;
    EXPECT_DOUBLE_EQ(wcet_of(p1), wcet_of(p2)) << name;
    EXPECT_GT(wcet_of(p1), 0) << name;
    EXPECT_NE(benchmark_source(name), "?") << name;
  }
  EXPECT_THROW(make_benchmark("nonexistent"), std::invalid_argument);
}

// Calibration against Table 5.1: the giant-block and block-size *orderings*
// the Chapter 5 experiments depend on.
TEST(Calibration, BlockSizeOrderingMatchesTable51) {
  const int bb_3des = max_bb(make_benchmark("3des"));
  const int bb_sha = max_bb(make_benchmark("sha"));
  const int bb_lms = max_bb(make_benchmark("lms"));
  const int bb_g721 = max_bb(make_benchmark("g721decode"));
  EXPECT_GT(bb_3des, 2000);          // paper: 2745 — the IS-killer block
  EXPECT_GT(bb_sha, 200);            // paper: 487 — unrolled rounds
  EXPECT_LT(bb_lms, 40);             // paper: 29 — small DSP blocks
  EXPECT_LT(bb_g721, 100);           // paper: 80 — small codec blocks
  EXPECT_GT(bb_3des, bb_sha);
  EXPECT_GT(bb_sha, bb_g721);
}

TEST(Calibration, WcetMagnitudeOrdering) {
  // blowfish and 3des are the long-running kernels; jfdctint is tiny.
  const double w_blowfish = wcet_of(make_benchmark("blowfish"));
  const double w_3des = wcet_of(make_benchmark("3des"));
  const double w_jfdct = wcet_of(make_benchmark("jfdctint"));
  const double w_ndes = wcet_of(make_benchmark("ndes"));
  EXPECT_GT(w_blowfish, 1e8);
  EXPECT_GT(w_3des, 1e7);
  EXPECT_LT(w_jfdct, 1e4);
  EXPECT_LT(w_ndes, 1e5);
}

TEST(Tasks, CachedTaskHasValidCurve) {
  const auto& t = cached_task("sha");
  ASSERT_GE(t.configs.size(), 2u);
  EXPECT_DOUBLE_EQ(t.configs.front().area, 0);
  for (std::size_t i = 1; i < t.configs.size(); ++i) {
    EXPECT_GT(t.configs[i].area, t.configs[i - 1].area);
    EXPECT_LT(t.configs[i].cycles, t.configs[i - 1].cycles);
  }
  // Cached: same object back.
  EXPECT_EQ(&cached_task("sha"), &t);
}

TEST(Tasks, CachedItemsRebuildTheCachedCurve) {
  // The memo's knapsack items are the ones the curve was built from: the
  // knapsack half of build_config_curve over them gives the curve back. And
  // the memo's pool is the one the items came from: merging it by
  // isomorphism class (gains summed, the largest area kept) gives the items.
  prefetch_tasks(benchmark_names());
  using AreaGain = std::pair<double, double>;
  for (const auto& k : benchmark_names()) {
    const auto& t = cached_task(k);
    const auto rebuilt = select::curve_from_items(
        cached_items(k), t.sw_cycles(),
        select::task_curve_options(make_benchmark(k)));
    ASSERT_EQ(rebuilt.points.size(), t.configs.size()) << k;
    for (std::size_t i = 0; i < t.configs.size(); ++i) {
      EXPECT_EQ(rebuilt.points[i].area, t.configs[i].area) << k << " #" << i;
      EXPECT_EQ(rebuilt.points[i].cycles, t.configs[i].cycles)
          << k << " #" << i;
    }

    std::map<std::uint64_t, AreaGain> classes;
    for (const auto& c : cached_pool(k)) {
      AreaGain& ag =
          classes.try_emplace(c.iso_hash, c.est.area, 0.0).first->second;
      ag.first = std::max(ag.first, c.est.area);
      ag.second += c.total_gain();
    }
    std::vector<AreaGain> merged, items;
    for (const auto& [h, ag] : classes) merged.push_back(ag);
    for (const auto& it : cached_items(k)) items.emplace_back(it.area, it.gain);
    std::sort(merged.begin(), merged.end());
    std::sort(items.begin(), items.end());
    EXPECT_EQ(merged, items) << k;
  }
}

TEST(Tasks, AllPaperTaskSetsBuild) {
  for (const auto* sets : {&ch3_tasksets(), &ch4_tasksets(), &ch5_tasksets()})
    for (const auto& names : *sets)
      for (const auto& n : names)
        EXPECT_NO_THROW(make_benchmark(n)) << n;
  auto ts = make_taskset(ch3_tasksets()[0], 1.05);
  EXPECT_NEAR(ts.sw_utilization(), 1.05, 1e-9);
  EXPECT_EQ(ts.size(), 4u);
}

// --- energy/DVFS -------------------------------------------------------------

TEST(Dvfs, OperatingPointsAscend) {
  const auto& pts = energy::tm5400_points();
  ASSERT_GE(pts.size(), 2u);
  EXPECT_DOUBLE_EQ(pts.front().freq_mhz, 300);
  EXPECT_DOUBLE_EQ(pts.back().freq_mhz, 633);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_GT(pts[i].freq_mhz, pts[i - 1].freq_mhz);
    EXPECT_GT(pts[i].volt, pts[i - 1].volt);
  }
}

TEST(Dvfs, ScalingPicksLowestFeasiblePoint) {
  rt::TaskSet ts;
  ts.tasks.push_back(rt::Task{"A", 100, {{0, 45}}});  // U = 0.45
  const std::vector<int> a{0};
  const auto edf = energy::static_voltage_scaling(ts, a, true);
  ASSERT_TRUE(edf.schedulable);
  // 0.45 * 633/300 = 0.95 <= 1: the lowest point works under EDF.
  EXPECT_DOUBLE_EQ(edf.point.freq_mhz, 300);
  // Liu-Layland for n=1 is 1.0: RMS agrees here.
  const auto rms = energy::static_voltage_scaling(ts, a, false);
  EXPECT_DOUBLE_EQ(rms.point.freq_mhz, 300);
}

TEST(Dvfs, RmsBoundIsMoreConservative) {
  // Three tasks at U = 0.76: EDF can scale to 566 (0.76*633/566=0.85),
  // RMS bound for n=3 is 0.7798 so 566 MHz gives 0.85 > 0.7798 -> RMS must
  // stay higher.
  rt::TaskSet ts;
  for (int i = 0; i < 3; ++i)
    ts.tasks.push_back(rt::Task{"T", 300, {{0, 76}}});
  const std::vector<int> a{0, 0, 0};
  const auto edf = energy::static_voltage_scaling(ts, a, true);
  const auto rms = energy::static_voltage_scaling(ts, a, false);
  ASSERT_TRUE(edf.schedulable);
  ASSERT_TRUE(rms.schedulable);
  EXPECT_LT(edf.point.freq_mhz, rms.point.freq_mhz);
}

TEST(Dvfs, EnergyScalesWithVoltageSquared) {
  rt::TaskSet ts;
  ts.tasks.push_back(rt::Task{"A", 100, {{0, 50}}});
  const std::vector<int> a{0};
  const double h = 1000;
  const double e_low =
      energy::hyperperiod_energy(ts, a, {300, 1.2}, h);
  const double e_high =
      energy::hyperperiod_energy(ts, a, {633, 1.6}, h);
  EXPECT_NEAR(e_high / e_low, (1.6 * 1.6) / (1.2 * 1.2), 1e-12);
}

TEST(Dvfs, UnschedulableReportedHonestly) {
  rt::TaskSet ts;
  ts.tasks.push_back(rt::Task{"A", 100, {{0, 150}}});  // U = 1.5
  const auto r = energy::static_voltage_scaling(ts, {0}, true);
  EXPECT_FALSE(r.schedulable);
  EXPECT_DOUBLE_EQ(r.point.freq_mhz, 633);  // pinned at the top point
}

}  // namespace
}  // namespace isex::workloads
