// Chapter 3 core tests: the EDF dynamic program and the RMS branch-and-bound
// against exhaustive ground truth, plus the Fig 3.2 motivating example.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>

#include "isex/customize/heuristics.hpp"
#include "isex/customize/motivating.hpp"
#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/rt/schedulability.hpp"
#include "test_util.hpp"

namespace isex::customize {
namespace {

/// Exhaustive minimum utilization over all assignments within the budget;
/// if rms is set, only RMS-schedulable assignments qualify.
double brute_min_util(const rt::TaskSet& ts, double budget, bool rms) {
  double best = std::numeric_limits<double>::infinity();
  std::vector<int> assignment(ts.size(), 0);
  std::function<void(std::size_t, double)> rec = [&](std::size_t i, double area) {
    if (i == ts.size()) {
      if (rms) {
        std::vector<double> c, p;
        for (std::size_t k = 0; k < ts.size(); ++k) {
          c.push_back(
              ts.tasks[k].configs[static_cast<std::size_t>(assignment[k])].cycles);
          p.push_back(ts.tasks[k].period);
        }
        if (!rt::rms_schedulable(c, p)) return;
      }
      best = std::min(best, ts.utilization(assignment));
      return;
    }
    for (std::size_t j = 0; j < ts.tasks[i].configs.size(); ++j) {
      const double a = ts.tasks[i].configs[j].area;
      if (a > area + 1e-9) continue;
      assignment[i] = static_cast<int>(j);
      rec(i + 1, area - a);
    }
    assignment[i] = 0;
  };
  rec(0, budget);
  return best;
}

TEST(Motivating, SoftwareOnlyIsUnschedulable) {
  const auto ts = motivating_example();
  EXPECT_NEAR(ts.sw_utilization(), 29.0 / 24.0, 1e-12);
}

TEST(Motivating, AllFourHeuristicsFail) {
  const auto ts = motivating_example();
  // Fig 3.2(a): equal split leaves every task in software, U' = 29/24.
  auto a = select_heuristic(ts, kMotivatingAreaBudget,
                            Heuristic::kEqualAreaDivision);
  EXPECT_NEAR(a.utilization, 29.0 / 24.0, 1e-12);
  EXPECT_FALSE(a.schedulable);
  // Fig 3.2(b,c,d): each customizes only T1, U' = 25/24.
  for (auto h : {Heuristic::kSmallestDeadlineFirst,
                 Heuristic::kHighestUtilReduction,
                 Heuristic::kBestGainAreaRatio}) {
    auto r = select_heuristic(ts, kMotivatingAreaBudget, h);
    EXPECT_NEAR(r.utilization, 25.0 / 24.0, 1e-12) << heuristic_name(h);
    EXPECT_FALSE(r.schedulable) << heuristic_name(h);
  }
}

TEST(Motivating, OptimalEdfSelectionSchedulesTheSet) {
  const auto ts = motivating_example();
  const auto r = select_edf(ts, kMotivatingAreaBudget, EdfOptions{1.0});
  EXPECT_TRUE(r.schedulable);
  EXPECT_NEAR(r.utilization, 1.0, 1e-12);
  // Fig 3.2(e): T1 in software, T2 and T3 customized.
  EXPECT_EQ(r.assignment, (std::vector<int>{0, 1, 1}));
  EXPECT_NEAR(r.area_used, 10.0, 1e-12);
}

class EdfDpProperty : public ::testing::TestWithParam<int> {};

TEST_P(EdfDpProperty, MatchesExhaustiveOptimum) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 3);
  auto ts = isex::testing::random_taskset(rng, rng.uniform_int(2, 5), 4);
  const double budget = rng.uniform_int(0, 80);
  const auto r = select_edf(ts, budget, EdfOptions{1.0});
  // Areas are integers in the generator, so grid 1.0 is exact.
  EXPECT_NEAR(r.utilization, brute_min_util(ts, budget, false), 1e-9);
  EXPECT_LE(r.area_used, budget + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdfDpProperty, ::testing::Range(0, 25));

TEST(EdfDp, MonotoneInBudget) {
  util::Rng rng(1234);
  auto ts = isex::testing::random_taskset(rng, 4, 5);
  double prev = std::numeric_limits<double>::infinity();
  for (double budget = 0; budget <= ts.max_area(); budget += 10) {
    const auto r = select_edf(ts, budget, EdfOptions{1.0});
    EXPECT_LE(r.utilization, prev + 1e-12);
    prev = r.utilization;
  }
}

TEST(EdfDp, HugeBudgetSizesTableByReachableArea) {
  // Past the task set's Max_Area every assignment fits, so the table stops
  // there: a 1e12 budget answers like Max_Area instead of allocating
  // terabytes. The generator's areas are integers, so grid 1.0 is exact.
  util::Rng rng(4321);
  const auto ts = isex::testing::random_taskset(rng, 4, 5);
  const auto huge = select_edf(ts, 1e12, EdfOptions{1.0});
  const auto max = select_edf(ts, ts.max_area(), EdfOptions{1.0});
  EXPECT_EQ(huge.status, robust::Status::kExact);
  EXPECT_EQ(huge.assignment, max.assignment);
  EXPECT_EQ(huge.utilization, max.utilization);
  EXPECT_EQ(huge.area_used, max.area_used);
}

class RmsBnbProperty : public ::testing::TestWithParam<int> {};

TEST_P(RmsBnbProperty, MatchesExhaustiveOptimum) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 73 + 9);
  auto ts = isex::testing::random_taskset(rng, rng.uniform_int(2, 4), 3);
  // Push software utilization near 1 so RMS feasibility is non-trivial.
  ts.set_periods_for_utilization(rng.uniform_real(0.85, 1.15));
  ts.sort_by_period();
  const double budget = rng.uniform_int(0, 60);
  const auto r = select_rms(ts, budget);
  const double expected = brute_min_util(ts, budget, true);
  if (std::isinf(expected)) {
    EXPECT_FALSE(r.found_feasible);
  } else {
    ASSERT_TRUE(r.found_feasible);
    EXPECT_NEAR(r.utilization, expected, 1e-9);
    // The returned assignment really is RMS-schedulable.
    std::vector<double> c, p;
    for (std::size_t k = 0; k < ts.size(); ++k) {
      c.push_back(
          ts.tasks[k].configs[static_cast<std::size_t>(r.assignment[k])].cycles);
      p.push_back(ts.tasks[k].period);
    }
    EXPECT_TRUE(rt::rms_schedulable(c, p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RmsBnbProperty, ::testing::Range(0, 25));

// Ablation: disabling the utilization bound or the fastest-first order must
// not change the optimum, only the node count.
TEST(RmsBnb, PruningAblationPreservesOptimum) {
  util::Rng rng(777);
  auto ts = isex::testing::random_taskset(rng, 4, 4);
  ts.set_periods_for_utilization(1.05);
  ts.sort_by_period();
  const double budget = 50;
  const auto full = select_rms(ts, budget);
  RmsOptions no_bound;
  no_bound.use_bound_pruning = false;
  const auto nb = select_rms(ts, budget, no_bound);
  RmsOptions no_order;
  no_order.fastest_first = false;
  const auto no = select_rms(ts, budget, no_order);
  EXPECT_EQ(full.found_feasible, nb.found_feasible);
  EXPECT_EQ(full.found_feasible, no.found_feasible);
  if (full.found_feasible) {
    EXPECT_NEAR(full.utilization, nb.utilization, 1e-12);
    EXPECT_NEAR(full.utilization, no.utilization, 1e-12);
  }
  EXPECT_LE(full.nodes_visited, nb.nodes_visited);
}

TEST(SetPeriods, HitsRequestedUtilization) {
  util::Rng rng(5);
  auto ts = isex::testing::random_taskset(rng, 5, 3);
  for (double u : {0.8, 1.0, 1.05, 1.08, 1.1}) {
    ts.set_periods_for_utilization(u);
    EXPECT_NEAR(ts.sw_utilization(), u, 1e-9);
  }
}

}  // namespace
}  // namespace isex::customize
