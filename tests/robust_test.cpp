// The execution-budget layer: Budget semantics, the anytime-result protocol
// of every bounded solver, and the graceful-degradation ladder.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <thread>

#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/ise/single_cut.hpp"
#include "isex/robust/fallback.hpp"
#include "isex/rt/schedulability.hpp"
#include "isex/rt/simulator.hpp"
#include "isex/rtreconfig/algorithms.hpp"
#include "isex/workloads/workloads.hpp"
#include "test_util.hpp"

namespace isex::robust {
namespace {

// --- Budget ------------------------------------------------------------------

TEST(Budget, UnlimitedNeverTrips) {
  Budget b;
  EXPECT_FALSE(b.has_limits());
  for (int i = 0; i < 100000; ++i) EXPECT_FALSE(b.charge());
  EXPECT_FALSE(b.exhausted());
  EXPECT_FALSE(b.report().exhausted());
}

TEST(Budget, NodeBudgetLatches) {
  Budget b;
  b.set_node_budget(10);
  int trips = 0;
  for (int i = 0; i < 20; ++i)
    if (b.charge()) ++trips;
  EXPECT_EQ(trips, 10);  // charges 11..20 all report exhaustion
  EXPECT_TRUE(b.exhausted_cached());
  const auto r = b.report();
  EXPECT_TRUE(r.nodes_exhausted);
  EXPECT_FALSE(r.time_exhausted);
  EXPECT_EQ(r.reason(), "nodes");
  EXPECT_EQ(r.nodes_charged, 20);
}

TEST(Budget, TimeBudgetTripsAfterDeadline) {
  Budget b;
  b.set_time_budget(1e-4);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // exhausted() re-reads the clock without needing kTimeCheckStride charges.
  EXPECT_TRUE(b.exhausted());
  EXPECT_TRUE(b.report().time_exhausted);
  EXPECT_EQ(b.report().reason(), "time");
}

TEST(Budget, TimeCheckedEveryStrideCharges) {
  Budget b;
  b.set_time_budget(1e-4);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  bool tripped = false;
  for (long i = 0; i < 2 * Budget::kTimeCheckStride && !tripped; ++i)
    tripped = b.charge();
  EXPECT_TRUE(tripped);
}

TEST(Budget, MemRefusalDoesNotPoisonCharge) {
  Budget b;
  b.set_mem_budget(1000);
  EXPECT_FALSE(b.charge_mem(600));   // fits
  EXPECT_TRUE(b.charge_mem(600));    // refused: would exceed
  EXPECT_FALSE(b.charge());          // refusal does NOT latch exhaustion
  EXPECT_FALSE(b.exhausted());
  EXPECT_TRUE(b.report().mem_exhausted);  // but the report records it
  b.release_mem(600);
  EXPECT_FALSE(b.charge_mem(900));   // a smaller consumer fits again
  EXPECT_EQ(b.report().mem_peak_bytes, 900u);
}

TEST(Budget, RetryBudgetSlicesThePrimary) {
  Budget primary;
  primary.set_time_budget(1.0);
  primary.set_node_budget(100000);
  primary.set_mem_budget(1 << 20);
  FallbackOptions fb;
  Budget slice = make_retry_budget(primary, fb);
  const auto r = slice.report();
  EXPECT_DOUBLE_EQ(r.time_budget_seconds, 0.25);
  EXPECT_EQ(r.node_budget, 25000);
  EXPECT_EQ(r.mem_budget_bytes, std::size_t{1} << 20);
  // Tiny node budgets still give retries the floor.
  Budget tiny;
  tiny.set_node_budget(10);
  EXPECT_EQ(make_retry_budget(tiny, fb).report().node_budget,
            fb.retry_node_floor);
}

// --- solve_with_fallback -----------------------------------------------------

using IntRungs =
    std::vector<std::pair<std::string, std::function<Outcome<int>(Budget*)>>>;

Outcome<int> make(int v, Status s) {
  Outcome<int> o;
  o.value = v;
  o.status = s;
  return o;
}

TEST(Fallback, FirstRungExactStopsLadder) {
  int calls = 0;
  IntRungs rungs;
  rungs.emplace_back("a", [&](Budget*) { ++calls; return make(1, Status::kExact); });
  rungs.emplace_back("b", [&](Budget*) { ++calls; return make(2, Status::kExact); });
  const auto out = solve_with_fallback<int>(
      nullptr, {}, rungs, [](const Outcome<int>& x, const Outcome<int>& y) {
        return x.value > y.value;
      });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(out.value, 1);
  EXPECT_EQ(out.status, Status::kExact);
  EXPECT_EQ(out.detail, "a:Exact");
}

TEST(Fallback, LowerRungCompletionIsDegradedAndBestValueWins) {
  IntRungs rungs;
  rungs.emplace_back(
      "a", [&](Budget*) { return make(5, Status::kBudgetTruncated); });
  rungs.emplace_back("b", [&](Budget*) { return make(3, Status::kExact); });
  const auto out = solve_with_fallback<int>(
      nullptr, {}, rungs, [](const Outcome<int>& x, const Outcome<int>& y) {
        return x.value > y.value;
      });
  // Rung a's incumbent (5) beats rung b's degraded answer (3); the label
  // honestly stays BudgetTruncated.
  EXPECT_EQ(out.value, 5);
  EXPECT_EQ(out.status, Status::kBudgetTruncated);
  EXPECT_EQ(out.detail, "a:BudgetTruncated -> b:Degraded");
}

TEST(Fallback, InfeasibleEndsTheLadder) {
  int calls = 0;
  IntRungs rungs;
  rungs.emplace_back(
      "a", [&](Budget*) { ++calls; return make(0, Status::kInfeasible); });
  rungs.emplace_back("b", [&](Budget*) { ++calls; return make(1, Status::kExact); });
  const auto out = solve_with_fallback<int>(
      nullptr, {}, rungs, [](const Outcome<int>&, const Outcome<int>&) {
        return false;
      });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(out.status, Status::kInfeasible);
}

// --- bounded solver entry points --------------------------------------------

TEST(BoundedSolvers, NoBudgetIsExactAndIdenticalToPlainSolver) {
  util::Rng rng(11);
  for (int it = 0; it < 20; ++it) {
    auto ts = testing::random_taskset(rng, 5, 4);
    ts.sort_by_period();
    const double area = 0.5 * ts.max_area();
    const auto plain = customize::select_edf(ts, area);
    const auto bounded =
        customize::select_edf_bounded(ts, area, customize::EdfOptions{});
    EXPECT_EQ(bounded.status, Status::kExact);
    EXPECT_EQ(bounded.optimality_gap, 0.0);
    EXPECT_EQ(bounded.value.assignment, plain.assignment);
    EXPECT_DOUBLE_EQ(bounded.value.utilization, plain.utilization);

    const auto rplain = customize::select_rms(ts, area);
    const auto rbounded =
        customize::select_rms_bounded(ts, area, customize::RmsOptions{});
    // A complete search that finds no RMS-schedulable assignment is a proof
    // of infeasibility; otherwise the run must be exact.
    EXPECT_EQ(rbounded.status, rplain.found_feasible ? Status::kExact
                                                     : Status::kInfeasible);
    EXPECT_EQ(rbounded.value.assignment, rplain.assignment);
  }
}

TEST(BoundedSolvers, DegenerateTaskSetIsInfeasibleNotACrash) {
  rt::TaskSet empty;
  EXPECT_EQ(customize::select_edf_bounded(empty, 10, {}).status,
            Status::kInfeasible);

  rt::TaskSet bad;
  rt::Task t;
  t.name = "zero-period";
  t.period = 0;
  t.configs.push_back({0, 100});
  bad.tasks.push_back(t);
  const auto out = customize::select_edf_bounded(bad, 10, {});
  EXPECT_EQ(out.status, Status::kInfeasible);
  EXPECT_NE(out.detail.find("zero-period"), std::string::npos);

  // RMS additionally rejects task sets not in priority order.
  rt::TaskSet unsorted;
  unsorted.tasks.push_back({"slow", 100, {{0, 10}}});
  unsorted.tasks.push_back({"fast", 10, {{0, 2}}});
  EXPECT_EQ(customize::select_rms_bounded(unsorted, 10, {}).status,
            Status::kInfeasible);
}

TEST(BoundedSolvers, TruncatedEdfIsFeasibleAndGapBounded) {
  util::Rng rng(29);
  for (int it = 0; it < 10; ++it) {
    auto ts = testing::random_taskset(rng, 6, 5);
    ts.sort_by_period();
    const double area = 0.5 * ts.max_area();
    Budget b;
    b.set_node_budget(5);  // starvation: the DP is cut immediately
    customize::EdfOptions o;
    o.budget = &b;
    const auto out = customize::select_edf_bounded(ts, area, o);
    ASSERT_EQ(out.status, Status::kBudgetTruncated);
    EXPECT_GE(out.optimality_gap, 0.0);
    // The incumbent is a real assignment within the area budget.
    ASSERT_EQ(out.value.assignment.size(), ts.size());
    double used = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      ASSERT_GE(out.value.assignment[i], 0);
      ASSERT_LT(static_cast<std::size_t>(out.value.assignment[i]),
                ts.tasks[i].configs.size());
      used += ts.tasks[i]
                  .configs[static_cast<std::size_t>(out.value.assignment[i])]
                  .area;
    }
    EXPECT_LE(used, area + 1e-9);
  }
}

TEST(BoundedSolvers, MemBudgetFallsBackToBaselineSelection) {
  util::Rng rng(31);
  auto ts = testing::random_taskset(rng, 6, 5);
  ts.sort_by_period();
  Budget b;
  b.set_mem_budget(64);  // DP table cannot possibly fit
  customize::EdfOptions o;
  o.budget = &b;
  const auto out = customize::select_edf_bounded(ts, 0.5 * ts.max_area(), o);
  EXPECT_EQ(out.status, Status::kBudgetTruncated);
  EXPECT_TRUE(out.budget.mem_exhausted);
  // All-software baseline: feasible at zero area.
  for (int a : out.value.assignment) EXPECT_EQ(a, 0);
}

TEST(BoundedSolvers, SingleCutTruncationKeepsIncumbent) {
  util::Rng rng(17);
  const auto dfg = testing::random_dfg(rng, 6, 120, 0.0);
  const auto& lib = hw::CellLibrary::standard_018um();
  ise::SingleCutOptions so;
  Budget b;
  b.set_node_budget(50);
  so.budget = &b;
  const auto r = ise::optimal_single_cut(dfg, lib, so);
  EXPECT_EQ(r.status, Status::kBudgetTruncated);
  EXPECT_GE(r.optimality_gap, 0.0);
  ise::SingleCutOptions unlimited;
  const auto exact = ise::optimal_single_cut(dfg, lib, unlimited);
  EXPECT_EQ(exact.status, Status::kExact);
  const double gain = r.best ? r.best->total_gain() : 0.0;
  const double exact_gain = exact.best ? exact.best->total_gain() : 0.0;
  EXPECT_LE(gain, exact_gain + 1e-9);
}

TEST(BoundedSolvers, EnumerationTruncationReportsCoverageGap) {
  util::Rng rng(19);
  const auto dfg = testing::random_dfg(rng, 6, 140, 0.0);
  const auto& lib = hw::CellLibrary::standard_018um();
  ise::EnumOptions o;
  Budget b;
  b.set_node_budget(30);
  o.budget = &b;
  const auto out = ise::enumerate_candidates_bounded(dfg, lib, o);
  EXPECT_EQ(out.status, Status::kBudgetTruncated);
  EXPECT_GT(out.optimality_gap, 0.0);
  EXPECT_LE(out.optimality_gap, 1.0);
  EXPECT_NE(out.detail.find("seeds"), std::string::npos);
}

// Enumeration releases the memory it charged once its sets are freed, so a
// memory budget bounds live memory: the same block enumerated twice under
// one budget fits both times when one run fits.
TEST(BoundedSolvers, EnumerationReleasesChargedMemory) {
  const ir::Program p = workloads::make_benchmark("crc32");
  const ir::Dfg* dfg = nullptr;
  for (int b = 0; b < p.num_blocks(); ++b)
    if (p.block(b).dfg.num_nodes() == 62) dfg = &p.block(b).dfg;
  ASSERT_NE(dfg, nullptr);
  const auto& lib = hw::CellLibrary::standard_018um();
  ise::EnumOptions o;
  Budget meter;  // no limits: measures one run's accounted peak
  o.budget = &meter;
  const auto first = ise::enumerate_candidates_bounded(*dfg, lib, o);
  ASSERT_EQ(first.status, Status::kExact);
  const std::size_t peak = meter.report().mem_peak_bytes;
  ASSERT_GT(peak, 0u);

  Budget b;
  b.set_mem_budget(peak + peak / 2);
  o.budget = &b;
  for (int run = 0; run < 2; ++run) {
    const auto out = ise::enumerate_candidates_bounded(*dfg, lib, o);
    EXPECT_EQ(out.status, Status::kExact)
        << "run " << run << ": " << out.detail;
    EXPECT_EQ(out.value.size(), first.value.size()) << "run " << run;
  }
  EXPECT_EQ(b.report().mem_peak_bytes, peak);
}

TEST(BoundedSolvers, ReconfigEmptyProblemIsInfeasible) {
  rtreconfig::Problem p;
  EXPECT_EQ(rtreconfig::dp_partition_bounded(p, nullptr).status,
            Status::kInfeasible);
}

// --- ladders -----------------------------------------------------------------

TEST(Ladders, EdfLadderUnderStarvationStaysFeasible) {
  util::Rng rng(41);
  for (int it = 0; it < 10; ++it) {
    auto ts = testing::random_taskset(rng, 6, 5);
    ts.sort_by_period();
    const double area = 0.5 * ts.max_area();
    Budget b;
    b.set_node_budget(3);
    const auto out = robust::select_edf_with_fallback(
        ts, area, customize::EdfOptions{}, &b);
    EXPECT_NE(out.status, Status::kInfeasible);
    EXPECT_NE(out.status, Status::kExact);  // 3 nodes cannot finish the DP
    EXPECT_GE(out.optimality_gap, 0.0);
    double used = 0;
    for (std::size_t i = 0; i < ts.size(); ++i)
      used += ts.tasks[i]
                  .configs[static_cast<std::size_t>(out.value.assignment[i])]
                  .area;
    EXPECT_LE(used, area + 1e-9);
    EXPECT_NE(out.detail.find("dp:BudgetTruncated"), std::string::npos);
  }
}

TEST(Ladders, RmsLadderProducesRmsValidAnswer) {
  util::Rng rng(43);
  for (int it = 0; it < 10; ++it) {
    auto ts = testing::random_taskset(rng, 6, 5);
    ts.sort_by_period();
    const double area = 0.5 * ts.max_area();
    Budget b;
    b.set_node_budget(3);
    const auto out = robust::select_rms_with_fallback(
        ts, area, customize::RmsOptions{}, &b);
    EXPECT_NE(out.status, Status::kInfeasible);
    if (out.value.schedulable) {
      std::vector<double> c, p;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        c.push_back(
            ts.tasks[i]
                .configs[static_cast<std::size_t>(out.value.assignment[i])]
                .cycles);
        p.push_back(ts.tasks[i].period);
      }
      EXPECT_TRUE(rt::rms_schedulable(c, p));
    }
  }
}

TEST(Ladders, UnlimitedLadderEqualsPlainSolver) {
  util::Rng rng(47);
  auto ts = testing::random_taskset(rng, 5, 4);
  ts.sort_by_period();
  const double area = 0.5 * ts.max_area();
  const auto out = robust::select_edf_with_fallback(
      ts, area, customize::EdfOptions{}, nullptr);
  const auto plain = customize::select_edf(ts, area);
  EXPECT_EQ(out.status, Status::kExact);
  EXPECT_EQ(out.value.assignment, plain.assignment);
}

// --- simulator validation ----------------------------------------------------

TEST(SimValidation, DegenerateInputsAreRejectedUpFront) {
  rt::SimOptions opts;
  EXPECT_FALSE(rt::try_simulate({}, opts).ok());
  EXPECT_FALSE(rt::try_simulate({{100, 0}}, opts).ok());       // zero period
  EXPECT_FALSE(rt::try_simulate({{-1, 100}}, opts).ok());      // negative wcet
  EXPECT_FALSE(rt::try_simulate({{10, 100, -5}}, opts).ok());  // negative sw
  EXPECT_THROW(rt::simulate({}, opts), std::invalid_argument);
  EXPECT_TRUE(rt::try_simulate({{10, 100}}, opts).ok());
  const auto err = rt::try_simulate({{100, 0, 0, 0, "bad"}}, opts);
  ASSERT_FALSE(err.ok());
  EXPECT_NE(err.error().message.find("bad"), std::string::npos);
}

TEST(SimValidation, TaskSetValidateCatchesDegeneracies) {
  rt::TaskSet ts;
  EXPECT_NE(ts.validate(), "");
  rt::Task t;
  t.name = "x";
  t.period = 100;
  t.configs.push_back({0, 50});
  ts.tasks.push_back(t);
  EXPECT_EQ(ts.validate(), "");
  ts.tasks[0].configs[0].area = 3;  // first config must be the sw config
  EXPECT_NE(ts.validate(), "");
}

}  // namespace
}  // namespace isex::robust
