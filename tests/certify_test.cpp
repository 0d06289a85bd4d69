// The witness-checker layer: genuine solver output must certify clean, and
// every named corruption of it must be rejected. The mutation loops are the
// "no silent pass" proof the certify layer rests on: a checker that lets any
// mutant through fails the corresponding EXPECT by name.
#include "isex/certify/ci.hpp"

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "isex/certify/mutate.hpp"
#include "isex/certify/pareto.hpp"
#include "isex/certify/schedule.hpp"
#include "isex/customize/select_edf.hpp"
#include "isex/customize/select_rms.hpp"
#include "isex/ise/enumerate.hpp"
#include "isex/mlgp/mlgp.hpp"
#include "isex/obs/metrics.hpp"
#include "isex/pareto/intra.hpp"
#include "isex/robust/fallback.hpp"
#include "isex/rtreconfig/algorithms.hpp"
#include "isex/workloads/tasks.hpp"
#include "test_util.hpp"

namespace isex::certify {
namespace {

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

// --- CI-legality certificates ------------------------------------------------

TEST(CertifyCi, GenuineCandidatesCertifyClean) {
  util::Rng rng(7);
  const ir::Dfg dfg = isex::testing::random_dfg(rng, 3, 40, 0.1);
  ise::EnumOptions opts;
  const auto pool = ise::enumerate_candidates(dfg, lib(), opts);
  ASSERT_FALSE(pool.empty());
  const auto rep = check_candidate_pool(dfg, lib(), opts.constraints, pool);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.checks, static_cast<long>(pool.size()));
}

TEST(CertifyCi, EveryCandidateMutationIsRejected) {
  util::Rng rng(11);
  const ir::Dfg dfg = isex::testing::random_dfg(rng, 3, 40, 0.1);
  ise::EnumOptions opts;
  const auto pool = ise::enumerate_candidates(dfg, lib(), opts);
  ASSERT_FALSE(pool.empty());
  for (const CandidateMutation m : kCandidateMutations) {
    bool applied = false;
    for (const ise::Candidate& genuine : pool) {
      ASSERT_TRUE(check_candidate(dfg, lib(), opts.constraints, genuine).ok());
      ise::Candidate mutant = genuine;
      if (!apply(m, dfg, mutant)) continue;
      applied = true;
      const auto rep = check_candidate(dfg, lib(), opts.constraints, mutant);
      EXPECT_FALSE(rep.ok())
          << "checker silently passed mutant " << name(m);
      break;
    }
    EXPECT_TRUE(applied) << "mutation " << name(m)
                         << " applied to no candidate";
  }
}

TEST(CertifyCi, NonConvexSetIsRejectedByTheConvexityCheck) {
  // in -> a -> b -> c, S = {a, c}: the a -> b -> c path leaves and re-enters.
  ir::Dfg dfg;
  const ir::NodeId in = dfg.add(ir::Opcode::kInput);
  const ir::NodeId a = dfg.add(ir::Opcode::kAdd, {in, in});
  const ir::NodeId b = dfg.add(ir::Opcode::kXor, {a, a});
  const ir::NodeId c = dfg.add(ir::Opcode::kAdd, {b, b});
  dfg.mark_live_out(c);
  util::Bitset s(static_cast<std::size_t>(dfg.num_nodes()));
  s.set(static_cast<std::size_t>(a));
  s.set(static_cast<std::size_t>(c));
  const ise::Candidate cand = ise::make_candidate(dfg, s, lib(), 0, 1);
  const auto rep = check_candidate(dfg, lib(), ise::Constraints{}, cand);
  ASSERT_FALSE(rep.ok());
  bool convexity = false;
  for (const auto& v : rep.violations) convexity |= v.check == "ci.convexity";
  EXPECT_TRUE(convexity) << rep.summary();
}

TEST(CertifyCi, WrongBlockAndDuplicatePoolAreRejected) {
  util::Rng rng(13);
  const ir::Dfg dfg = isex::testing::random_dfg(rng, 3, 30, 0.1);
  ise::EnumOptions opts;
  auto pool = ise::enumerate_candidates(dfg, lib(), opts);
  ASSERT_FALSE(pool.empty());
  EXPECT_FALSE(
      check_candidate(dfg, lib(), opts.constraints, pool[0], /*block=*/7)
          .ok());
  pool.push_back(pool.front());  // duplicate node set
  EXPECT_FALSE(check_candidate_pool(dfg, lib(), opts.constraints, pool).ok());
}

TEST(CertifyCi, PartitionOverlapAndEscapeAreRejected) {
  util::Rng rng(17);
  ir::Dfg dfg;
  mlgp::MlgpOptions mo;
  std::vector<ise::Candidate> parts;
  // random_dfg graphs occasionally yield no >=2-node parts; scan seeds.
  for (std::uint64_t seed = 17; parts.empty() && seed < 40; ++seed) {
    util::Rng r2(seed);
    dfg = isex::testing::random_dfg(r2, 3, 40, 0.1);
    parts = mlgp::generate_for_block(dfg, lib(), mo, r2);
  }
  ASSERT_FALSE(parts.empty());
  util::Bitset region(static_cast<std::size_t>(dfg.num_nodes()));
  for (const auto& reg : dfg.regions()) region |= reg;
  ASSERT_TRUE(check_partition(dfg, lib(), mo.constraints, region, parts).ok());

  auto overlap = parts;
  overlap.push_back(parts.front());
  EXPECT_FALSE(
      check_partition(dfg, lib(), mo.constraints, region, overlap).ok());

  util::Bitset shrunk = region;
  shrunk.reset(static_cast<std::size_t>(parts.front().nodes.to_vector()[0]));
  EXPECT_FALSE(
      check_partition(dfg, lib(), mo.constraints, shrunk, parts).ok());
}

TEST(CertifyCi, CurvePoolMutantsOverlapsAndStrayBlocksAreRejected) {
  // The pool a task curve was built from certifies clean. Each candidate
  // mutation, an overlapping candidate, and a candidate naming a block the
  // program lacks are rejected.
  const ir::Program prog = workloads::make_benchmark("sha");
  const auto& pool = workloads::cached_pool("sha");
  const ise::Constraints c =
      select::task_curve_options(prog).enum_opts.constraints;
  ASSERT_FALSE(pool.empty());
  const auto genuine = check_curve_pool(prog, lib(), c, pool);
  ASSERT_TRUE(genuine.ok()) << genuine.summary();
  for (const CandidateMutation m : kCandidateMutations) {
    bool applied = false;
    for (std::size_t i = 0; i < pool.size() && !applied; ++i) {
      auto mutant = pool;
      applied = apply(m, prog.block(pool[i].block).dfg, mutant[i]);
      if (applied) {
        EXPECT_FALSE(check_curve_pool(prog, lib(), c, mutant).ok())
            << "checker silently passed mutant " << name(m);
      }
    }
    EXPECT_TRUE(applied) << "mutation " << name(m)
                         << " applied to no candidate";
  }

  auto overlap = pool;
  overlap.push_back(pool.front());
  const auto rep = check_curve_pool(prog, lib(), c, overlap);
  bool disjoint = false;
  for (const auto& v : rep.violations)
    disjoint |= v.check == "partition.disjoint";
  EXPECT_TRUE(disjoint) << rep.summary();

  auto stray = pool;
  stray.front().block = prog.num_blocks();
  EXPECT_FALSE(check_curve_pool(prog, lib(), c, stray).ok());
}

// --- selection-feasibility certificates --------------------------------------

rt::TaskSet small_taskset() {
  auto ts = workloads::make_taskset({"crc32", "sha", "g721decode"}, 1.05);
  ts.sort_by_period();
  return ts;
}

TEST(CertifySched, GenuineEdfSelectionCertifiesClean) {
  const auto ts = small_taskset();
  const double budget = 0.5 * ts.max_area();
  const auto r = customize::select_edf(ts, budget);
  const auto rep = check_selection_edf(ts, budget, r);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(CertifySched, GenuineRmsSelectionCertifiesClean) {
  const auto ts = small_taskset();
  const double budget = 0.5 * ts.max_area();
  const auto r = customize::select_rms(ts, budget);
  const auto rep = check_selection_rms(ts, budget, r);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

TEST(CertifySched, EverySelectionMutationIsRejectedForEdf) {
  const auto ts = small_taskset();
  const double budget = 0.5 * ts.max_area();
  const auto genuine = customize::select_edf(ts, budget);
  ASSERT_TRUE(check_selection_edf(ts, budget, genuine).ok());
  for (const SelectionMutation m : kSelectionMutations) {
    customize::SelectionResult mutant = genuine;
    ASSERT_TRUE(apply(m, ts, mutant)) << name(m);
    EXPECT_FALSE(check_selection_edf(ts, budget, mutant).ok())
        << "checker silently passed mutant " << name(m);
  }
}

TEST(CertifySched, EverySelectionMutationIsRejectedForRms) {
  const auto ts = small_taskset();
  const double budget = 0.5 * ts.max_area();
  const auto genuine = customize::select_rms(ts, budget);
  ASSERT_TRUE(check_selection_rms(ts, budget, genuine).ok());
  for (const SelectionMutation m : kSelectionMutations) {
    customize::RmsResult mutant = genuine;
    ASSERT_TRUE(apply(m, ts, mutant)) << name(m);
    EXPECT_FALSE(check_selection_rms(ts, budget, mutant).ok())
        << "checker silently passed mutant " << name(m);
  }
}

TEST(CertifySched, SpotChecksAgreeWithGenuineAnswersAndCatchLies) {
  const auto ts = small_taskset();
  const double budget = 0.5 * ts.max_area();
  const auto edf = customize::select_edf(ts, budget);
  ASSERT_EQ(edf.status, robust::Status::kExact);
  const double grid = customize::EdfOptions{}.area_grid;
  auto rep = spot_check_edf(ts, budget, grid, edf, 2000000);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.checks, 0) << "spot check skipped a small instance";

  customize::SelectionResult lying = edf;
  lying.utilization += 0.05;  // claims a worse optimum than brute force finds
  EXPECT_FALSE(spot_check_edf(ts, budget, grid, lying, 2000000).ok());

  const auto rms = customize::select_rms(ts, budget);
  ASSERT_TRUE(rms.completed);
  rep = spot_check_rms(ts, budget, rms, 2000000);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.checks, 0);

  customize::RmsResult rms_lying = rms;
  rms_lying.utilization += 0.05;
  EXPECT_FALSE(spot_check_rms(ts, budget, rms_lying, 2000000).ok());
}

TEST(CertifySched, RtreconfigSolutionsCertifyCleanAndCorruptionsAreCaught) {
  rtreconfig::Problem p;
  util::Rng rng(23);
  for (int i = 0; i < 5; ++i) {
    rtreconfig::TaskCis t;
    t.name = "t" + std::to_string(i);
    t.period = 1000.0 * (i + 1);
    t.versions.push_back({0.0, 400.0 * (i + 1)});
    for (int v = 1; v <= 2; ++v)
      t.versions.push_back(
          {static_cast<double>(5 * v), 400.0 * (i + 1) / (1 + v)});
    p.tasks.push_back(std::move(t));
  }
  p.max_area = 8;
  p.reconfig_cost = 20;
  for (const auto& s :
       {rtreconfig::dp_partition(p), rtreconfig::static_partition(p)}) {
    ASSERT_TRUE(check_rtreconfig(p, s).ok());
    auto bad_util = s;
    bad_util.utilization += 0.5;
    EXPECT_FALSE(check_rtreconfig(p, bad_util).ok());
    auto bad_flag = s;
    bad_flag.schedulable = !bad_flag.schedulable;
    EXPECT_FALSE(check_rtreconfig(p, bad_flag).ok());
    auto mismatch = s;
    if (!mismatch.version.empty()) {
      mismatch.version[0] = 1;
      mismatch.config[0] = -1;  // hardware version with no configuration
      EXPECT_FALSE(check_rtreconfig(p, mismatch).ok());
    }
  }
}

// --- Pareto certificates -----------------------------------------------------

pareto::Front sample_front() {
  std::vector<pareto::Item> items;
  util::Rng rng(29);
  for (int i = 0; i < 10; ++i)
    items.push_back({1 + static_cast<int>(rng.uniform_int(1, 6)),
                     static_cast<double>(rng.uniform_int(5, 50))});
  return pareto::exact_workload_front(items, 500);
}

TEST(CertifyPareto, GenuineFrontsCertifyCleanIncludingEpsCover) {
  const auto exact = sample_front();
  ASSERT_GE(exact.size(), 2u);
  EXPECT_TRUE(check_front(exact, "exact").ok());
  std::vector<pareto::Item> items;
  util::Rng rng(29);
  for (int i = 0; i < 10; ++i)
    items.push_back({1 + static_cast<int>(rng.uniform_int(1, 6)),
                     static_cast<double>(rng.uniform_int(5, 50))});
  const auto approx = pareto::approx_workload_front(items, 500, 0.3);
  EXPECT_TRUE(check_front(approx, "approx").ok());
  EXPECT_TRUE(check_eps_cover(exact, approx, 0.3).ok());
}

TEST(CertifyPareto, EveryFrontMutationIsRejected) {
  const auto genuine = sample_front();
  ASSERT_GE(genuine.size(), 2u);
  ASSERT_TRUE(check_front(genuine, "front").ok());
  for (const FrontMutation m : kFrontMutations) {
    pareto::Front mutant = genuine;
    ASSERT_TRUE(apply(m, mutant)) << name(m);
    EXPECT_FALSE(check_front(mutant, "front").ok())
        << "checker silently passed mutant " << name(m);
  }
}

TEST(CertifyPareto, MissingCoverageFailsTheEpsCoverCheck) {
  const pareto::Front exact = {{1, 100}, {5, 50}, {9, 10}};
  const pareto::Front gappy = {{1, 100}};  // nothing near (9, 10)
  EXPECT_FALSE(check_eps_cover(exact, gappy, 0.1).ok());
  EXPECT_FALSE(check_eps_cover(exact, {}, 0.1).ok());
}

/// The exact front over the knapsack items benchmark k's task curve came
/// from, on the curve's 0.25-adder grid (what `isex certify` checks).
pareto::Front task_items_front(const std::string& k) {
  std::vector<std::pair<double, double>> ag;
  for (const auto& it : workloads::cached_items(k))
    ag.emplace_back(it.area, it.gain);
  return pareto::exact_workload_front(pareto::quantize_items(ag, 0.25),
                                      workloads::cached_task(k).sw_cycles());
}

constexpr const char* kCurveKernels[] = {"crc32", "sha", "adpcm_enc",
                                         "blowfish"};

TEST(CertifyPareto, GenuineTaskCurvesLieOnTheirExactFront) {
  for (const char* k : kCurveKernels) {
    const auto& curve = workloads::cached_task(k).configs;
    ASSERT_GE(curve.size(), 2u) << k;
    const CertifyReport r =
        check_curve_on_front(curve, task_items_front(k), 0.25, k);
    EXPECT_TRUE(r.ok()) << r.summary();
    EXPECT_GT(r.checks, 0) << k;
  }
}

TEST(CertifyPareto, CurvePointOffTheExactFrontIsRejected) {
  for (const char* k : kCurveKernels) {
    const auto& genuine = workloads::cached_task(k).configs;
    const auto exact = task_items_front(k);
    for (std::size_t i = 0; i < genuine.size(); ++i)
      for (const int dir : {-1, 1}) {
        auto moved = genuine;
        moved[i].cycles += dir;
        EXPECT_FALSE(check_curve_on_front(moved, exact, 0.25, k).ok())
            << k << " point #" << i << " cycles " << dir;
        auto shifted = genuine;
        shifted[i].area += dir * 0.25;
        EXPECT_FALSE(check_curve_on_front(shifted, exact, 0.25, k).ok())
            << k << " point #" << i << " area " << dir << " grid step";
      }
  }
}

// --- ladder integration ------------------------------------------------------

TEST(CertifyLadder, FailedCertificateDemotesTheRung) {
  using R = int;
  std::vector<std::pair<std::string, std::function<robust::Outcome<R>(
                                         robust::Budget*)>>>
      rungs;
  rungs.emplace_back("bogus", [](robust::Budget*) {
    robust::Outcome<R> r;
    r.value = -1;  // the certifier below rejects negative answers
    return r;
  });
  rungs.emplace_back("honest", [](robust::Budget*) {
    robust::Outcome<R> r;
    r.value = 42;
    return r;
  });
  const std::uint64_t before =
      obs::Registry::global().counter("certify.rung_demotions").get();
  std::function<CertifyReport(const robust::Outcome<R>&)> certifier =
      [](const robust::Outcome<R>& o) {
        CertifyReport rep;
        if (o.value < 0)
          rep.fail("test.sign", "negative answer");
        else
          rep.pass();
        return rep;
      };
  const auto out = robust::solve_with_fallback<R>(
      nullptr, robust::FallbackOptions{}, rungs,
      [](const robust::Outcome<R>& a, const robust::Outcome<R>& b) {
        return a.value > b.value;
      },
      certifier);
  EXPECT_EQ(out.value, 42);
  EXPECT_TRUE(out.certificate.ok());
  EXPECT_NE(out.detail.find("bogus:certify-failed"), std::string::npos)
      << out.detail;
  EXPECT_EQ(out.status, robust::Status::kDegraded);
#if ISEX_OBS_ENABLED
  EXPECT_EQ(obs::Registry::global().counter("certify.rung_demotions").get(),
            before + 1);
#else
  (void)before;
#endif
}

TEST(CertifyLadder, AllRungsFailingReturnsTheFailedCertificate) {
  using R = int;
  std::vector<std::pair<std::string, std::function<robust::Outcome<R>(
                                         robust::Budget*)>>>
      rungs;
  for (const char* n : {"r0", "r1"})
    rungs.emplace_back(n, [](robust::Budget*) {
      robust::Outcome<R> r;
      r.value = -1;
      return r;
    });
  std::function<CertifyReport(const robust::Outcome<R>&)> certifier =
      [](const robust::Outcome<R>&) {
        CertifyReport rep;
        rep.fail("test.always", "rejected");
        return rep;
      };
  const auto out = robust::solve_with_fallback<R>(
      nullptr, robust::FallbackOptions{}, rungs,
      [](const robust::Outcome<R>& a, const robust::Outcome<R>& b) {
        return a.value > b.value;
      },
      certifier);
  EXPECT_FALSE(out.certificate.ok());
}

TEST(CertifyLadder, RealLaddersCarryPassingCertificates) {
  const auto ts = small_taskset();
  const double budget = 0.5 * ts.max_area();
  robust::Budget b;
  b.set_node_budget(1000000);
  const auto edf = robust::select_edf_with_fallback(
      ts, budget, customize::EdfOptions{}, &b);
  EXPECT_TRUE(edf.certificate.ok()) << edf.certificate.summary();
  EXPECT_GT(edf.certificate.checks, 0);
  robust::Budget b2;
  b2.set_node_budget(1000000);
  const auto rms = robust::select_rms_with_fallback(
      ts, budget, customize::RmsOptions{}, &b2);
  EXPECT_TRUE(rms.certificate.ok()) << rms.certificate.summary();

}

// --- cell-library validation -------------------------------------------------

std::array<hw::OpCost, ir::kNumOpcodes> uniform_table() {
  std::array<hw::OpCost, ir::kNumOpcodes> t{};
  for (auto& c : t) c = hw::OpCost{1, 1.0, 1.0};
  return t;
}

TEST(CellLibraryValidate, ShippedLibrariesAreValid) {
  EXPECT_EQ(hw::CellLibrary::standard_018um().validate(), "");
  EXPECT_EQ(hw::CellLibrary::conservative_018um().validate(), "");
}

TEST(CellLibraryValidate, CorruptEntriesAreDiagnosedByName) {
  {
    auto t = uniform_table();
    t[static_cast<std::size_t>(ir::Opcode::kAdd)].area = 0;
    const hw::CellLibrary bad(t, 8.33);
    EXPECT_NE(bad.validate().find("add"), std::string::npos)
        << bad.validate();
  }
  {
    auto t = uniform_table();
    t[static_cast<std::size_t>(ir::Opcode::kMul)].hw_latency_ns = -1;
    EXPECT_FALSE(hw::CellLibrary(t, 8.33).validate().empty());
  }
  {
    auto t = uniform_table();
    t[static_cast<std::size_t>(ir::Opcode::kLoad)].sw_cycles = 0;
    EXPECT_FALSE(hw::CellLibrary(t, 8.33).validate().empty());
  }
  EXPECT_FALSE(hw::CellLibrary(uniform_table(), 0).validate().empty());
  EXPECT_FALSE(hw::CellLibrary(uniform_table(), 8.33, 0, -1).validate().empty());
}

}  // namespace
}  // namespace isex::certify
