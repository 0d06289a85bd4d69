#include "isex/select/config_curve.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "isex/codegen/schedule.hpp"
#include "test_util.hpp"

namespace isex::select {
namespace {

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

ir::Program one_block_program(util::Rng& rng, int ops) {
  ir::Program p("t");
  const int b = p.add_block("bb0");
  p.block(b).dfg = isex::testing::random_dfg(rng, 4, ops, 0.08);
  p.set_root(p.stmt_loop(100, p.stmt_block(b)));
  return p;
}

TEST(DisjointPool, NoOverlapAndPositiveGain) {
  util::Rng rng(11);
  const auto d = isex::testing::random_dfg(rng, 4, 40, 0.1);
  auto cands = ise::enumerate_candidates(d, lib(), ise::EnumOptions{}, 0, 50);
  const auto pool = disjoint_pool(d, std::move(cands));
  auto covered = d.empty_set();
  for (const auto& c : pool) {
    EXPECT_GT(c.total_gain(), 0);
    EXPECT_FALSE(c.nodes.intersects(covered));
    covered |= c.nodes;
  }
}

// disjoint_pool without the reachability fast path: every candidate gets
// the full contracted-graph check.
std::vector<ise::Candidate> slow_disjoint_pool(
    const ir::Dfg& dfg, std::vector<ise::Candidate> cands) {
  std::sort(cands.begin(), cands.end(),
            [](const ise::Candidate& a, const ise::Candidate& b) {
              if (a.total_gain() != b.total_gain())
                return a.total_gain() > b.total_gain();
              const double da = a.est.area > 0 ? a.total_gain() / a.est.area : 1e18;
              const double db = b.est.area > 0 ? b.total_gain() / b.est.area : 1e18;
              return da > db;
            });
  util::Bitset covered = dfg.empty_set();
  std::vector<ise::Candidate> pool;
  std::vector<util::Bitset> accepted;
  for (auto& c : cands) {
    if (c.total_gain() <= 0 || c.nodes.intersects(covered)) continue;
    accepted.push_back(c.nodes);
    if (!codegen::jointly_schedulable(dfg, accepted)) {
      accepted.pop_back();
      continue;
    }
    covered |= c.nodes;
    pool.push_back(std::move(c));
  }
  return pool;
}

// Random candidate lists: the enumerated (convex) library plus random valid
// node subsets, many of them non-convex or disconnected. The pool must be
// the one the full check alone builds.
TEST(DisjointPool, FastPathMatchesFullCheck) {
  for (int seed = 0; seed < 20; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 7 + 1);
    const auto d = isex::testing::random_dfg(rng, 4, 25 + 3 * seed, 0.1);
    auto cands = ise::enumerate_candidates(d, lib(), ise::EnumOptions{}, 0, 50);
    std::vector<int> valid;
    for (int v = 0; v < d.num_nodes(); ++v)
      if (d.valid_mask().test(static_cast<std::size_t>(v)) &&
          d.node(v).op != ir::Opcode::kConst)
        valid.push_back(v);
    for (int k = 0; k < 60 && valid.size() >= 2; ++k) {
      auto s = d.empty_set();
      const int size = rng.uniform_int(2, 5);
      for (int i = 0; i < size; ++i)
        s.set(static_cast<std::size_t>(
            valid[static_cast<std::size_t>(rng.uniform_int(
                0, static_cast<int>(valid.size()) - 1))]));
      cands.push_back(ise::make_candidate(d, s, lib(), 0, 50));
    }
    std::shuffle(cands.begin(), cands.end(), rng.engine());
    const auto fast = disjoint_pool(d, cands);
    const auto slow = slow_disjoint_pool(d, cands);
    ASSERT_EQ(fast.size(), slow.size()) << "seed " << seed;
    for (std::size_t i = 0; i < fast.size(); ++i)
      EXPECT_EQ(fast[i].nodes, slow[i].nodes) << "seed " << seed << " #" << i;
  }
}

// Two individually convex CIs that feed each other: A = {a1, a2} and
// B = {b1, b2} with a1 -> b1 and b2 -> a2. Contracted, A -> B -> A is a
// cycle, so only one of them may enter the pool.
TEST(DisjointPool, RejectsTwoCiCycle) {
  ir::Dfg d;
  const auto x = d.add(ir::Opcode::kInput);
  const auto y = d.add(ir::Opcode::kInput);
  const auto a1 = d.add(ir::Opcode::kMul, {x, y});
  const auto b2 = d.add(ir::Opcode::kMul, {y, x});
  const auto b1 = d.add(ir::Opcode::kMul, {a1, b2});
  const auto a2 = d.add(ir::Opcode::kMul, {a1, b2});
  d.mark_live_out(b1);
  d.mark_live_out(a2);
  auto a = d.empty_set(), b = d.empty_set();
  a.set(static_cast<std::size_t>(a1));
  a.set(static_cast<std::size_t>(a2));
  b.set(static_cast<std::size_t>(b1));
  b.set(static_cast<std::size_t>(b2));
  ASSERT_TRUE(d.is_convex(a));
  ASSERT_TRUE(d.is_convex(b));
  ASSERT_FALSE(codegen::jointly_schedulable(d, {a, b}));
  std::vector<ise::Candidate> cands = {ise::make_candidate(d, a, lib(), 0, 10),
                                       ise::make_candidate(d, b, lib(), 0, 10)};
  ASSERT_GT(cands[0].total_gain(), 0);
  ASSERT_GT(cands[1].total_gain(), 0);
  const auto pool = disjoint_pool(d, cands);
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_TRUE(pool[0].nodes == a || pool[0].nodes == b);
}

class CurveProperty : public ::testing::TestWithParam<int> {};

TEST_P(CurveProperty, CurveIsAValidParetoStaircase) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 13);
  ir::Program p = one_block_program(rng, 50);
  const auto counts = p.wcet_counts(ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); }));
  const auto curve =
      build_config_curve(p, counts, lib(), CurveOptions{}).curve;
  ASSERT_GE(curve.points.size(), 1u);
  EXPECT_DOUBLE_EQ(curve.points.front().area, 0.0);
  for (std::size_t i = 1; i < curve.points.size(); ++i) {
    EXPECT_GT(curve.points[i].area, curve.points[i - 1].area);
    EXPECT_LT(curve.points[i].cycles, curve.points[i - 1].cycles);
  }
  // cycles_at is monotone non-increasing in the budget.
  double prev = curve.cycles_at(0);
  for (double a = 0; a <= curve.max_area() + 1; a += 1.0) {
    const double c = curve.cycles_at(a);
    EXPECT_LE(c, prev + 1e-9);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(curve.cycles_at(1e18), curve.best_cycles());
}

TEST_P(CurveProperty, GainNeverExceedsBaseCycles) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 43 + 7);
  ir::Program p = one_block_program(rng, 30);
  const auto counts = p.wcet_counts(ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); }));
  const auto curve =
      build_config_curve(p, counts, lib(), CurveOptions{}).curve;
  for (const auto& pt : curve.points) {
    EXPECT_GT(pt.cycles, 0);
    EXPECT_LE(pt.cycles, curve.base_cycles());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CurveProperty, ::testing::Range(0, 10));

TEST(Curve, IsomorphicSharingNeverWorse) {
  // A program whose block repeats the same (a+b)<<c datapath 4 times: with
  // sharing, one implementation's area unlocks all four gains.
  ir::Program p("iso");
  const int b = p.add_block("bb0");
  auto& d = p.block(b).dfg;
  for (int k = 0; k < 4; ++k) {
    const auto x = d.add(ir::Opcode::kInput);
    const auto y = d.add(ir::Opcode::kInput);
    const auto m1 = d.add(ir::Opcode::kMul, {x, y});
    const auto m2 = d.add(ir::Opcode::kMul, {m1, y});
    const auto a2 = d.add(ir::Opcode::kAdd, {m2, x});
    d.mark_live_out(a2);
  }
  p.set_root(p.stmt_loop(10, p.stmt_block(b)));
  const auto counts = p.wcet_counts(ir::Program::sum_cost(
      [](const ir::Node& n) { return lib().sw_cycles(n); }));
  CurveOptions shared;
  CurveOptions solo;
  solo.share_isomorphic = false;
  const auto cs = build_config_curve(p, counts, lib(), shared).curve;
  const auto cn = build_config_curve(p, counts, lib(), solo).curve;
  // At every budget, sharing achieves at most the unshared cycle count.
  for (double a = 0; a <= cn.max_area(); a += 5)
    EXPECT_LE(cs.cycles_at(a), cn.cycles_at(a) + 1e-9);
  // And the max areas differ: sharing needs one implementation only.
  EXPECT_LT(cs.max_area(), cn.max_area());
}

}  // namespace
}  // namespace isex::select
