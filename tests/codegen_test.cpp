// Code-generation tests: evaluation semantics, the convexity <=>
// atomic-schedulability equivalence, functional equivalence of customized
// schedules, and the code-size reduction claim.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "isex/codegen/schedule.hpp"
#include "isex/ise/enumerate.hpp"
#include "isex/mlgp/mlgp.hpp"
#include "isex/select/config_curve.hpp"
#include "test_util.hpp"

namespace isex::codegen {
namespace {

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

TEST(Evaluate, OpcodeSemantics) {
  ir::Dfg d;
  const auto a = d.add(ir::Opcode::kInput);
  const auto b = d.add(ir::Opcode::kInput);
  const auto sum = d.add(ir::Opcode::kAdd, {a, b});
  const auto diff = d.add(ir::Opcode::kSub, {a, b});
  const auto prod = d.add(ir::Opcode::kMul, {a, b});
  const auto shl = d.add(ir::Opcode::kShl, {a, b});
  const auto cmp = d.add(ir::Opcode::kCmp, {a, b});
  const auto sel = d.add(ir::Opcode::kSelect, {cmp, sum, diff});
  const auto values = ir::evaluate(d, {6, 3});
  EXPECT_EQ(values[static_cast<std::size_t>(sum)], 9);
  EXPECT_EQ(values[static_cast<std::size_t>(diff)], 3);
  EXPECT_EQ(values[static_cast<std::size_t>(prod)], 18);
  EXPECT_EQ(values[static_cast<std::size_t>(shl)], 48);
  EXPECT_EQ(values[static_cast<std::size_t>(cmp)], 0);   // 6 < 3 is false
  EXPECT_EQ(values[static_cast<std::size_t>(sel)], 3);   // picks diff
}

TEST(Evaluate, DeterministicRomAndConsts) {
  ir::Dfg d;
  const auto i = d.add(ir::Opcode::kInput);
  const auto ld = d.add(ir::Opcode::kLoad, {i});
  const auto c = d.add(ir::Opcode::kConst);
  d.mark_live_out(d.add(ir::Opcode::kXor, {ld, c}));
  const auto v1 = ir::evaluate(d, {42});
  const auto v2 = ir::evaluate(d, {42});
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(v1[1], ir::pseudo_rom(42));
}

TEST(Lower, RejectsNonConvexCi) {
  // add -> mul -> shl; {add, shl} skips the mul in the middle.
  ir::Dfg d;
  const auto i = d.add(ir::Opcode::kInput);
  const auto a = d.add(ir::Opcode::kAdd, {i, i});
  const auto m = d.add(ir::Opcode::kMul, {a, i});
  const auto s = d.add(ir::Opcode::kShl, {m, i});
  d.mark_live_out(s);
  auto bad = d.empty_set();
  bad.set(static_cast<std::size_t>(a));
  bad.set(static_cast<std::size_t>(s));
  EXPECT_THROW(lower(d, {bad}), std::invalid_argument);
  auto good = bad;
  good.set(static_cast<std::size_t>(m));
  EXPECT_NO_THROW(lower(d, {good}));
}

TEST(Lower, RejectsOverlappingCis) {
  ir::Dfg d;
  const auto i = d.add(ir::Opcode::kInput);
  const auto a = d.add(ir::Opcode::kAdd, {i, i});
  const auto b = d.add(ir::Opcode::kXor, {a, i});
  d.mark_live_out(b);
  auto s1 = d.empty_set();
  s1.set(static_cast<std::size_t>(a));
  s1.set(static_cast<std::size_t>(b));
  auto s2 = d.empty_set();
  s2.set(static_cast<std::size_t>(b));
  EXPECT_THROW(lower(d, {s1, s2}), std::invalid_argument);
}

// Property: convexity is exactly atomic schedulability.
class ConvexityScheduling : public ::testing::TestWithParam<int> {};

TEST_P(ConvexityScheduling, ConvexIffLowerable) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 31);
  const ir::Dfg d = isex::testing::random_dfg(rng, 3, 16, 0.1);
  // Random node subsets of valid ops.
  for (int trial = 0; trial < 40; ++trial) {
    auto s = d.empty_set();
    for (int v = 0; v < d.num_nodes(); ++v)
      if (ir::is_valid_for_ci(d.node(v).op) &&
          d.node(v).op != ir::Opcode::kConst && rng.chance(0.3))
        s.set(static_cast<std::size_t>(v));
    if (s.none()) continue;
    const bool convex = d.is_convex(s);
    bool lowered = true;
    try {
      lower(d, {s});
    } catch (const std::invalid_argument&) {
      lowered = false;
    }
    EXPECT_EQ(convex, lowered);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvexityScheduling, ::testing::Range(0, 12));

// Property: a customized schedule computes exactly the software values.
class FunctionalEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(FunctionalEquivalence, CustomizedScheduleMatchesEvaluate) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 277 + 37);
  const ir::Dfg d = isex::testing::random_dfg(rng, 4, 60, 0.08);
  // Use MLGP's disjoint CIs as the selection.
  util::Rng algo(5);
  const auto cis = mlgp::generate_for_block(d, lib(), mlgp::MlgpOptions{}, algo);
  std::vector<util::Bitset> sets;
  for (const auto& c : cis) sets.push_back(c.nodes);
  const auto block = lower(d, sets);

  std::vector<std::int64_t> inputs;
  for (int k = 0; k < 8; ++k) inputs.push_back(rng.uniform_i64(-1000, 1000));
  const auto sw = ir::evaluate(d, inputs);
  const auto hw = execute(d, block, inputs);
  for (int v = 0; v < d.num_nodes(); ++v)
    if (ir::produces_value(d.node(v).op))
      EXPECT_EQ(sw[static_cast<std::size_t>(v)],
                hw[static_cast<std::size_t>(v)])
          << "node " << v;
}

TEST_P(FunctionalEquivalence, CodeSizeShrinks) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 281 + 41);
  const ir::Dfg d = isex::testing::random_dfg(rng, 4, 50, 0.05);
  util::Rng algo(5);
  const auto cis = mlgp::generate_for_block(d, lib(), mlgp::MlgpOptions{}, algo);
  std::vector<util::Bitset> sets;
  std::size_t packed = 0;
  for (const auto& c : cis) {
    sets.push_back(c.nodes);
    packed += c.nodes.count();
  }
  const auto plain = lower(d, {});
  const auto custom = lower(d, sets);
  EXPECT_EQ(custom.length(), plain.length() - packed + sets.size());
  if (!sets.empty()) EXPECT_LT(custom.length(), plain.length());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FunctionalEquivalence, ::testing::Range(0, 12));

// --- jointly_schedulable against the contracted-graph original ------------

// jointly_schedulable() as it was first written: build the contracted graph
// as edge lists, then Kahn-sort it with a std::queue.
bool jointly_schedulable_original(const ir::Dfg& dfg,
                                  const std::vector<util::Bitset>& cis) {
  const auto n = static_cast<std::size_t>(dfg.num_nodes());
  std::vector<int> super(n, -1);
  for (std::size_t c = 0; c < cis.size(); ++c) {
    bool overlap = false;
    cis[c].for_each([&](std::size_t v) {
      if (super[v] >= 0) overlap = true;
      super[v] = static_cast<int>(c);
    });
    if (overlap) return false;
  }
  int num_super = static_cast<int>(cis.size());
  for (std::size_t v = 0; v < n; ++v) {
    const auto op = dfg.node(static_cast<int>(v)).op;
    if (super[v] >= 0 || op == ir::Opcode::kInput || op == ir::Opcode::kConst)
      continue;
    super[v] = num_super++;
  }
  std::vector<std::vector<int>> succ(static_cast<std::size_t>(num_super));
  std::vector<int> indegree(static_cast<std::size_t>(num_super), 0);
  for (std::size_t v = 0; v < n; ++v) {
    const int sv = super[v];
    if (sv < 0) continue;
    for (ir::NodeId o : dfg.node(static_cast<int>(v)).operands) {
      const int so = super[static_cast<std::size_t>(o)];
      if (so < 0 || so == sv) continue;
      succ[static_cast<std::size_t>(so)].push_back(sv);
      ++indegree[static_cast<std::size_t>(sv)];
    }
  }
  std::queue<int> ready;
  for (int s = 0; s < num_super; ++s)
    if (indegree[static_cast<std::size_t>(s)] == 0) ready.push(s);
  int seen = 0;
  while (!ready.empty()) {
    const int s = ready.front();
    ready.pop();
    ++seen;
    for (int t : succ[static_cast<std::size_t>(s)])
      if (--indegree[static_cast<std::size_t>(t)] == 0) ready.push(t);
  }
  return seen == num_super;
}

// Random CI sets over random blocks: mostly enumerated (convex) candidates,
// some random node sets that need not be convex, some overlapping. One
// scratch serves every query, as in select::disjoint_pool.
TEST(JointlySchedulable, MatchesTheOriginalOnRandomCiSets) {
  ScheduleScratch scratch;
  int yes = 0, no = 0;
  for (int seed = 0; seed < 40; ++seed) {
    util::Rng rng(static_cast<std::uint64_t>(seed) * 61 + 19);
    const ir::Dfg d = isex::testing::random_dfg(rng, 4, 20 + seed * 2, 0.1);
    ise::EnumOptions opts;
    opts.max_candidates = 3000;
    const auto cands = ise::enumerate_connected(d, lib(), opts);
    if (cands.empty()) continue;
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<util::Bitset> cis;
      const int k = rng.uniform_int(1, 6);
      for (int i = 0; i < k; ++i) {
        if (rng.chance(0.2)) {
          util::Bitset r = d.empty_set();
          for (int j = rng.uniform_int(1, 4); j > 0; --j)
            r.set(static_cast<std::size_t>(
                rng.uniform_int(0, d.num_nodes() - 1)));
          cis.push_back(std::move(r));
        } else {
          cis.push_back(cands[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<int>(cands.size()) - 1))]
                            .nodes);
        }
      }
      // Usually keep the set disjoint, the case the pool builder asks about.
      if (rng.chance(0.8)) {
        util::Bitset covered = d.empty_set();
        std::erase_if(cis, [&](const util::Bitset& c) {
          if (c.intersects(covered)) return true;
          covered |= c;
          return false;
        });
      }
      const bool want = jointly_schedulable_original(d, cis);
      ASSERT_EQ(jointly_schedulable(d, cis, scratch), want)
          << "seed " << seed << " trial " << trial;
      ASSERT_EQ(jointly_schedulable(d, cis), want);
      (want ? yes : no) += 1;
    }
  }
  // Both answers are exercised, not just the easy one.
  EXPECT_GT(yes, 200);
  EXPECT_GT(no, 200);
}

}  // namespace
}  // namespace isex::codegen
