#include "isex/ise/enumerate.hpp"

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "isex/obs/metrics.hpp"
#include "isex/robust/budget.hpp"
#include "isex/workloads/workloads.hpp"
#include "test_util.hpp"

namespace isex::ise {
namespace {

const hw::CellLibrary& lib() { return hw::CellLibrary::standard_018um(); }

// Property suite over random DFGs: every emitted candidate is legal, and on
// small graphs the connected enumerator finds every *connected* legal subgraph.
class EnumerateProperty : public ::testing::TestWithParam<int> {};

TEST_P(EnumerateProperty, AllCandidatesAreLegal) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 3);
  const ir::Dfg d = isex::testing::random_dfg(rng, 3, 40, 0.1);
  EnumOptions opts;
  const auto cands = enumerate_candidates(d, lib(), opts);
  for (const auto& c : cands) {
    EXPECT_TRUE(is_legal(d, c.nodes, opts.constraints));
    EXPECT_EQ(c.num_inputs, d.input_count(c.nodes));
    EXPECT_EQ(c.num_outputs, d.output_count(c.nodes));
    EXPECT_GE(c.nodes.count(), 2u);
  }
}

TEST_P(EnumerateProperty, NoDuplicates) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 5);
  const ir::Dfg d = isex::testing::random_dfg(rng, 3, 30, 0.1);
  const auto cands = enumerate_candidates(d, lib(), EnumOptions{});
  std::unordered_set<util::Bitset, util::BitsetHash> seen;
  for (const auto& c : cands)
    EXPECT_TRUE(seen.insert(c.nodes).second) << "duplicate candidate";
}

TEST_P(EnumerateProperty, FindsEveryConnectedLegalSubgraphOnSmallGraphs) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 29 + 11);
  const ir::Dfg d = isex::testing::random_dfg(rng, 2, 10, 0.1);
  EnumOptions opts;
  const auto cands = enumerate_connected(d, lib(), opts);
  std::unordered_set<util::Bitset, util::BitsetHash> emitted;
  for (const auto& c : cands) emitted.insert(c.nodes);

  // Ground truth: all legal subsets, filtered to connected ones.
  for (const auto& s : isex::testing::brute_force_legal(d, opts.constraints)) {
    // Connectivity check (undirected) over s.
    const auto ids = s.to_vector();
    util::Bitset reached = d.empty_set();
    std::vector<int> stack{ids[0]};
    reached.set(static_cast<std::size_t>(ids[0]));
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      auto visit = [&](ir::NodeId u) {
        if (s.test(static_cast<std::size_t>(u)) &&
            !reached.test(static_cast<std::size_t>(u))) {
          reached.set(static_cast<std::size_t>(u));
          stack.push_back(u);
        }
      };
      for (auto o : d.node(v).operands) visit(o);
      for (auto c : d.node(v).consumers) visit(c);
    }
    if (reached != s) continue;  // disconnected; growth enumerator skips these
    EXPECT_TRUE(emitted.count(s)) << "missing connected legal subgraph of size "
                                  << s.count();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerateProperty, ::testing::Range(0, 15));

TEST(MaximalMiso, SingleOutputByConstruction) {
  util::Rng rng(99);
  const ir::Dfg d = isex::testing::random_dfg(rng, 3, 50, 0.1);
  for (const auto& m : maximal_misos(d, lib(), Constraints{})) {
    EXPECT_EQ(m.num_outputs, 1);
    EXPECT_TRUE(d.is_convex(m.nodes));
    EXPECT_LE(m.num_inputs, 4);
  }
}

TEST(MaximalMiso, GrowsChainCompletely) {
  // a -> b -> c chain collapses into one MaxMISO rooted at c.
  ir::Dfg d;
  const auto i = d.add(ir::Opcode::kInput);
  const auto a = d.add(ir::Opcode::kAdd, {i, i});
  const auto b = d.add(ir::Opcode::kXor, {a, i});
  const auto c = d.add(ir::Opcode::kShl, {b, i});
  d.mark_live_out(c);
  const auto misos = maximal_misos(d, lib(), Constraints{});
  bool found_full = false;
  for (const auto& m : misos)
    if (m.nodes.count() == 3) {
      found_full = true;
      EXPECT_TRUE(m.nodes.test(static_cast<std::size_t>(a)));
      EXPECT_TRUE(m.nodes.test(static_cast<std::size_t>(b)));
      EXPECT_TRUE(m.nodes.test(static_cast<std::size_t>(c)));
    }
  EXPECT_TRUE(found_full);
}

TEST(IsoHash, IsomorphicShapesCollide) {
  // Two separate (a+b)*c datapaths in one block.
  ir::Dfg d;
  const auto i0 = d.add(ir::Opcode::kInput);
  const auto i1 = d.add(ir::Opcode::kInput);
  const auto i2 = d.add(ir::Opcode::kInput);
  const auto a1 = d.add(ir::Opcode::kAdd, {i0, i1});
  const auto m1 = d.add(ir::Opcode::kMul, {a1, i2});
  const auto a2 = d.add(ir::Opcode::kAdd, {i1, i2});
  const auto m2 = d.add(ir::Opcode::kMul, {a2, i0});
  d.mark_live_out(m1);
  d.mark_live_out(m2);
  auto s1 = d.empty_set();
  s1.set(static_cast<std::size_t>(a1));
  s1.set(static_cast<std::size_t>(m1));
  auto s2 = d.empty_set();
  s2.set(static_cast<std::size_t>(a2));
  s2.set(static_cast<std::size_t>(m2));
  EXPECT_EQ(iso_hash(d, s1), iso_hash(d, s2));

  // A different shape (add feeding add) must not collide.
  auto s3 = d.empty_set();
  s3.set(static_cast<std::size_t>(a1));
  s3.set(static_cast<std::size_t>(a2));
  EXPECT_NE(iso_hash(d, s1), iso_hash(d, s3));
}

TEST(Estimate, ChainedAddsFitOneCycle) {
  ir::Dfg d;
  const auto i = d.add(ir::Opcode::kInput);
  auto prev = d.add(ir::Opcode::kAdd, {i, i});
  auto s = d.empty_set();
  s.set(static_cast<std::size_t>(prev));
  for (int k = 0; k < 3; ++k) {
    prev = d.add(ir::Opcode::kAdd, {prev, i});
    s.set(static_cast<std::size_t>(prev));
  }
  d.mark_live_out(prev);
  const auto e = hw::estimate(d, s, lib());
  // 4 chained 2ns adders = 8ns < 8.33ns clock: 1 hardware cycle, 4 sw cycles.
  EXPECT_EQ(e.hw_cycles, 1);
  EXPECT_DOUBLE_EQ(e.sw_cycles, 4);
  EXPECT_DOUBLE_EQ(e.gain_per_exec, 3);
  EXPECT_NEAR(e.area, 4.0, 1e-9);
}

// --- differential: the growth enumerator against a naive reference --------

// The straightforward search the shipped enumerator must reproduce: the
// Dfg::input_count/output_count/is_convex queries on every grow call, a
// frontier rebuilt from every member, a std::set visited set. Same seed
// order, ascending frontier, visit-once rule, cap and legality test order.
struct ReferenceEnumerator {
  const ir::Dfg& d;
  const EnumOptions& o;
  long budget = o.max_candidates;
  std::set<std::vector<int>> visited = {};
  std::vector<util::Bitset> out = {};
  long grow_calls = 0, input_rejects = 0, output_rejects = 0,
       convexity_rejects = 0;

  void run() {
    for (int seed = 0; seed < d.num_nodes(); ++seed) {
      if (!ir::is_valid_for_ci(d.node(seed).op) ||
          d.node(seed).op == ir::Opcode::kConst)
        continue;
      util::Bitset s = d.empty_set();
      s.set(static_cast<std::size_t>(seed));
      grow(s, seed);
      if (budget <= 0) break;
    }
  }

  void grow(const util::Bitset& s, int seed) {
    if (budget <= 0) return;
    --budget;
    ++grow_calls;
    if (s.count() >= 2) {
      if (d.input_count(s) > o.constraints.max_inputs) ++input_rejects;
      else if (d.output_count(s) > o.constraints.max_outputs) ++output_rejects;
      else if (!d.is_convex(s)) ++convexity_rejects;
      else out.push_back(s);
    }
    if (s.count() >= static_cast<std::size_t>(o.max_candidate_nodes)) return;
    std::set<int> frontier;
    s.for_each([&](std::size_t v) {
      auto consider = [&](ir::NodeId u) {
        if (u > seed && !s.test(static_cast<std::size_t>(u)) &&
            ir::is_valid_for_ci(d.node(u).op) &&
            d.node(u).op != ir::Opcode::kConst)
          frontier.insert(u);
      };
      for (auto x : d.node(static_cast<int>(v)).operands) consider(x);
      for (auto x : d.node(static_cast<int>(v)).consumers) consider(x);
    });
    for (int u : frontier) {
      util::Bitset t = s;
      t.set(static_cast<std::size_t>(u));
      if (visited.insert(t.to_vector()).second) grow(t, seed);
    }
  }
};

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).get();
}

// Runs both enumerators and compares the candidate node-set sequence and,
// with obs compiled in, the grow/reject counters.
void expect_matches_reference(const ir::Dfg& d, long cap,
                              const std::string& what) {
  EnumOptions opts;
  opts.max_candidates = cap;
  ReferenceEnumerator ref{d, opts};
  ref.run();
  const char* names[] = {"ise.enum.grow_calls", "ise.enum.input_rejects",
                         "ise.enum.output_rejects",
                         "ise.enum.convexity_rejects"};
  std::uint64_t before[4];
  for (int i = 0; i < 4; ++i) before[i] = counter(names[i]);
  const auto got = enumerate_connected(d, lib(), opts);
  ASSERT_EQ(got.size(), ref.out.size()) << what << " cap " << cap;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(got[i].nodes, ref.out[i])
        << what << " cap " << cap << ": candidate " << i << " differs";
#if ISEX_OBS_ENABLED
  const long want[] = {ref.grow_calls, ref.input_rejects, ref.output_rejects,
                       ref.convexity_rejects};
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(counter(names[i]) - before[i],
              static_cast<std::uint64_t>(want[i]))
        << what << " cap " << cap << ": " << names[i];
#endif
}

constexpr long kCaps[] = {7, 50, 333, EnumOptions{}.max_candidates};

// One case per graph, so ctest runs the default-cap searches in parallel.
class EnumerateDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EnumerateDifferential, RandomDfgMatchesReference) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const ir::Dfg d =
      isex::testing::random_dfg(rng, 4, 30 + 25 * GetParam(), 0.1);
  const std::string what = "random dfg " + std::to_string(GetParam());
  for (long cap : kCaps) expect_matches_reference(d, cap, what);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumerateDifferential, ::testing::Range(0, 6));

/// The block of p with the most nodes.
const ir::Dfg& largest_block(const ir::Program& p) {
  int best = 0;
  for (int b = 1; b < p.num_blocks(); ++b)
    if (p.block(b).dfg.num_nodes() > p.block(best).dfg.num_nodes()) best = b;
  return p.block(best).dfg;
}

// The hot block of every Table 5.1 kernel at the small caps, and a few at
// the default cap. ndes's 26-node block needs 1.93M grow calls to exhaust,
// so at the default cap most of its subgraphs are reached again and again
// from different parents: every repeat must be pruned exactly where the
// reference's visited set prunes it.
class KernelDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelDifferential, HotBlockMatchesReference) {
  const std::string k = GetParam();
  const ir::Program p = workloads::make_benchmark(k);
  for (long cap : {7L, 50L, 333L})
    expect_matches_reference(largest_block(p), cap, k);
  if (k == "crc32" || k == "sha" || k == "adpcm_enc" || k == "3des" ||
      k == "ndes")
    expect_matches_reference(largest_block(p), EnumOptions{}.max_candidates, k);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelDifferential,
    ::testing::Values("crc32", "sha", "blowfish", "rijndael", "susan",
                      "adpcm_enc", "adpcm_dec", "cjpeg", "djpeg", "g721encode",
                      "g721decode", "jfdctint", "ndes", "edn", "lms",
                      "compress", "aes", "3des"));

// The enumerator charges what it retains, one subgraph per emitted
// candidate, and nothing for the subgraphs it only grows; the grow-call cap
// still binds.
TEST(EnumerateBudget, ChargesOneUnitPerEmittedCandidate) {
  const ir::Program p = workloads::make_benchmark("3des");
  const ir::Dfg& d = largest_block(p);
  // The unit enumeration charges per retained subgraph.
  const std::size_t unit =
      8 * ((static_cast<std::size_t>(d.num_nodes()) + 63) / 64) + 64;
  for (long cap : {7L, 50L, 333L}) {
    robust::Budget b;  // no limits: only meters the charges
    EnumOptions opts;
    opts.max_candidates = cap;
    opts.budget = &b;
    const auto cands = enumerate_connected(d, lib(), opts);
    const auto r = b.report();
    EXPECT_EQ(r.nodes_charged, cap) << "the cap must bind";
    EXPECT_GT(cands.size(), 0u) << "cap " << cap;
    EXPECT_EQ(r.mem_peak_bytes, cands.size() * unit) << "cap " << cap;
  }
}

}  // namespace
}  // namespace isex::ise
