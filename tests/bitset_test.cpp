#include "isex/util/bitset.hpp"

#include <gtest/gtest.h>

#include <set>

#include "isex/util/bitset_set.hpp"
#include "isex/util/rng.hpp"

namespace isex::util {
namespace {

TEST(Bitset, StartsEmpty) {
  Bitset b(130);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.test(i));
}

TEST(Bitset, SetResetTest) {
  Bitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, SetAlgebra) {
  Bitset a(70), b(70);
  a.set(1);
  a.set(65);
  b.set(65);
  b.set(2);
  EXPECT_EQ((a & b).to_vector(), std::vector<int>{65});
  EXPECT_EQ((a | b).to_vector(), (std::vector<int>{1, 2, 65}));
  EXPECT_EQ((a - b).to_vector(), std::vector<int>{1});
  EXPECT_TRUE(a.intersects(b));
  b.reset(65);
  EXPECT_FALSE(a.intersects(b));
}

TEST(Bitset, SubsetRelation) {
  Bitset a(10), b(10);
  a.set(3);
  b.set(3);
  b.set(7);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.is_subset_of(a));
}

TEST(Bitset, ForEachVisitsAscending) {
  Bitset b(200);
  b.set(5);
  b.set(64);
  b.set(199);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{5, 64, 199}));
}

TEST(Bitset, EqualityAndHash) {
  Bitset a(90), b(90);
  a.set(10);
  b.set(10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(11);
  EXPECT_NE(a, b);
}

// Property: set algebra agrees with std::set on random data.
class BitsetRandom : public ::testing::TestWithParam<int> {};

TEST_P(BitsetRandom, MatchesStdSet) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 150;
  Bitset a(n), b(n);
  std::set<int> sa, sb;
  for (int i = 0; i < 60; ++i) {
    const int x = rng.uniform_int(0, static_cast<int>(n) - 1);
    const int y = rng.uniform_int(0, static_cast<int>(n) - 1);
    a.set(static_cast<std::size_t>(x));
    sa.insert(x);
    b.set(static_cast<std::size_t>(y));
    sb.insert(y);
  }
  std::set<int> su, si, sd;
  std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(),
                 std::inserter(su, su.end()));
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::inserter(si, si.end()));
  std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                      std::inserter(sd, sd.end()));
  auto as_set = [](const Bitset& x) {
    auto v = x.to_vector();
    return std::set<int>(v.begin(), v.end());
  };
  EXPECT_EQ(as_set(a | b), su);
  EXPECT_EQ(as_set(a & b), si);
  EXPECT_EQ(as_set(a - b), sd);
  EXPECT_EQ(a.count(), sa.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitsetRandom, ::testing::Range(0, 10));

// --- BitsetSet ---------------------------------------------------------------

Bitset sym_diff(const Bitset& a, const Bitset& b) { return (a | b) - (a & b); }

Bitset random_bitset(Rng& rng, std::size_t n, int bits) {
  Bitset b(n);
  for (int i = 0; i < bits && n > 0; ++i)
    b.set(static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(n) - 1)));
  return b;
}

// Growth: many pages and index doublings, against std::set on the same
// inserts, over universes from one word to a 3des-sized block.
TEST(BitsetSet, MatchesStdSetThroughGrowth) {
  for (std::size_t n : {std::size_t{1}, std::size_t{64}, std::size_t{130},
                        std::size_t{2694}}) {
    Rng rng(n);
    BitsetSet set(n);
    std::set<std::vector<int>> ref;
    const int inserts = n == 1 ? 10 : 30000;
    for (int i = 0; i < inserts; ++i) {
      const Bitset b = random_bitset(rng, n, rng.uniform_int(0, 6));
      EXPECT_EQ(set.insert(b), ref.insert(b.to_vector()).second) << n;
    }
    EXPECT_EQ(set.size(), ref.size()) << n;
    const std::size_t words = (n + 63) / 64;
    EXPECT_GE(set.bytes(), set.size() * words * sizeof(std::uint64_t));
    // Every stored key is still found after all the doublings.
    for (const auto& v : ref) {
      Bitset b(n);
      for (int i : v) b.set(static_cast<std::size_t>(i));
      EXPECT_FALSE(set.insert(b));
    }
    EXPECT_EQ(set.size(), ref.size());
  }
}

TEST(BitsetSet, EmptyUniverseHoldsOneKey) {
  BitsetSet set(0);
  EXPECT_TRUE(set.insert(Bitset(0)));
  EXPECT_FALSE(set.insert(Bitset(0)));
  EXPECT_EQ(set.size(), 1u);
}

TEST(BitsetSet, IncrementalZobristKeyEqualsFullHash) {
  Rng rng(5);
  Bitset b(300);
  std::uint64_t h = 0;
  for (int i = 0; i < 40; ++i) {
    const auto v = static_cast<std::size_t>(rng.uniform_int(0, 299));
    if (b.test(v)) continue;
    b.set(v);
    h ^= BitsetSet::zobrist_key(v);
    EXPECT_EQ(h, BitsetSet::zobrist_hash(b));
  }
}

// Full-hash collisions: distinct keys with one hash must both be kept. A
// constant hash puts every key on one probe chain; a genuine Zobrist
// collision comes from a linear dependency among 65 bit keys (any 65
// vectors of GF(2)^64 have one), found by Gaussian elimination.
TEST(BitsetSet, DistinctKeysWithEqualHashesAreKept) {
  BitsetSet same(200);
  Rng rng(9);
  std::set<std::vector<int>> ref;
  for (int i = 0; i < 2000; ++i) {
    const Bitset b = random_bitset(rng, 200, 3);
    EXPECT_EQ(same.insert(b, 42), ref.insert(b.to_vector()).second);
  }
  EXPECT_EQ(same.size(), ref.size());

  std::uint64_t basis[64] = {};
  Bitset combo[64];
  Bitset dependent;
  for (std::size_t i = 0; i < 65 && dependent.size() == 0; ++i) {
    std::uint64_t v = BitsetSet::zobrist_key(i);
    Bitset c(65);
    c.set(i);
    for (int bit = 63; bit >= 0 && v != 0; --bit) {
      if (((v >> bit) & 1) == 0) continue;
      if (basis[bit] == 0) {
        basis[bit] = v;
        combo[bit] = c;
        v = 0;
        c = Bitset();
        break;
      }
      v ^= basis[bit];
      c = sym_diff(c, combo[bit]);
    }
    if (c.size() != 0) dependent = c;  // v reduced to zero
  }
  ASSERT_EQ(dependent.size(), 65u) << "65 keys must be dependent";
  ASSERT_EQ(BitsetSet::zobrist_hash(dependent), 0u);
  // S and S xor T hash alike for every S when T's keys XOR to zero.
  Bitset s(65), t(65);
  s.set(0);
  s.set(64);
  t = sym_diff(s, dependent);
  ASSERT_NE(s, t);
  ASSERT_EQ(BitsetSet::zobrist_hash(s), BitsetSet::zobrist_hash(t));
  BitsetSet zob(65);
  EXPECT_TRUE(zob.insert(s));
  EXPECT_TRUE(zob.insert(t));
  EXPECT_FALSE(zob.insert(s));
  EXPECT_FALSE(zob.insert(t));
  EXPECT_EQ(zob.size(), 2u);
}

}  // namespace
}  // namespace isex::util
