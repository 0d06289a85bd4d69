#include "isex/util/bitset.hpp"

#include <gtest/gtest.h>

#include <set>

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

}  // namespace
}  // namespace isex::util
