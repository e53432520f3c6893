// k-d tree tests: exact agreement with the brute-force oracle across
// dimensions, point counts, and query types.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "geom/kdtree.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"

namespace {

using sops::geom::BruteForceSearcher;
using sops::geom::KdTree;
using sops::geom::Neighbor;

std::vector<double> random_points(std::size_t count, std::size_t dim,
                                  std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  std::vector<double> data(count * dim);
  for (double& v : data) v = sops::rng::uniform(engine, -10.0, 10.0);
  return data;
}

struct TreeCase {
  std::size_t count;
  std::size_t dim;
};

class KdTreeVsBruteForce : public ::testing::TestWithParam<TreeCase> {};

TEST_P(KdTreeVsBruteForce, NearestMatchesOracle) {
  const auto [count, dim] = GetParam();
  const auto data = random_points(count, dim, 17);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);

  const auto queries = random_points(50, dim, 18);
  for (std::size_t q = 0; q < 50; ++q) {
    const std::span<const double> query{queries.data() + q * dim, dim};
    const Neighbor a = tree.nearest(query);
    const Neighbor b = oracle.nearest(query);
    EXPECT_DOUBLE_EQ(a.dist_sq, b.dist_sq);
  }
}

TEST_P(KdTreeVsBruteForce, KNearestMatchesOracle) {
  const auto [count, dim] = GetParam();
  const auto data = random_points(count, dim, 23);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);

  const auto queries = random_points(20, dim, 24);
  for (const std::size_t k : {1u, 3u, 7u}) {
    for (std::size_t q = 0; q < 20; ++q) {
      const std::span<const double> query{queries.data() + q * dim, dim};
      const auto a = tree.k_nearest(query, k);
      const auto b = oracle.k_nearest(query, k);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].dist_sq, b[i].dist_sq) << "k=" << k << " i=" << i;
      }
    }
  }
}

TEST_P(KdTreeVsBruteForce, CountWithinMatchesOracle) {
  const auto [count, dim] = GetParam();
  const auto data = random_points(count, dim, 29);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);

  const auto queries = random_points(20, dim, 30);
  for (const double radius : {0.5, 2.0, 8.0, 40.0}) {
    for (std::size_t q = 0; q < 20; ++q) {
      const std::span<const double> query{queries.data() + q * dim, dim};
      EXPECT_EQ(tree.count_within(query, radius),
                oracle.count_within(query, radius))
          << "radius=" << radius;
    }
  }
}

TEST_P(KdTreeVsBruteForce, SkipIndexLeaveOneOut) {
  const auto [count, dim] = GetParam();
  const auto data = random_points(count, dim, 31);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);

  for (std::size_t s = 0; s < std::min<std::size_t>(count, 25); ++s) {
    const std::span<const double> query{data.data() + s * dim, dim};
    const auto a = tree.k_nearest(query, 3, s);
    const auto b = oracle.k_nearest(query, 3, s);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NE(a[i].index, s);  // never returns the skipped point
      EXPECT_DOUBLE_EQ(a[i].dist_sq, b[i].dist_sq);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KdTreeVsBruteForce,
    ::testing::Values(TreeCase{1, 2}, TreeCase{5, 2}, TreeCase{16, 2},
                      TreeCase{17, 2}, TreeCase{200, 2}, TreeCase{200, 3},
                      TreeCase{100, 5}, TreeCase{64, 8}, TreeCase{500, 1}));

TEST(KdTree, SelfQueryFindsSelfFirst) {
  const auto data = random_points(100, 3, 5);
  const KdTree tree(data, 3);
  for (std::size_t i = 0; i < 100; ++i) {
    const std::span<const double> query{data.data() + i * 3, 3};
    EXPECT_DOUBLE_EQ(tree.nearest(query).dist_sq, 0.0);
  }
}

TEST(KdTree, KNearestSortedAscending) {
  const auto data = random_points(300, 2, 41);
  const KdTree tree(data, 2);
  const double query[2] = {0.0, 0.0};
  const auto result = tree.k_nearest({query, 2}, 10);
  ASSERT_EQ(result.size(), 10u);
  EXPECT_TRUE(std::is_sorted(
      result.begin(), result.end(),
      [](const Neighbor& a, const Neighbor& b) { return a.dist_sq < b.dist_sq; }));
}

TEST(KdTree, KLargerThanTreeReturnsAll) {
  const auto data = random_points(7, 2, 43);
  const KdTree tree(data, 2);
  const double query[2] = {1.0, 1.0};
  EXPECT_EQ(tree.k_nearest({query, 2}, 100).size(), 7u);
}

TEST(KdTree, DuplicatePointsAllFound) {
  // All points identical: degenerate zero-spread split path.
  std::vector<double> data(50 * 2, 3.25);
  const KdTree tree(data, 2);
  const double query[2] = {3.25, 3.25};
  EXPECT_EQ(tree.k_nearest({query, 2}, 50).size(), 50u);
  EXPECT_EQ(tree.count_within({query, 2}, 0.001), 50u);
}

TEST(KdTree, CountWithinIsStrict) {
  const std::vector<double> data{0.0, 0.0, 1.0, 0.0};
  const KdTree tree(data, 2);
  const double query[2] = {0.0, 0.0};
  // Point at distance exactly 1.0 must not be counted for radius 1.0.
  EXPECT_EQ(tree.count_within({query, 2}, 1.0), 1u);
  EXPECT_EQ(tree.count_within({query, 2}, 1.0 + 1e-9), 2u);
}

TEST(KdTree, ZeroRadiusCountsNothing) {
  const auto data = random_points(20, 2, 47);
  const KdTree tree(data, 2);
  const double query[2] = {0.0, 0.0};
  EXPECT_EQ(tree.count_within({query, 2}, 0.0), 0u);
}

TEST(KdTree, EmptyTree) {
  const std::vector<double> data;
  const KdTree tree(data, 2);
  EXPECT_EQ(tree.size(), 0u);
  const double query[2] = {0.0, 0.0};
  EXPECT_TRUE(tree.k_nearest({query, 2}, 3).empty());
  EXPECT_EQ(tree.count_within({query, 2}, 1.0), 0u);
  EXPECT_THROW((void)tree.nearest({query, 2}), sops::PreconditionError);
}

TEST(KdTree, InvalidConstructionThrows) {
  const std::vector<double> data{1.0, 2.0, 3.0};
  EXPECT_THROW(KdTree(data, 2), sops::PreconditionError);  // 3 % 2 != 0
  EXPECT_THROW(KdTree(data, 0), sops::PreconditionError);
}

// The allocation-free nearest() must replicate k_nearest(query, 1) exactly —
// same winner index on ties, same bits — on every shape, including tie-heavy
// duplicate clouds.
TEST_P(KdTreeVsBruteForce, NearestIsExactlyKNearestOne) {
  const auto [count, dim] = GetParam();
  auto data = random_points(count, dim, 53);
  // Duplicate a few points to force exact ties.
  for (std::size_t i = 0; i + 1 < count && i < 4; ++i) {
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(i * dim), dim,
                data.begin() + static_cast<std::ptrdiff_t>((count - 1 - i) * dim));
  }
  const KdTree tree(data, dim);
  const auto queries = random_points(30, dim, 54);
  for (std::size_t q = 0; q < 30; ++q) {
    const std::span<const double> query{queries.data() + q * dim, dim};
    const Neighbor fast = tree.nearest(query);
    const Neighbor reference = tree.k_nearest(query, 1).front();
    EXPECT_EQ(fast.index, reference.index);
    EXPECT_EQ(fast.dist_sq, reference.dist_sq);
  }
  // Self-queries on the duplicated points are all-zero ties.
  for (std::size_t i = 0; i < std::min<std::size_t>(count, 8); ++i) {
    const std::span<const double> query{data.data() + i * dim, dim};
    const Neighbor fast = tree.nearest(query);
    const Neighbor reference = tree.k_nearest(query, 1).front();
    EXPECT_EQ(fast.index, reference.index);
    EXPECT_EQ(fast.dist_sq, reference.dist_sq);
  }
}

// nearest(q, bound) is nearest(q) — same index on exact ties, same bits —
// for a bound exactly tying a point's d² (inclusive until the first hit),
// for bounds above it, and for bounds no point meets (fallback).
void expect_bounded_equals_nearest(const KdTree& tree,
                                   const BruteForceSearcher& oracle,
                                   std::span<const double> query) {
  const Neighbor expected = tree.nearest(query);
  const auto all = oracle.k_nearest(query, oracle.size());
  std::vector<double> bounds;
  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, all.size() / 2,
                              all.size() - 1}) {
    const double d2 = all[std::min(k, all.size() - 1)].dist_sq;
    bounds.push_back(d2);
    bounds.push_back(std::nextafter(d2, std::numeric_limits<double>::infinity()));
    bounds.push_back(d2 * 1.5 + 1e-3);
  }
  bounds.push_back(std::numeric_limits<double>::infinity());
  if (all.front().dist_sq > 0.0) {
    bounds.push_back(std::nextafter(all.front().dist_sq, 0.0));  // below all
  }
  bounds.push_back(-1.0);
  for (const double bound : bounds) {
    const Neighbor bounded = tree.nearest(query, bound);
    EXPECT_EQ(bounded.index, expected.index) << "bound=" << bound;
    EXPECT_EQ(bounded.dist_sq, expected.dist_sq) << "bound=" << bound;
  }
}

TEST_P(KdTreeVsBruteForce, BoundedNearestIsExactlyNearest) {
  const auto [count, dim] = GetParam();
  auto data = random_points(count, dim, 57);
  for (std::size_t i = 0; i + 1 < count && i < 4; ++i) {
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(i * dim), dim,
                data.begin() + static_cast<std::ptrdiff_t>((count - 1 - i) * dim));
  }
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);
  const auto queries = random_points(20, dim, 58);
  for (std::size_t q = 0; q < 20; ++q) {
    expect_bounded_equals_nearest(tree, oracle, {queries.data() + q * dim, dim});
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(count, 8); ++i) {
    expect_bounded_equals_nearest(tree, oracle, {data.data() + i * dim, dim});
  }
}

TEST(KdTree, BoundedNearestOnLatticeTies) {
  // Integer lattice with every point twice: half-integer queries sit at
  // exactly equal distance from 2 or 4 points (each duplicated).
  std::vector<double> data;
  for (int copy = 0; copy < 2; ++copy) {
    for (int y = 0; y < 12; ++y) {
      for (int x = 0; x < 12; ++x) {
        data.push_back(x);
        data.push_back(y);
      }
    }
  }
  const KdTree tree(data, 2);
  const BruteForceSearcher oracle(data, 2);
  for (int y = 0; y < 24; ++y) {
    for (int x = 0; x < 24; ++x) {
      const double query[2] = {0.5 * x - 0.5, 0.5 * y - 0.5};
      expect_bounded_equals_nearest(tree, oracle, {query, 2});
    }
  }
}

std::vector<sops::geom::DimBlock> split_blocks(std::size_t dim) {
  if (dim == 1) return {{0, 1}};
  const std::size_t first = dim / 2;
  return {{0, first}, {first, dim - first}};
}

TEST_P(KdTreeVsBruteForce, KthBlockDistSqMatchesOracle) {
  const auto [count, dim] = GetParam();
  if (count < 4) return;  // need k-th neighbors to exist
  const auto data = random_points(count, dim, 57);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);
  const auto blocks = split_blocks(dim);

  for (const std::size_t k : {1u, 4u}) {
    if (count < k + 1) continue;
    for (std::size_t s = 0; s < std::min<std::size_t>(count, 15); ++s) {
      const std::span<const double> query{data.data() + s * dim, dim};
      EXPECT_EQ(tree.kth_block_dist_sq(query, k, blocks, s),
                oracle.kth_block_dist_sq(query, k, blocks, s))
          << "k=" << k << " s=" << s;
    }
  }
}

TEST_P(KdTreeVsBruteForce, CountWithinBlocksMatchesOracleAndBatch) {
  const auto [count, dim] = GetParam();
  const auto data = random_points(count, dim, 61);
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);
  const auto blocks = split_blocks(dim);

  const std::size_t batch = std::min<std::size_t>(count, 4);
  if (batch == 0) return;
  std::vector<double> radii;
  std::vector<std::size_t> skips;
  std::vector<std::size_t> counts(batch, 0);
  for (std::size_t b = 0; b < batch; ++b) {
    radii.push_back(b == 0 ? 0.0 : 1.5 * static_cast<double>(b));  // incl. ε=0
    skips.push_back(b);
  }
  // Batched query over rows [0, batch): one descent, per-query counts.
  tree.count_within_blocks({data.data(), batch * dim}, radii, blocks, skips,
                           counts);
  for (std::size_t b = 0; b < batch; ++b) {
    const std::span<const double> query{data.data() + b * dim, dim};
    EXPECT_EQ(counts[b], tree.count_within_blocks(query, radii[b], blocks, b))
        << "b=" << b;
    EXPECT_EQ(counts[b], oracle.count_within_blocks(query, radii[b], blocks, b))
        << "b=" << b;
  }
}

TEST(KdTree, BlockedQueriesOnDuplicateCloud) {
  // All points identical: every pairwise blocked distance is exactly 0.
  std::vector<double> data(40 * 4, 1.5);
  const KdTree tree(data, 4);
  const BruteForceSearcher oracle(data, 4);
  const std::vector<sops::geom::DimBlock> blocks = {{0, 2}, {2, 2}};
  const std::span<const double> query{data.data(), 4};
  EXPECT_EQ(tree.kth_block_dist_sq(query, 4, blocks, 0),
            oracle.kth_block_dist_sq(query, 4, blocks, 0));
  EXPECT_EQ(tree.kth_block_dist_sq(query, 4, blocks, 0), 0.0);
  // Strict < never counts coincident points at ε = 0.
  EXPECT_EQ(tree.count_within_blocks(query, 0.0, blocks, 0), 0u);
  EXPECT_EQ(tree.count_within_blocks(query, 0.5, blocks, 0), 39u);
}

// Every point of `data` as a leave-one-out query (the KSG usage) plus the
// same points without a skip, each radius, in batches of four: the batched
// and single-query counts must equal the brute-force scan's.
void expect_counts_match_oracle(const std::vector<double>& data,
                                std::size_t dim,
                                const std::vector<sops::geom::DimBlock>& blocks,
                                const std::vector<double>& radii) {
  const KdTree tree(data, dim);
  const BruteForceSearcher oracle(data, dim);
  const std::size_t count = data.size() / dim;
  constexpr std::size_t kNoSkip = static_cast<std::size_t>(-1);
  for (const double radius : radii) {
    for (std::size_t s0 = 0; s0 < count; s0 += 4) {
      const std::size_t batch = std::min<std::size_t>(4, count - s0);
      const std::vector<double> batch_radii(batch, radius);
      for (const bool leave_one_out : {true, false}) {
        std::vector<std::size_t> skips(batch);
        for (std::size_t b = 0; b < batch; ++b) {
          skips[b] = leave_one_out ? s0 + b : kNoSkip;
        }
        std::vector<std::size_t> counts(batch);
        tree.count_within_blocks({data.data() + s0 * dim, batch * dim},
                                 batch_radii, blocks, skips, counts);
        for (std::size_t b = 0; b < batch; ++b) {
          const std::span<const double> query{data.data() + (s0 + b) * dim,
                                              dim};
          const std::size_t expected =
              oracle.count_within_blocks(query, radius, blocks, skips[b]);
          EXPECT_EQ(counts[b], expected)
              << "radius=" << radius << " s=" << s0 + b
              << " skip=" << leave_one_out;
          EXPECT_EQ(tree.count_within_blocks(query, radius, blocks, skips[b]),
                    expected)
              << "radius=" << radius << " s=" << s0 + b;
        }
      }
    }
  }
}

TEST(KdTreeSubtreeCount, RadiusSwallowingTheWholeTree) {
  const auto data = random_points(300, 2, 71);
  // Diameter of the [-10, 10]² cloud is below 29; 1e200² overflows to inf,
  // which every finite squared distance is still strictly below.
  expect_counts_match_oracle(data, 2, {{0, 2}}, {30.0, 1e3, 1e200});
  expect_counts_match_oracle(random_points(300, 4, 72), 4, {{0, 2}, {2, 2}},
                             {30.0, 1e200});
  const KdTree tree(data, 2);
  const std::vector<sops::geom::DimBlock> blocks = {{0, 2}};
  EXPECT_EQ(tree.count_within_blocks({data.data(), 2}, 30.0, blocks, 0), 299u);
  EXPECT_EQ(tree.count_within_blocks({data.data(), 2}, 30.0, blocks), 300u);
}

TEST(KdTreeSubtreeCount, RadiusEqualToABoxCornerDistance) {
  // Integer lattice queried from its own points: box corners are lattice
  // offsets, so d² = 25 (3-4-5) and 100 (6-8-10) land exactly on corners of
  // many boxes. Strict < must reject the corner there and accept it one ulp
  // further out.
  std::vector<double> data;
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) {
      data.push_back(x);
      data.push_back(y);
    }
  }
  std::vector<double> radii;
  for (const double r : {1.0, 2.0, 5.0, 10.0}) {
    radii.push_back(r);
    radii.push_back(std::nextafter(r, 0.0));
    radii.push_back(std::nextafter(r, 100.0));
  }
  expect_counts_match_oracle(data, 2, {{0, 2}}, radii);
  expect_counts_match_oracle(data, 2, {{0, 1}, {1, 1}}, radii);
}

TEST(KdTreeSubtreeCount, DuplicateCloud) {
  // Large all-identical leaves plus a few distinct points: zero-extent boxes
  // whose corner is the query itself, and ε = 0 ties.
  std::vector<double> data(100 * 2, 0.5);
  for (std::size_t i = 90; i < 100; ++i) data[2 * i] = static_cast<double>(i);
  expect_counts_match_oracle(data, 2, {{0, 2}},
                             {0.0, 1e-300, 0.5, 1.0, 50.0, 200.0});
}

TEST(KdTreeSubtreeCount, InfiniteCoordinates) {
  auto data = random_points(120, 2, 73);
  const double inf = std::numeric_limits<double>::infinity();
  data[2 * 5] = inf;
  data[2 * 40 + 1] = -inf;
  data[2 * 77] = -inf;
  data[2 * 77 + 1] = inf;
  // Finite queries only: the oracle's own inf − inf would be NaN.
  std::vector<double> finite;
  for (std::size_t i = 0; i < 120; ++i) {
    if (std::isfinite(data[2 * i]) && std::isfinite(data[2 * i + 1])) {
      finite.push_back(data[2 * i]);
      finite.push_back(data[2 * i + 1]);
    }
  }
  const KdTree tree(data, 2);
  const BruteForceSearcher oracle(data, 2);
  const std::vector<sops::geom::DimBlock> blocks = {{0, 1}, {1, 1}};
  for (const double radius : {3.0, 30.0, 1e200}) {
    for (std::size_t q = 0; q < finite.size() / 2; ++q) {
      const std::span<const double> query{finite.data() + 2 * q, 2};
      EXPECT_EQ(tree.count_within_blocks(query, radius, blocks),
                oracle.count_within_blocks(query, radius, blocks))
          << "radius=" << radius << " q=" << q;
    }
  }
  EXPECT_EQ(tree.count_within_blocks({finite.data(), 2}, 1e200, blocks), 117u);
}

TEST(KdTreeSubtreeCount, NanCoordinateInsideOneLeaf) {
  // x spans [-1000, 1000] and y only [-1, 1], so every split is on x and
  // the NaN y coordinate of one point never steers the descent; its box is
  // NaN on y up to the root, so no subtree holding it is counted whole.
  // Under the per-axis block metric the point is counted exactly when its
  // x block is within the radius, by tree and scan alike.
  sops::rng::Xoshiro256 engine(74);
  std::vector<double> data;
  for (std::size_t i = 0; i < 200; ++i) {
    data.push_back(sops::rng::uniform(engine, -1000.0, 1000.0));
    data.push_back(sops::rng::uniform(engine, -1.0, 1.0));
  }
  data[2 * 123 + 1] = std::numeric_limits<double>::quiet_NaN();
  expect_counts_match_oracle(data, 2, {{0, 1}, {1, 1}},
                             {5.0, 50.0, 500.0, 3000.0});
}

// The span overload of k_nearest is the vector overload element for
// element — index and bits, ties included — on the inline heap and past it.
TEST(KdTree, KNearestIntoSpanEqualsVectorOverload) {
  auto data = random_points(300, 2, 61);
  for (std::size_t i = 0; i < 40; ++i) {  // 40 duplicated points: exact ties
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(2 * i), 2,
                data.begin() + static_cast<std::ptrdiff_t>(2 * (299 - i)));
  }
  const KdTree tree(data, 2);
  std::vector<Neighbor> out;
  for (const std::size_t k : {std::size_t{1}, std::size_t{16},
                              KdTree::kInlineHeap, KdTree::kInlineHeap + 9,
                              std::size_t{400}}) {
    for (std::size_t q = 0; q < 60; q += 7) {
      const std::span<const double> query{data.data() + 2 * q, 2};
      for (const std::size_t skip : {q, static_cast<std::size_t>(-1)}) {
        const std::vector<Neighbor> expected = tree.k_nearest(query, k, skip);
        out.assign(k, Neighbor{});
        ASSERT_EQ(tree.k_nearest(query, out, skip), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(out[i].index, expected[i].index) << "k=" << k << " i=" << i;
          EXPECT_EQ(out[i].dist_sq, expected[i].dist_sq);
        }
      }
    }
  }
}

// Fewer than k other points at a finite distance: every other squared
// distance overflows to +inf, so the k-th is +inf — no internal error, and
// the brute-force scan's bits. On the 41-point line k = 20 spans several
// leaves, so a subtree whose split-axis delta² overflows must still be
// entered while the heap is short.
TEST(KdTree, KthBlockDistSqWithOverflowingDistances) {
  const std::vector<double> six{0.0,    0.0, 1e200, 0.0, -1e200, 0.0,
                                2e200,  0.0, -2e200, 0.0, 3e200, 0.0};
  std::vector<double> line;
  for (int i = -20; i <= 20; ++i) {
    line.push_back(1e200 * i);
    line.push_back(i % 2 == 0 ? 0.0 : 1.0);
  }
  const std::vector<std::vector<sops::geom::DimBlock>> layouts{{{0, 2}},
                                                               {{0, 1}, {1, 1}}};
  for (const std::vector<double>* data : {&six, &std::as_const(line)}) {
    const KdTree tree(*data, 2);
    const BruteForceSearcher oracle(*data, 2);
    for (const auto& blocks : layouts) {
      for (std::size_t s = 0; s < tree.size(); ++s) {
        const std::span<const double> query{data->data() + 2 * s, 2};
        for (const std::size_t k : {1u, 3u, 20u}) {
          if (k >= tree.size()) continue;
          const double expected = oracle.kth_block_dist_sq(query, k, blocks, s);
          EXPECT_EQ(expected, std::numeric_limits<double>::infinity());
          EXPECT_EQ(tree.kth_block_dist_sq(query, k, blocks, s), expected)
              << "n=" << tree.size() << " s=" << s << " k=" << k;
        }
      }
    }
  }
  // Finite neighbors first, then +inf: pairs 1e-3 apart, 1e200 between.
  std::vector<double> pairs;
  for (int i = 0; i < 30; ++i) {
    pairs.push_back(1e200 * (i / 2) + 1e-3 * (i % 2));
    pairs.push_back(0.0);
  }
  const KdTree tree(pairs, 2);
  const BruteForceSearcher oracle(pairs, 2);
  for (std::size_t s = 0; s < tree.size(); ++s) {
    const std::span<const double> query{pairs.data() + 2 * s, 2};
    for (const std::size_t k : {1u, 2u, 3u}) {
      const double expected =
          oracle.kth_block_dist_sq(query, k, layouts[0], s);
      EXPECT_EQ(std::isinf(expected), k > 1);
      EXPECT_EQ(tree.kth_block_dist_sq(query, k, layouts[0], s), expected);
    }
  }
}

// The least (d², index) over the live points by exhaustive scan, d² summed
// in dim order from query minus point, as nearest_live computes it.
Neighbor live_scan(std::span<const double> data, std::size_t dim,
                   const std::vector<char>& live, std::span<const double> q) {
  Neighbor best{live.size(), std::numeric_limits<double>::infinity()};
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (!live[i]) continue;
    double d2 = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      const double diff = q[d] - data[i * dim + d];
      d2 += diff * diff;
    }
    if (d2 < best.dist_sq || (d2 == best.dist_sq && i < best.index)) {
      best = {i, d2};
    }
  }
  return best;
}

// Removes points in a seeded random order, querying after every removal;
// each answer must be the exhaustive scan's, index and bits, and the
// largest node count (the root's) must be the number of live points.
void expect_live_queries_match_scan(std::span<const double> data,
                                    std::size_t dim,
                                    std::span<const double> queries,
                                    std::uint64_t seed) {
  const KdTree tree(data, dim);
  const std::size_t count = tree.size();
  KdTree::LiveSet live_set;
  tree.reset_live(live_set);
  std::vector<char> live(count, 1);
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  sops::rng::Xoshiro256 engine(seed);
  for (std::size_t i = count; i > 1; --i) {
    std::swap(order[i - 1], order[sops::rng::uniform_index(engine, i)]);
  }
  const std::size_t query_count = queries.size() / dim;
  for (std::size_t removed = 0; removed < count; ++removed) {
    for (std::size_t q = removed % 3; q < query_count; q += 3) {
      const std::span<const double> query{queries.data() + q * dim, dim};
      const Neighbor expected = live_scan(data, dim, live, query);
      const Neighbor found = tree.nearest_live(query, live_set);
      ASSERT_EQ(found.index, expected.index)
          << "removed=" << removed << " q=" << q;
      ASSERT_EQ(found.dist_sq, expected.dist_sq);
    }
    tree.remove_live(order[removed], live_set);
    live[order[removed]] = 0;
    ASSERT_EQ(*std::max_element(live_set.nodes.begin(), live_set.nodes.end()),
              count - removed - 1);
  }
}

TEST_P(KdTreeVsBruteForce, NearestLiveMatchesExhaustiveScan) {
  const auto [count, dim] = GetParam();
  auto data = random_points(count, dim, 67);
  for (std::size_t i = 0; i + 1 < count && i < 6; ++i) {
    std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(i * dim), dim,
                data.begin() + static_cast<std::ptrdiff_t>((count - 1 - i) * dim));
  }
  std::vector<double> queries = random_points(12, dim, 68);
  queries.insert(queries.end(), data.begin(),
                 data.begin() + static_cast<std::ptrdiff_t>(
                                    std::min<std::size_t>(count, 6) * dim));
  expect_live_queries_match_scan(data, dim, queries, 69);
}

// A lattice, every point twice: half-integer queries are equidistant from
// 2 or 4 points (each duplicated), many of them across a split plane at
// exactly the best distance, so only the inclusive far-child test and the
// index tie-break reproduce the scan.
TEST(KdTree, NearestLiveOnLatticeTies) {
  std::vector<double> data;
  for (int copy = 0; copy < 2; ++copy) {
    for (int y = 0; y < 9; ++y) {
      for (int x = 0; x < 9; ++x) {
        data.push_back(x);
        data.push_back(y);
      }
    }
  }
  std::vector<double> queries;
  for (int y = 0; y < 18; ++y) {
    for (int x = 0; x < 18; ++x) {
      queries.push_back(0.5 * x - 0.5);
      queries.push_back(0.5 * y - 0.5);
    }
  }
  for (const std::uint64_t seed : {71u, 72u}) {
    expect_live_queries_match_scan(data, 2, queries, seed);
  }
}

// Every distance overflows to +inf: the lowest live index wins.
TEST(KdTree, NearestLiveWithOverflowingDistances) {
  std::vector<double> data;
  for (int i = 0; i < 40; ++i) {
    data.push_back(-1e200 - 1e185 * i);
    data.push_back(1e185 * (i % 7));
  }
  const std::vector<double> queries{1e200, 0.0, 2e200, 1e200};
  expect_live_queries_match_scan(data, 2, queries, 73);
  const KdTree tree(data, 2);
  KdTree::LiveSet live;
  tree.reset_live(live);
  tree.remove_live(0, live);
  const Neighbor found = tree.nearest_live({queries.data(), 2}, live);
  EXPECT_EQ(found.index, 1u);
  EXPECT_EQ(found.dist_sq, std::numeric_limits<double>::infinity());
}

TEST(KdTree, NearestLivePreconditions) {
  const auto data = random_points(20, 2, 75);
  const KdTree tree(data, 2);
  const KdTree other(std::span<const double>(data).first(10), 2);
  KdTree::LiveSet live;
  const double query[2] = {0.0, 0.0};
  other.reset_live(live);
  EXPECT_THROW((void)tree.nearest_live({query, 2}, live),
               sops::PreconditionError);
  tree.reset_live(live);
  for (std::size_t i = 0; i < 20; ++i) tree.remove_live(i, live);
  EXPECT_THROW(tree.remove_live(3, live), sops::PreconditionError);
  try {
    (void)tree.nearest_live({query, 2}, live);
    ADD_FAILURE() << "no error for an empty live set";
  } catch (const sops::PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("no live point"),
              std::string::npos)
        << error.what();
  }
  tree.reset_live(live);  // reuse after exhaustion
  EXPECT_EQ(tree.nearest_live({data.data() + 8, 2}, live).index, 4u);
}

TEST(KdTree, WrongQueryDimensionThrows) {
  const auto data = random_points(10, 3, 51);
  const KdTree tree(data, 3);
  const double query[2] = {0.0, 0.0};
  EXPECT_THROW((void)tree.k_nearest({query, 2}, 1), sops::PreconditionError);
}

}  // namespace
