// ICP and correspondence tests: recovery of known isometries, type safety,
// and matching properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numbers>
#include <numeric>
#include <span>

#include "align/icp.hpp"
#include "match_oracle.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"

namespace {

using sops::align::align_icp;
using sops::align::IcpOptions;
using sops::align::IcpResult;
using sops::align::match_by_type;
using sops::geom::RigidTransform2;
using sops::geom::Vec2;
using sops::sim::TypeId;
using sops::test::sorted_greedy_oracle;

constexpr double kPi = std::numbers::pi;

struct Cloud {
  std::vector<Vec2> points;
  std::vector<TypeId> types;
};

// Asymmetric multi-type cloud: ICP has a unique global optimum.
Cloud make_cloud(std::size_t n, std::size_t type_count, std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  Cloud cloud;
  for (std::size_t i = 0; i < n; ++i) {
    // Stretch x so the shape is rotationally asymmetric.
    cloud.points.push_back({sops::rng::uniform(engine, -6.0, 6.0),
                            sops::rng::uniform(engine, -2.0, 2.0)});
    cloud.types.push_back(static_cast<TypeId>(i % type_count));
  }
  return cloud;
}

class IcpRecovery : public ::testing::TestWithParam<double> {};

TEST_P(IcpRecovery, RecoversRotationOfSameCloud) {
  const double angle = GetParam();
  const Cloud target = make_cloud(40, 3, 5);
  const RigidTransform2 truth{angle, {1.5, -0.5}};
  const std::vector<Vec2> source = truth.inverse().apply(target.points);

  const IcpResult result =
      align_icp(source, target.types, target.points, target.types);
  EXPECT_LT(result.mean_squared_error, 1e-12);

  const auto moved = result.transform.apply(source);
  for (std::size_t i = 0; i < moved.size(); ++i) {
    EXPECT_NEAR(moved[i].x, target.points[i].x, 1e-6);
    EXPECT_NEAR(moved[i].y, target.points[i].y, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Angles, IcpRecovery,
                         ::testing::Values(0.0, 0.5, kPi / 2, 2.2, -1.3,
                                           kPi - 0.05));

TEST(Icp, RecoversUnderShuffledSourceOrder) {
  // ICP works with correspondence-free clouds: shuffle the source order.
  const Cloud target = make_cloud(30, 2, 7);
  const RigidTransform2 truth{0.8, {2.0, 1.0}};
  std::vector<Vec2> source = truth.inverse().apply(target.points);
  std::vector<TypeId> source_types = target.types;

  // Deterministic shuffle via index permutation.
  std::vector<std::size_t> perm(source.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  sops::rng::Xoshiro256 engine(11);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[sops::rng::uniform_index(engine, i)]);
  }
  std::vector<Vec2> shuffled(source.size());
  std::vector<TypeId> shuffled_types(source.size());
  for (std::size_t i = 0; i < source.size(); ++i) {
    shuffled[i] = source[perm[i]];
    shuffled_types[i] = source_types[perm[i]];
  }

  const IcpResult result =
      align_icp(shuffled, shuffled_types, target.points, target.types);
  EXPECT_LT(result.mean_squared_error, 1e-10);
}

TEST(Icp, RobustToNoise) {
  const Cloud target = make_cloud(60, 2, 13);
  const RigidTransform2 truth{1.1, {0.5, 0.5}};
  std::vector<Vec2> source = truth.inverse().apply(target.points);
  sops::rng::Xoshiro256 engine(17);
  for (Vec2& p : source) p += sops::rng::normal_vec2(engine, 0.02);

  const IcpResult result =
      align_icp(source, target.types, target.points, target.types);
  EXPECT_LT(result.mean_squared_error, 0.01);
}

TEST(Icp, NeverMatchesAcrossTypes) {
  // Target: type 0 on a ring of radius 1, type 1 on a ring of radius 3.
  // Source: the radii are swapped between the types. Ignoring types, a
  // perfect match (MSE 0) exists via the identity; respecting types, NO
  // isometry can map a radius-3 ring onto a radius-1 ring, so the aligned
  // same-type MSE must stay of order (3-1)^2. This is rotation-proof: every
  // restart faces the same obstruction.
  std::vector<Vec2> target;
  std::vector<Vec2> source;
  std::vector<TypeId> types;
  for (int i = 0; i < 8; ++i) {
    const double a = 2.0 * kPi * i / 8.0;
    const Vec2 unit{std::cos(a), std::sin(a)};
    target.push_back(unit * 1.0);
    source.push_back(unit * 3.0);
    types.push_back(0);
    target.push_back(unit * 3.0);
    source.push_back(unit * 1.0);
    types.push_back(1);
  }
  const IcpResult result = align_icp(source, types, target, types);
  EXPECT_GT(result.mean_squared_error, 1.0);
}

TEST(Icp, MultiRestartEscapesLocalOptimum) {
  // A near-symmetric shape (square-ish ring) with a small asymmetry: plain
  // ICP from angle 0 may lock into the wrong lobe; restarts must find the
  // global optimum.
  Cloud target;
  for (int i = 0; i < 12; ++i) {
    const double a = 2.0 * kPi * i / 12.0;
    target.points.push_back({std::cos(a) * (i == 0 ? 1.4 : 1.0),
                             std::sin(a) * (i == 3 ? 1.4 : 1.0)});
    target.types.push_back(0);
  }
  const RigidTransform2 truth{kPi, {0, 0}};  // half turn
  const std::vector<Vec2> source = truth.inverse().apply(target.points);

  IcpOptions options;
  options.rotation_restarts = 16;
  const IcpResult result =
      align_icp(source, target.types, target.points, target.types, options);
  EXPECT_LT(result.mean_squared_error, 1e-10);
}

TEST(Icp, PreconditionsEnforced) {
  const Cloud cloud = make_cloud(10, 2, 19);
  EXPECT_THROW((void)align_icp({}, {}, cloud.points, cloud.types),
               sops::PreconditionError);

  // Histogram mismatch: different type counts.
  std::vector<TypeId> wrong_types = cloud.types;
  wrong_types[0] = 1 - wrong_types[0];
  EXPECT_THROW(
      (void)align_icp(cloud.points, wrong_types, cloud.points, cloud.types),
      sops::PreconditionError);

  IcpOptions bad;
  bad.rotation_restarts = 0;
  EXPECT_THROW((void)align_icp(cloud.points, cloud.types, cloud.points,
                               cloud.types, bad),
               sops::PreconditionError);

  // No iterations: there would be no correspondence to score.
  IcpOptions no_iterations;
  no_iterations.max_iterations = 0;
  EXPECT_THROW((void)align_icp(cloud.points, cloud.types, cloud.points,
                               cloud.types, no_iterations),
               sops::PreconditionError);

  // A NaN coordinate on either side.
  std::vector<Vec2> with_nan = cloud.points;
  with_nan[3].y = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(
      (void)align_icp(with_nan, cloud.types, cloud.points, cloud.types),
      sops::PreconditionError);
  EXPECT_THROW(
      (void)align_icp(cloud.points, cloud.types, with_nan, cloud.types),
      sops::PreconditionError);
}

TEST(MatchByType, IdentityOnEqualClouds) {
  const Cloud cloud = make_cloud(25, 3, 23);
  const auto match =
      match_by_type(cloud.points, cloud.types, cloud.points, cloud.types);
  for (std::size_t i = 0; i < match.size(); ++i) EXPECT_EQ(match[i], i);
}

TEST(MatchByType, IsAPermutation) {
  const Cloud a = make_cloud(30, 2, 29);
  Cloud b = make_cloud(30, 2, 31);
  b.types = a.types;  // same histogram, different positions
  const auto match = match_by_type(a.points, a.types, b.points, b.types);
  std::vector<char> used(match.size(), 0);
  for (const std::size_t t : match) {
    ASSERT_LT(t, match.size());
    EXPECT_FALSE(used[t]);
    used[t] = 1;
  }
}

TEST(MatchByType, PreservesTypes) {
  const Cloud a = make_cloud(24, 3, 37);
  Cloud b = make_cloud(24, 3, 41);
  b.types = a.types;
  const auto match = match_by_type(a.points, a.types, b.points, b.types);
  for (std::size_t i = 0; i < match.size(); ++i) {
    EXPECT_EQ(a.types[i], b.types[match[i]]);
  }
}

TEST(MatchByType, RecoversAppliedPermutation) {
  // Permute a cloud within types; matching must invert the permutation.
  const Cloud a = make_cloud(20, 2, 43);
  std::vector<std::size_t> perm(a.points.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  // Swap two same-type pairs.
  std::swap(perm[0], perm[2]);   // both type 0 (i % 2 pattern)
  std::swap(perm[1], perm[3]);   // both type 1
  std::vector<Vec2> b_points(a.points.size());
  for (std::size_t i = 0; i < perm.size(); ++i) b_points[perm[i]] = a.points[i];

  const auto match = match_by_type(a.points, a.types, b_points, a.types);
  for (std::size_t i = 0; i < perm.size(); ++i) EXPECT_EQ(match[i], perm[i]);
}

TEST(MatchByType, MatchesSortedGreedyOracleOnFuzzedClouds) {
  for (const std::uint64_t seed : {3u, 11u, 29u, 71u}) {
    const Cloud a = make_cloud(60, 3, seed);
    const Cloud b = make_cloud(60, 3, seed + 1000);
    EXPECT_EQ(match_by_type(a.points, a.types, b.points, b.types),
              sorted_greedy_oracle(a.points, a.types, b.points, b.types))
        << "seed=" << seed;
  }
}

TEST(MatchByType, MatchesOracleWithDuplicatePointTies) {
  // Coincident points on both sides: many exactly-tied pair distances, so
  // only identical (dist, s, t) tie-breaking reproduces the oracle.
  Cloud a = make_cloud(24, 2, 7);
  Cloud b = make_cloud(24, 2, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    a.points[i] = {1.0, -1.0};
    b.points[i + 4] = {1.25, -1.0};
    // Types keep the i % 2 pattern, so duplicates span both types.
  }
  EXPECT_EQ(match_by_type(a.points, a.types, b.points, b.types),
            sorted_greedy_oracle(a.points, a.types, b.points, b.types));
}

TEST(MatchByType, OverflowingDistancesStayWithinType) {
  // Finite coordinates whose every same-type squared distance overflows to
  // +inf: each source still gets an unused target of its own type, in the
  // sorted greedy's (dist, s, t) order — here the lowest free t per s.
  const std::vector<Vec2> source{{1e200, 0.0}, {1e200, 1.0}, {1e200, 2.0},
                                 {1e200, 3.0}};
  const std::vector<TypeId> source_types{1, 0, 1, 0};
  const std::vector<Vec2> target{{-1e200, 0.0}, {-1e200, 1.0}, {-1e200, 2.0},
                                 {-1e200, 3.0}};
  const std::vector<TypeId> target_types{0, 1, 0, 1};
  const auto match = match_by_type(source, source_types, target, target_types);
  EXPECT_EQ(match, (std::vector<std::size_t>{1, 0, 3, 2}));
  EXPECT_EQ(match, sorted_greedy_oracle(source, source_types, target,
                                        target_types));
  for (std::size_t i = 0; i < match.size(); ++i) {
    EXPECT_EQ(target_types[match[i]], source_types[i]) << i;
  }
}

TEST(MatchByType, NonFiniteCoordinatesThrow) {
  const std::vector<TypeId> types{1, 0, 1, 0};
  const std::vector<Vec2> finite{{0, 0}, {1, 0}, {0, 1}, {1, 1}};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<Vec2> broken = finite;
    broken[2].y = bad;
    EXPECT_THROW((void)match_by_type(broken, types, finite, types),
                 sops::PreconditionError)
        << bad;
    EXPECT_THROW((void)match_by_type(finite, types, broken, types),
                 sops::PreconditionError)
        << bad;
  }
}

TEST(MatchByType, MismatchedHistogramsThrow) {
  const std::vector<Vec2> points{{0, 0}, {1, 1}};
  const std::vector<TypeId> a{0, 0};
  const std::vector<TypeId> b{0, 1};
  EXPECT_THROW((void)match_by_type(points, a, points, b),
               sops::PreconditionError);
}

}  // namespace
