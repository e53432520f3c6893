// Tests for rigid transforms, centroiding, and the Procrustes fit.
#include <gtest/gtest.h>

#include <cstring>
#include <numbers>
#include <span>
#include <vector>

#include "geom/rigid_transform.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"

namespace {

using sops::geom::centered;
using sops::geom::centroid;
using sops::geom::fit_rigid;
using sops::geom::mean_squared_error;
using sops::geom::optimal_rotation;
using sops::geom::RigidTransform2;
using sops::geom::Vec2;

constexpr double kPi = std::numbers::pi;

std::vector<Vec2> random_cloud(std::size_t n, std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  std::vector<Vec2> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({sops::rng::uniform(engine, -5, 5),
                      sops::rng::uniform(engine, -5, 5)});
  }
  return points;
}

TEST(Centroid, OfKnownPoints) {
  const std::vector<Vec2> points{{0, 0}, {2, 0}, {1, 3}};
  EXPECT_EQ(centroid(points), Vec2(1.0, 1.0));
}

TEST(Centroid, EmptyThrows) {
  EXPECT_THROW((void)centroid(std::vector<Vec2>{}), sops::PreconditionError);
}

TEST(Centered, HasZeroCentroid) {
  const auto out = centered(random_cloud(17, 1));
  const Vec2 c = centroid(out);
  EXPECT_NEAR(c.x, 0.0, 1e-12);
  EXPECT_NEAR(c.y, 0.0, 1e-12);
}

TEST(RigidTransform, IdentityLeavesPointsFixed) {
  const auto identity = RigidTransform2::identity();
  EXPECT_EQ(identity.apply(Vec2{3, 4}), Vec2(3, 4));
}

TEST(RigidTransform, ApplyMatchesRotatePlusTranslate) {
  const RigidTransform2 g{kPi / 3.0, {1.0, -2.0}};
  const Vec2 p{2.0, 0.5};
  const Vec2 expected = rotated(p, kPi / 3.0) + Vec2{1.0, -2.0};
  const Vec2 actual = g.apply(p);
  EXPECT_NEAR(actual.x, expected.x, 1e-12);
  EXPECT_NEAR(actual.y, expected.y, 1e-12);
}

TEST(RigidTransform, InverseUndoes) {
  const RigidTransform2 g{0.8, {2.5, -1.0}};
  const Vec2 p{1.0, 7.0};
  const Vec2 back = g.inverse().apply(g.apply(p));
  EXPECT_NEAR(back.x, p.x, 1e-12);
  EXPECT_NEAR(back.y, p.y, 1e-12);
}

TEST(RigidTransform, ComposeAppliesRightThenLeft) {
  const RigidTransform2 a{0.3, {1, 0}};
  const RigidTransform2 b{-0.9, {0, 2}};
  const Vec2 p{0.7, 0.1};
  const Vec2 via_compose = compose(a, b).apply(p);
  const Vec2 via_sequential = a.apply(b.apply(p));
  EXPECT_NEAR(via_compose.x, via_sequential.x, 1e-12);
  EXPECT_NEAR(via_compose.y, via_sequential.y, 1e-12);
}

class OptimalRotationAngles : public ::testing::TestWithParam<double> {};

TEST_P(OptimalRotationAngles, RecoversAppliedAngle) {
  const double angle = GetParam();
  const auto source = centered(random_cloud(25, 7));
  std::vector<Vec2> target;
  for (const Vec2 p : source) target.push_back(rotated(p, angle));
  const double recovered = optimal_rotation(source, target);
  // Compare as directions (angles wrap at ±π).
  EXPECT_NEAR(std::cos(recovered), std::cos(angle), 1e-10);
  EXPECT_NEAR(std::sin(recovered), std::sin(angle), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Angles, OptimalRotationAngles,
                         ::testing::Values(0.0, 0.2, kPi / 2, 2.0, kPi - 0.01,
                                           -0.4, -2.9));

TEST(OptimalRotation, SizeMismatchThrows) {
  const std::vector<Vec2> a{{1, 0}};
  const std::vector<Vec2> b{{1, 0}, {0, 1}};
  EXPECT_THROW((void)optimal_rotation(a, b), sops::PreconditionError);
}

TEST(OptimalRotation, DegenerateAllZeroGivesZero) {
  const std::vector<Vec2> zeros(4, Vec2{});
  EXPECT_DOUBLE_EQ(optimal_rotation(zeros, zeros), 0.0);
}

class FitRigidCase : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(FitRigidCase, RecoversFullIsometry) {
  const auto [angle, tx, ty] = GetParam();
  const RigidTransform2 truth{angle, {tx, ty}};
  const auto source = random_cloud(30, 11);
  const auto target = truth.apply(source);

  const RigidTransform2 fitted = fit_rigid(source, target);
  const auto moved = fitted.apply(source);
  EXPECT_LT(mean_squared_error(moved, target), 1e-18);
}

INSTANTIATE_TEST_SUITE_P(
    Isometries, FitRigidCase,
    ::testing::Values(std::tuple{0.0, 0.0, 0.0}, std::tuple{1.1, 3.0, -2.0},
                      std::tuple{-2.7, 100.0, 50.0}, std::tuple{kPi, -1.0, 1.0},
                      std::tuple{0.001, 0.0, 10.0}));

TEST(FitRigid, NoiseGivesLeastSquaresFit) {
  // With symmetric noise the fit error must stay near the noise floor.
  const RigidTransform2 truth{0.6, {2, 1}};
  auto source = random_cloud(200, 13);
  auto target = truth.apply(source);
  sops::rng::Xoshiro256 engine(99);
  for (Vec2& p : target) p += sops::rng::normal_vec2(engine, 0.01);

  const RigidTransform2 fitted = fit_rigid(source, target);
  EXPECT_NEAR(fitted.angle, truth.angle, 0.01);
  EXPECT_LT(mean_squared_error(fitted.apply(source), target), 4e-4);
}

// The copy-centring form fit_rigid had before it accumulated the centred
// Procrustes sums in one pass: centred copies, then optimal_rotation.
RigidTransform2 fit_rigid_via_centered_copies(std::span<const Vec2> source,
                                              std::span<const Vec2> target) {
  const Vec2 source_c = centroid(source);
  const Vec2 target_c = centroid(target);
  std::vector<Vec2> s_centered;
  std::vector<Vec2> t_centered;
  for (const Vec2 p : source) s_centered.push_back(p - source_c);
  for (const Vec2 p : target) t_centered.push_back(p - target_c);
  const double angle = optimal_rotation(s_centered, t_centered);
  return {angle, target_c - rotated(source_c, angle)};
}

TEST(FitRigid, BitwiseEqualToCenteredCopyForm) {
  sops::rng::Xoshiro256 engine(47);
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const std::size_t n = 1 + static_cast<std::size_t>(seed * 7 % 300);
    const auto source = random_cloud(n, 100 + seed);
    const RigidTransform2 pose{sops::rng::uniform(engine, -kPi, kPi),
                               {sops::rng::uniform(engine, -50, 50),
                                sops::rng::uniform(engine, -50, 50)}};
    auto target = pose.apply(source);
    for (Vec2& p : target) p += sops::rng::normal_vec2(engine, 0.3);

    const RigidTransform2 fast = fit_rigid(source, target);
    const RigidTransform2 slow = fit_rigid_via_centered_copies(source, target);
    EXPECT_EQ(std::memcmp(&fast.angle, &slow.angle, sizeof(double)), 0) << n;
    EXPECT_EQ(std::memcmp(&fast.translation, &slow.translation, sizeof(Vec2)),
              0)
        << n;
  }
  // All points at one spot: both forms take the degenerate θ = 0.
  const std::vector<Vec2> point(5, Vec2{2.0, -1.0});
  EXPECT_EQ(fit_rigid(point, point).angle, 0.0);
  EXPECT_EQ(fit_rigid_via_centered_copies(point, point).angle, 0.0);
}

TEST(MeanSquaredError, KnownValue) {
  const std::vector<Vec2> a{{0, 0}, {1, 0}};
  const std::vector<Vec2> b{{0, 1}, {1, 2}};
  EXPECT_DOUBLE_EQ(mean_squared_error(a, b), (1.0 + 4.0) / 2.0);
}

TEST(MeanSquaredError, MismatchThrows) {
  const std::vector<Vec2> a{{0, 0}};
  const std::vector<Vec2> b;
  EXPECT_THROW((void)mean_squared_error(a, b), sops::PreconditionError);
}

}  // namespace
