// Parity of the indexed, warm-started ICP and of the counted-tree matcher
// with the aligner and matcher they replaced.
//
// The ICP oracle below is a frozen copy of the per-call aligner: per-type
// k-d trees built inside every align_icp call and an unbounded tree query
// for every correspondence of every iteration. The reference index, its
// certified warm-start, the bounded fallback query, the sticky matches kept
// inside a certified gap and the early stop on repeated correspondences
// must reproduce it bit for bit — transform, error and iteration count — on
// random, tie-heavy and real recorded frames. Both match_by_type overloads
// must return the frozen sorted matcher's permutation (match_oracle.hpp) on
// the same kinds of input, the reference index must not depend on the
// width of the executor that built it, and align_ensemble's (row, restart)
// fan-out must not depend on the executor width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "align/ensemble.hpp"
#include "align/icp.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "geom/kdtree.hpp"
#include "match_oracle.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "sim/force_law.hpp"
#include "support/executor.hpp"

namespace {

using sops::align::IcpOptions;
using sops::align::IcpResult;
using sops::align::IcpTarget;
using sops::geom::RigidTransform2;
using sops::geom::Vec2;
using sops::sim::TypeId;

namespace oracle {

struct TypedTargetTrees {
  std::vector<std::vector<double>> coords;
  std::vector<std::vector<std::uint32_t>> index;
  std::vector<sops::geom::KdTree> trees;

  TypedTargetTrees(std::span<const Vec2> target,
                   std::span<const TypeId> target_types) {
    TypeId max_type = 0;
    for (const TypeId t : target_types) max_type = std::max(max_type, t);
    const std::size_t types = static_cast<std::size_t>(max_type) + 1;
    coords.resize(types);
    index.resize(types);
    for (std::size_t i = 0; i < target.size(); ++i) {
      const auto type = static_cast<std::size_t>(target_types[i]);
      coords[type].push_back(target[i].x);
      coords[type].push_back(target[i].y);
      index[type].push_back(static_cast<std::uint32_t>(i));
    }
    trees.reserve(types);
    for (std::size_t type = 0; type < types; ++type) {
      trees.emplace_back(coords[type], 2);
    }
  }

  [[nodiscard]] std::size_t nearest(Vec2 p, TypeId type) const {
    const double query[2] = {p.x, p.y};
    const sops::geom::Neighbor nn =
        trees[static_cast<std::size_t>(type)].nearest({query, 2});
    return index[static_cast<std::size_t>(type)][nn.index];
  }
};

IcpResult icp_descent(std::span<const Vec2> source,
                      std::span<const TypeId> source_types,
                      std::span<const Vec2> target,
                      const TypedTargetTrees& target_trees,
                      double initial_angle, const IcpOptions& options) {
  const Vec2 source_centroid = sops::geom::centroid(source);
  RigidTransform2 current{
      initial_angle,
      source_centroid - sops::geom::rotated(source_centroid, initial_angle)};

  IcpResult result;
  result.mean_squared_error = std::numeric_limits<double>::infinity();

  std::vector<Vec2> moved(source.size());
  std::vector<Vec2> matched(source.size());

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    for (std::size_t i = 0; i < source.size(); ++i) {
      moved[i] = current.apply(source[i]);
    }
    double mse = 0.0;
    for (std::size_t i = 0; i < source.size(); ++i) {
      const std::size_t nn = target_trees.nearest(moved[i], source_types[i]);
      matched[i] = target[nn];
      mse += sops::geom::dist_sq(moved[i], matched[i]);
    }
    mse /= static_cast<double>(source.size());

    if (mse >= result.mean_squared_error - options.convergence_tolerance) {
      result.mean_squared_error = std::min(mse, result.mean_squared_error);
      break;
    }
    result.mean_squared_error = mse;
    current = sops::geom::fit_rigid(source, matched);
  }
  result.transform = current;
  return result;
}

IcpResult align_icp(std::span<const Vec2> source,
                    std::span<const TypeId> source_types,
                    std::span<const Vec2> target,
                    std::span<const TypeId> target_types,
                    const IcpOptions& options = {}) {
  const TypedTargetTrees target_trees(target, target_types);
  IcpResult best;
  best.mean_squared_error = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < options.rotation_restarts; ++r) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(r) /
                         static_cast<double>(options.rotation_restarts);
    IcpResult candidate = icp_descent(source, source_types, target,
                                      target_trees, angle, options);
    if (candidate.mean_squared_error < best.mean_squared_error) {
      best = candidate;
    }
  }
  return best;
}

}  // namespace oracle

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const IcpResult& actual, const IcpResult& expected) {
  EXPECT_TRUE(same_bits(actual.transform.angle, expected.transform.angle))
      << actual.transform.angle << " vs " << expected.transform.angle;
  EXPECT_TRUE(same_bits(actual.transform.translation.x,
                        expected.transform.translation.x));
  EXPECT_TRUE(same_bits(actual.transform.translation.y,
                        expected.transform.translation.y));
  EXPECT_TRUE(same_bits(actual.mean_squared_error, expected.mean_squared_error))
      << actual.mean_squared_error << " vs " << expected.mean_squared_error;
  EXPECT_EQ(actual.iterations, expected.iterations);
}

// Every way the library runs a descent against the oracle: the span
// wrapper, a shared index, and restarts run one by one then selected.
void expect_parity(std::span<const Vec2> source,
                   std::span<const TypeId> source_types,
                   std::span<const Vec2> target,
                   std::span<const TypeId> target_types,
                   const IcpOptions& options = {}) {
  const IcpResult expected =
      oracle::align_icp(source, source_types, target, target_types, options);
  expect_identical(sops::align::align_icp(source, source_types, target,
                                          target_types, options),
                   expected);
  const IcpTarget index(target, target_types);
  expect_identical(sops::align::align_icp(source, source_types, index, options),
                   expected);
  std::vector<IcpResult> restarts;
  for (std::size_t r = 0; r < options.rotation_restarts; ++r) {
    restarts.push_back(
        sops::align::icp_restart(source, source_types, index, r, options));
  }
  expect_identical(sops::align::best_restart(restarts), expected);
}

struct Cloud {
  std::vector<Vec2> points;
  std::vector<TypeId> types;
};

Cloud random_cloud(std::size_t n, std::size_t type_count, std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  Cloud cloud;
  for (std::size_t i = 0; i < n; ++i) {
    cloud.points.push_back({sops::rng::uniform(engine, -8.0, 8.0),
                            sops::rng::uniform(engine, -3.0, 3.0)});
    cloud.types.push_back(static_cast<TypeId>(
        sops::rng::uniform(engine, 0.0, static_cast<double>(type_count))));
  }
  return cloud;
}

// `cloud` moved by a random pose, jittered, and shuffled within the whole
// array (types travel with their points, so histograms match).
Cloud posed_copy(const Cloud& cloud, double jitter, std::uint64_t seed) {
  sops::rng::Xoshiro256 engine(seed);
  const RigidTransform2 pose{
      sops::rng::uniform(engine, -std::numbers::pi, std::numbers::pi),
      {sops::rng::uniform(engine, -4.0, 4.0),
       sops::rng::uniform(engine, -4.0, 4.0)}};
  Cloud out;
  for (std::size_t i = 0; i < cloud.points.size(); ++i) {
    Vec2 p = pose.apply(cloud.points[i]);
    if (jitter > 0.0) p += sops::rng::normal_vec2(engine, jitter);
    out.points.push_back(p);
    out.types.push_back(cloud.types[i]);
  }
  for (std::size_t i = out.points.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        sops::rng::uniform(engine, 0.0, static_cast<double>(i)));
    std::swap(out.points[i - 1], out.points[std::min(j, i - 1)]);
    std::swap(out.types[i - 1], out.types[std::min(j, i - 1)]);
  }
  return out;
}

// k×k integer lattice, types by (x + y) mod type_count, optionally with
// every point repeated `copies` times (exact duplicates).
Cloud lattice(int k, std::size_t type_count, int copies = 1) {
  Cloud cloud;
  for (int c = 0; c < copies; ++c) {
    for (int y = 0; y < k; ++y) {
      for (int x = 0; x < k; ++x) {
        cloud.points.push_back({static_cast<double>(x), static_cast<double>(y)});
        cloud.types.push_back(static_cast<TypeId>(
            static_cast<std::size_t>(x + y) % type_count));
      }
    }
  }
  return cloud;
}

TEST(IcpParity, RandomMultiTypeClouds) {
  std::uint64_t seed = 1;
  for (const std::size_t n : {12u, 40u, 150u, 400u}) {
    for (const std::size_t types : {1u, 2u, 3u, 5u}) {
      for (const double jitter : {0.0, 0.05, 0.4}) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " types=" << types
                                        << " jitter=" << jitter);
        const Cloud target = random_cloud(n, types, seed++);
        const Cloud source = posed_copy(target, jitter, seed++);
        expect_parity(source.points, source.types, target.points,
                      target.types);
      }
    }
  }
  // An unrelated source of the same histogram: descents wander far, so
  // warm starts often fail their certificate.
  const Cloud target = random_cloud(200, 3, 900);
  Cloud source = random_cloud(200, 3, 901);
  source.types = target.types;
  expect_parity(source.points, source.types, target.points, target.types);
}

TEST(IcpParity, LatticeAndDuplicateTies) {
  IcpOptions options;
  options.rotation_restarts = 4;  // quarter turns map the lattice to itself
  for (const int copies : {1, 2, 3}) {
    for (const std::size_t types : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "copies=" << copies
                                      << " types=" << types);
      const Cloud target = lattice(9, types, copies);
      // The lattice itself, shuffled: every query sits exactly on a target.
      const Cloud same = posed_copy(target, 0.0, 77);
      Cloud shuffled = target;
      std::reverse(shuffled.points.begin(), shuffled.points.end());
      std::reverse(shuffled.types.begin(), shuffled.types.end());
      expect_parity(shuffled.points, shuffled.types, target.points,
                    target.types, options);
      expect_parity(target.points, target.types, target.points, target.types,
                    options);
      // Half-integer offsets put queries equidistant from 2 or 4 targets.
      Cloud offset = target;
      for (Vec2& p : offset.points) p += Vec2{0.5, 0.5};
      expect_parity(offset.points, offset.types, target.points, target.types,
                    options);
      Cloud half = target;
      for (Vec2& p : half.points) p += Vec2{0.5, 0.0};
      expect_parity(half.points, half.types, target.points, target.types,
                    options);
      expect_parity(same.points, same.types, target.points, target.types,
                    options);
    }
  }
}

TEST(IcpParity, TypesWithFewerThanNineMembers) {
  // Type 0 is large; types 1..6 have 1, 3, 8, 9, 16 and 17 members: warm
  // starts only above one tree leaf (16), where the 16 neighbours of a
  // 17-member type are the whole type.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Cloud target = random_cloud(120, 1, 300 + seed);
    const std::size_t sizes[] = {1, 3, 8, 9, 16, 17};
    std::size_t cursor = 0;
    for (std::size_t t = 0; t < 6; ++t) {
      for (std::size_t k = 0; k < sizes[t]; ++k) {
        target.types[cursor++] = static_cast<TypeId>(t + 1);
      }
    }
    const Cloud source = posed_copy(target, 0.1, 400 + seed);
    expect_parity(source.points, source.types, target.points, target.types);
  }
  // Only small types: no particle has a warm-start radius.
  const Cloud tiny = random_cloud(8, 1, 17);
  expect_parity(posed_copy(tiny, 0.05, 18).points, tiny.types, tiny.points,
                tiny.types);
}

TEST(IcpParity, NearestFromEqualsTreeQuery) {
  for (const int copies : {1, 2}) {
    const Cloud random = random_cloud(500, 3, 61 + copies);
    const Cloud grid = lattice(12, 3, copies);
    for (const Cloud* cloud : {&random, &grid}) {
      const IcpTarget index(cloud->points, cloud->types);
      sops::rng::Xoshiro256 engine(5);
      for (std::uint32_t previous = 0; previous < cloud->points.size();
           ++previous) {
        const Vec2 base = cloud->points[previous];
        const TypeId type = cloud->types[previous];
        const Vec2 queries[] = {
            base,
            base + Vec2{0.5, 0.0},
            base + Vec2{0.5, 0.5},
            base + sops::rng::normal_vec2(engine, 0.05),
            base + sops::rng::normal_vec2(engine, 0.6),
            base + sops::rng::normal_vec2(engine, 4.0)};
        for (const Vec2 q : queries) {
          EXPECT_EQ(index.nearest_from(q, previous), index.nearest(q, type))
              << "previous=" << previous << " q=(" << q.x << ", " << q.y
              << ")";
        }
      }
    }
  }
}

TEST(IcpParity, TypesOfSeventeenMembers) {
  // Fig. 4's 17/17/16 split: the two larger types keep warm starts whose
  // 16 neighbours cover the whole type, the third is one tree leaf.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Cloud target = random_cloud(50, 1, 500 + seed);
    for (std::size_t i = 0; i < 50; ++i) {
      target.types[i] = static_cast<TypeId>(i < 17 ? 0 : i < 34 ? 1 : 2);
    }
    for (const double jitter : {0.0, 0.3, 2.0}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " jitter=" << jitter);
      const Cloud source = posed_copy(target, jitter, 600 + seed);
      expect_parity(source.points, source.types, target.points,
                    target.types);
    }
  }
  // Every member of a 17-member type as a lattice (exact ties).
  Cloud grid = lattice(6, 1);
  for (std::size_t i = 0; i < grid.types.size(); ++i) {
    grid.types[i] = static_cast<TypeId>(i < 17 ? 0 : 1);
  }
  IcpOptions options;
  options.rotation_restarts = 4;
  expect_parity(grid.points, grid.types, grid.points, grid.types, options);
}

// Iteration caps of 1, 2 and 3 (and 6) pin the early stop's edges: a descent
// whose correspondences repeat at iteration k reports k + 2 iterations, or
// k + 1 when that is the cap. A negative tolerance never converges, so the
// descent must run to the cap even when nothing changes.
TEST(IcpParity, ShortIterationCaps) {
  const Cloud target = random_cloud(150, 3, 41);
  const Cloud posed = posed_copy(target, 0.05, 42);
  Cloud unrelated = random_cloud(150, 3, 43);
  unrelated.types = target.types;
  const Cloud grid = lattice(7, 2);
  Cloud offset = grid;
  for (Vec2& p : offset.points) p += Vec2{0.25, 0.0};
  for (const std::size_t cap : {1u, 2u, 3u, 6u}) {
    for (const double tolerance : {1e-9, 0.0, -1.0}) {
      SCOPED_TRACE(testing::Message() << "max_iterations=" << cap
                                      << " tolerance=" << tolerance);
      IcpOptions options;
      options.max_iterations = cap;
      options.convergence_tolerance = tolerance;
      expect_parity(posed.points, posed.types, target.points, target.types,
                    options);
      expect_parity(unrelated.points, unrelated.types, target.points,
                    target.types, options);
      options.rotation_restarts = 4;
      expect_parity(grid.points, grid.types, grid.points, grid.types,
                    options);
      expect_parity(offset.points, offset.types, grid.points, grid.types,
                    options);
    }
  }
}

// Every certified match — from a previous match, and from the first
// iteration's grid guess — is the tree's answer, and stays it for queries
// moved anywhere within its sticky radius: 0.999 of it in random
// directions, and on the boundary itself. Returns the certified count.
std::size_t expect_sticky_gaps(const Cloud& cloud, std::uint64_t seed) {
  const IcpTarget index(cloud.points, cloud.types);
  sops::rng::Xoshiro256 engine(seed);
  std::size_t certified = 0;
  const auto check = [&](Vec2 q, TypeId type,
                         const sops::align::IcpMatch& found) {
    EXPECT_EQ(found.index, index.nearest(q, type));
    const double reach = IcpTarget::sticky_radius(found);
    if (found.gap < 0.0) {
      EXPECT_LT(reach, 0.0);
      return;
    }
    EXPECT_TRUE(same_bits(found.distance,
                          std::sqrt(sops::geom::dist_sq(
                              q, cloud.points[found.index]))));
    if (reach < 0.0) return;
    ++certified;
    for (int k = 0; k < 8; ++k) {
      const double angle =
          sops::rng::uniform(engine, 0.0, 2.0 * std::numbers::pi);
      const Vec2 direction{std::cos(angle), std::sin(angle)};
      const double scale =
          k == 0 ? 1.0 : 0.999 * sops::rng::uniform(engine, 0.0, 1.0);
      const Vec2 moved = q + direction * (scale * reach);
      EXPECT_EQ(index.nearest(moved, type), found.index)
          << "q=(" << q.x << ", " << q.y << ") reach=" << reach
          << " scale=" << scale;
    }
  };
  for (std::uint32_t previous = 0; previous < cloud.points.size();
       ++previous) {
    const Vec2 base = cloud.points[previous];
    const TypeId type = cloud.types[previous];
    const Vec2 queries[] = {base,
                            base + Vec2{0.5, 0.0},
                            base + Vec2{0.5, 0.5},
                            base + sops::rng::normal_vec2(engine, 0.05),
                            base + sops::rng::normal_vec2(engine, 0.3),
                            base + sops::rng::normal_vec2(engine, 0.6),
                            base + sops::rng::normal_vec2(engine, 4.0)};
    for (const Vec2 q : queries) {
      check(q, type, index.match_from(q, previous));
      check(q, type, index.match(q, type));
    }
  }
  return certified;
}

TEST(IcpParity, StickyRadiusKeepsTheNearestPoint) {
  for (const std::size_t types : {1u, 3u}) {
    SCOPED_TRACE(testing::Message() << "types=" << types);
    EXPECT_GT(expect_sticky_gaps(random_cloud(400, types, 71), 72), 1000u);
    EXPECT_GT(expect_sticky_gaps(lattice(12, types), 73), 100u);
  }
  // 17 members: the warm start's neighbours are the whole type.
  Cloud seventeen = random_cloud(17, 1, 74);
  EXPECT_GT(expect_sticky_gaps(seventeen, 75), 10u);
  // Exact duplicates always tie with their copy, so nothing is certified.
  for (const int copies : {2, 3}) {
    SCOPED_TRACE(testing::Message() << "copies=" << copies);
    EXPECT_EQ(expect_sticky_gaps(lattice(9, 2, copies), 76), 0u);
  }
}

// The shell bound R − d(q, p) is all that guards the points beyond p's 16
// neighbours. Here p = 0 has 16 neighbours on the unit circle (R = 1), x
// lies just beyond them on the +x axis, and the query q = (0.7, 0) is
// 0.3001 from x but 0.30055 from the best candidate c: within 0.2% of the
// shell bound 0.3, yet farther than x, so the warm start must not settle.
TEST(IcpParity, ShellBoundGuardsPointsBeyondTheNeighbours) {
  const double theta = std::acos((1.49 - 0.30055 * 0.30055) / 1.4);
  Cloud cloud;
  cloud.points.push_back({0.0, 0.0});                             // p
  cloud.points.push_back({std::cos(theta), std::sin(theta)});     // c
  for (int k = 0; k < 15; ++k) {
    const double angle = 0.6 + (2.0 * std::numbers::pi - 1.2) * k / 14.0;
    cloud.points.push_back({std::cos(angle), std::sin(angle)});
  }
  cloud.points.push_back({1.0001, 0.0});                          // x
  cloud.types.assign(cloud.points.size(), 0);
  const IcpTarget index(cloud.points, cloud.types);
  const Vec2 q{0.7, 0.0};
  ASSERT_EQ(index.nearest(q, 0), cloud.points.size() - 1);
  EXPECT_EQ(index.nearest_from(q, 0), cloud.points.size() - 1);
  EXPECT_LT(index.match_from(q, 0).gap, 0.0);
}

sops::core::ExperimentConfig paper_row(std::size_t samples) {
  sops::sim::SimulationConfig simulation(sops::sim::InteractionModel(
      sops::sim::ForceLawKind::kSpring, 3,
      sops::sim::PairParams{1.0, 2.0, 1.0, 1.0}));
  simulation.types = sops::sim::evenly_distributed_types(1024, 3);
  simulation.cutoff_radius = 3.0;
  simulation.init_disc_radius = 48.0;
  simulation.steps = 40;
  simulation.record_stride = 20;
  simulation.seed = 99;
  sops::core::ExperimentConfig experiment(std::move(simulation));
  experiment.samples = samples;
  return experiment;
}

sops::core::ExperimentConfig fig4(std::size_t samples) {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.record_stride = 50;
  sops::core::ExperimentConfig experiment(std::move(simulation));
  experiment.samples = samples;
  return experiment;
}

// Every non-reference row of every frame against the oracle, aligned the
// way align_ensemble aligns it (both sides centred).
void expect_frame_parity(const sops::core::EnsembleSeries& series) {
  for (std::size_t f = 0; f < series.frame_count(); ++f) {
    const sops::geom::FrameView frame = series.frames[f];
    const std::vector<Vec2> reference = sops::geom::centered(frame[0]);
    for (std::size_t s = 1; s < frame.size(); ++s) {
      SCOPED_TRACE(testing::Message() << "frame " << f << " sample " << s);
      const std::vector<Vec2> source = sops::geom::centered(frame[s]);
      expect_parity(source, series.types, reference, series.types);
    }
  }
}

TEST(IcpParity, PaperRowFrames) {
  expect_frame_parity(sops::core::run_experiment(paper_row(3)));
}

TEST(IcpParity, Fig4Frames) {
  expect_frame_parity(sops::core::run_experiment(fig4(10)));
}

// Both match_by_type overloads against the frozen sorted matcher.
void expect_match_parity(std::span<const Vec2> source,
                         std::span<const TypeId> source_types,
                         std::span<const Vec2> target,
                         std::span<const TypeId> target_types) {
  const std::vector<std::size_t> expected = sops::test::sorted_greedy_oracle(
      source, source_types, target, target_types);
  EXPECT_EQ(sops::align::match_by_type(source, source_types, target,
                                       target_types),
            expected);
  const IcpTarget index(target, target_types);
  EXPECT_EQ(sops::align::match_by_type(source, source_types, index), expected);
}

TEST(MatchParity, LatticeAndDuplicateTies) {
  for (const int copies : {1, 2, 3}) {
    for (const std::size_t types : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message() << "copies=" << copies
                                      << " types=" << types);
      const Cloud target = lattice(9, types, copies);
      Cloud reversed = target;
      std::reverse(reversed.points.begin(), reversed.points.end());
      std::reverse(reversed.types.begin(), reversed.types.end());
      expect_match_parity(reversed.points, reversed.types, target.points,
                          target.types);
      expect_match_parity(target.points, target.types, target.points,
                          target.types);
      // Half-integer offsets: every source is equidistant from 2 or 4
      // targets, most of them across a tree split.
      for (const Vec2 offset : {Vec2{0.5, 0.5}, Vec2{0.5, 0.0}, Vec2{0.0, -0.5}}) {
        Cloud moved = reversed;
        for (Vec2& p : moved.points) p += offset;
        expect_match_parity(moved.points, moved.types, target.points,
                            target.types);
      }
      const Cloud posed = posed_copy(target, 0.0, 79);
      expect_match_parity(posed.points, posed.types, target.points,
                          target.types);
    }
  }
}

TEST(MatchParity, TypesOfOneToThreeHundredFortyOneMembers) {
  // One tree leaf (1, 8, 16), two leaves (17) and a paper-row type (341).
  const std::size_t sizes[] = {1, 8, 16, 17, 341};
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    Cloud target = random_cloud(383, 1, 700 + seed);
    std::size_t cursor = 0;
    for (std::size_t t = 0; t < 5; ++t) {
      for (std::size_t k = 0; k < sizes[t]; ++k) {
        target.types[cursor++] = static_cast<TypeId>(t);
      }
    }
    for (const double jitter : {0.0, 0.2, 1.5}) {
      SCOPED_TRACE(testing::Message() << "seed=" << seed
                                      << " jitter=" << jitter);
      const Cloud source = posed_copy(target, jitter, 800 + seed);
      expect_match_parity(source.points, source.types, target.points,
                          target.types);
    }
    Cloud unrelated = random_cloud(383, 1, 900 + seed);
    unrelated.types = target.types;
    std::reverse(unrelated.types.begin(), unrelated.types.end());
    std::reverse(target.types.begin(), target.types.end());
    expect_match_parity(unrelated.points, unrelated.types, target.points,
                        target.types);
  }
}

TEST(MatchParity, OverflowingDistances) {
  // Type 0: ordinary coordinates. Type 1 (40 members, several tree levels):
  // sources at +1e200, targets at -1e200, so every squared distance is
  // +inf. Type 2: half its sources near their targets, half 1e200 away, so
  // the remaining distances overflow only after the near pairs commit.
  Cloud source = random_cloud(30, 1, 41);
  Cloud target = random_cloud(30, 1, 42);
  sops::rng::Xoshiro256 engine(43);
  for (int i = 0; i < 40; ++i) {
    source.points.push_back({1e200, sops::rng::uniform(engine, -1e190, 1e190)});
    target.points.push_back({-1e200, sops::rng::uniform(engine, -1e190, 1e190)});
    source.types.push_back(1);
    target.types.push_back(1);
  }
  for (int i = 0; i < 24; ++i) {
    const Vec2 p{sops::rng::uniform(engine, -5.0, 5.0),
                 sops::rng::uniform(engine, -5.0, 5.0)};
    source.points.push_back(i % 2 == 0 ? p : p + Vec2{2e200, 0.0});
    target.points.push_back(i % 2 == 0 ? p + Vec2{0.1, 0.0}
                                       : Vec2{-1e200, p.y});
    source.types.push_back(2);
    target.types.push_back(2);
  }
  expect_match_parity(source.points, source.types, target.points,
                      target.types);
  Cloud reversed = source;
  std::reverse(reversed.points.begin(), reversed.points.end());
  std::reverse(reversed.types.begin(), reversed.types.end());
  expect_match_parity(reversed.points, reversed.types, target.points,
                      target.types);
}

// Every row of every recorded frame, centred and ICP-aligned the way
// align_ensemble prepares it, and also unaligned.
void expect_frame_match_parity(const sops::core::EnsembleSeries& series) {
  for (std::size_t f = 0; f < series.frame_count(); ++f) {
    const sops::geom::FrameView frame = series.frames[f];
    const std::vector<Vec2> reference = sops::geom::centered(frame[0]);
    const IcpTarget index(reference, series.types);
    for (std::size_t s = 1; s < frame.size(); ++s) {
      SCOPED_TRACE(testing::Message() << "frame " << f << " sample " << s);
      const std::vector<Vec2> centred = sops::geom::centered(frame[s]);
      const IcpResult icp =
          sops::align::align_icp(centred, series.types, index);
      const std::vector<Vec2> aligned =
          sops::geom::centered(icp.transform.apply(centred));
      expect_match_parity(aligned, series.types, reference, series.types);
      expect_match_parity(centred, series.types, reference, series.types);
    }
  }
}

TEST(MatchParity, PaperRowFrames) {
  expect_frame_match_parity(sops::core::run_experiment(paper_row(3)));
}

TEST(MatchParity, Fig4Frames) {
  expect_frame_match_parity(sops::core::run_experiment(fig4(10)));
}

// The reference index built on executors of width 1 to 4 (and inline)
// answers every query identically: match, match_from with its certificate,
// and the sticky radius, bit for bit.
TEST(IcpParity, TargetIdenticalAcrossExecutorWidths) {
  Cloud seventeen = random_cloud(50, 1, 81);
  for (std::size_t i = 0; i < 50; ++i) {
    seventeen.types[i] = static_cast<TypeId>(i < 17 ? 0 : i < 34 ? 1 : 2);
  }
  const Cloud random = random_cloud(1024, 3, 82);
  const Cloud grid = lattice(20, 3, 2);
  for (const Cloud* cloud : {&std::as_const(seventeen), &random, &grid}) {
    SCOPED_TRACE(testing::Message() << "n=" << cloud->points.size());
    const IcpTarget inline_index(cloud->points, cloud->types);
    std::vector<std::unique_ptr<sops::support::TaskPool>> pools;
    std::vector<std::unique_ptr<IcpTarget>> indexes;
    for (std::size_t width = 1; width <= 4; ++width) {
      pools.push_back(std::make_unique<sops::support::TaskPool>(width));
      indexes.push_back(std::make_unique<IcpTarget>(
          cloud->points, cloud->types, &pools.back()->executor()));
    }
    const auto same_match = [](const sops::align::IcpMatch& a,
                               const sops::align::IcpMatch& b) {
      return a.index == b.index && same_bits(a.distance, b.distance) &&
             same_bits(a.gap, b.gap) &&
             same_bits(IcpTarget::sticky_radius(a),
                       IcpTarget::sticky_radius(b));
    };
    sops::rng::Xoshiro256 engine(83);
    for (std::uint32_t previous = 0; previous < cloud->points.size();
         ++previous) {
      const TypeId type = cloud->types[previous];
      const Vec2 base = cloud->points[previous];
      const Vec2 queries[] = {base, base + Vec2{0.5, 0.5},
                              base + sops::rng::normal_vec2(engine, 0.3),
                              base + sops::rng::normal_vec2(engine, 3.0)};
      for (const Vec2 q : queries) {
        const sops::align::IcpMatch from = inline_index.match_from(q, previous);
        const sops::align::IcpMatch guess = inline_index.match(q, type);
        for (const auto& index : indexes) {
          EXPECT_TRUE(same_match(index->match_from(q, previous), from))
              << "previous=" << previous;
          EXPECT_TRUE(same_match(index->match(q, type), guess))
              << "previous=" << previous;
        }
      }
    }
  }
}

// align_ensemble as it was: rows one at a time through the oracles.
std::vector<double> oracle_ensemble(sops::geom::FrameView frame,
                                    const std::vector<TypeId>& types) {
  const std::size_t n = types.size();
  std::vector<double> out;
  const std::vector<Vec2> reference = sops::geom::centered(frame[0]);
  for (const Vec2 p : reference) out.insert(out.end(), {p.x, p.y});
  for (std::size_t s = 1; s < frame.size(); ++s) {
    std::vector<Vec2> moved = sops::geom::centered(frame[s]);
    const IcpResult icp = oracle::align_icp(moved, types, reference, types);
    moved = sops::geom::centered(icp.transform.apply(moved));
    const std::vector<std::size_t> match =
        sops::test::sorted_greedy_oracle(moved, types, reference, types);
    std::vector<Vec2> permuted(n);
    for (std::size_t i = 0; i < n; ++i) permuted[match[i]] = moved[i];
    for (const Vec2 p : permuted) out.insert(out.end(), {p.x, p.y});
  }
  return out;
}

std::vector<double> flat(const sops::align::AlignedEnsemble& aligned) {
  std::vector<double> out;
  for (std::size_t s = 0; s < aligned.sample_count(); ++s) {
    const auto row = aligned.samples.row(s);
    out.insert(out.end(), row.begin(), row.end());
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(IcpParity, EnsembleIdenticalAcrossExecutorWidths) {
  const sops::core::EnsembleSeries paper = sops::core::run_experiment(paper_row(5));
  const sops::core::EnsembleSeries small = sops::core::run_experiment(fig4(40));
  for (const sops::core::EnsembleSeries* series : {&paper, &small}) {
    const sops::geom::FrameView frame = series->frames.back();
    const std::vector<double> expected = oracle_ensemble(frame, series->types);
    for (std::size_t width = 1; width <= 4; ++width) {
      SCOPED_TRACE(testing::Message() << "n=" << series->particle_count()
                                      << " width=" << width);
      sops::support::TaskPool pool(width);
      sops::align::EnsembleOptions pooled;
      pooled.executor = &pool.executor();
      EXPECT_TRUE(same_bits(
          flat(sops::align::align_ensemble(frame, series->types, pooled)),
          expected));
    }
    // The null executor: the whole alignment inline on this thread.
    SCOPED_TRACE(testing::Message() << "n=" << series->particle_count()
                                    << " inline");
    EXPECT_TRUE(same_bits(
        flat(sops::align::align_ensemble(frame, series->types)), expected));
  }
}

}  // namespace
