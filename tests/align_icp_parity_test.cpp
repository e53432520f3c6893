// Parity of the indexed, warm-started ICP with the aligner it replaced.
//
// The oracle below is a frozen copy of the per-call aligner: per-type k-d
// trees built inside every align_icp call and an unbounded tree query for
// every correspondence of every iteration. The reference index, its
// certified warm-start and the bounded fallback query must reproduce it bit
// for bit — transform, error and iteration count — on random, tie-heavy and
// real recorded frames, and align_ensemble's (row, restart) fan-out must
// not depend on the executor width.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <span>
#include <vector>

#include "align/ensemble.hpp"
#include "align/icp.hpp"
#include "core/experiment.hpp"
#include "core/presets.hpp"
#include "geom/kdtree.hpp"
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
  // Type 0 is large; types 1..6 have 1, 3, 8, 9, 16 and 17 members: no R₈
  // below 9, and warm starts only above one tree leaf (16).
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

// align_ensemble as it was: rows one at a time through the oracle.
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
        sops::align::match_by_type(moved, types, reference, types);
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
