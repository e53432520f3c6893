// Ensemble shape-space reduction tests, including the paper's central
// invariance property (Eqs. 11–14): the measured multi-information must not
// change when samples are hit with arbitrary isometries and same-type
// permutations.
#include <gtest/gtest.h>

#include <numeric>

#include "align/ensemble.hpp"
#include "info/ksg.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::align::align_ensemble;
using sops::align::AlignedEnsemble;
using sops::align::coarse_grain_ensemble;
using sops::align::EnsembleOptions;
using sops::geom::RigidTransform2;
using sops::geom::Vec2;
using sops::sim::TypeId;

// A structured ensemble: each sample is the same two-type "molecule" shape
// with per-sample jitter, random global rotation, translation, and
// within-type shuffling — exactly the nuisance factors alignment removes.
std::vector<std::vector<Vec2>> molecule_ensemble(
    std::size_t m, const std::vector<TypeId>& types, double jitter,
    std::uint64_t seed, bool randomize_pose = true, double scale_spread = 0.0) {
  sops::rng::Xoshiro256 engine(seed);
  // Template shape: type-0 ring of radius 2, type-1 pair inside.
  std::vector<Vec2> base(types.size());
  std::size_t ring = 0;
  std::size_t core = 0;
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (types[i] == 0) {
      const double a = 2.0 * std::numbers::pi * ring++ / 6.0;
      base[i] = {2.0 * std::cos(a), 2.0 * std::sin(a)};
    } else {
      base[i] = {0.5 * static_cast<double>(core++), 0.0};
    }
  }

  std::vector<std::vector<Vec2>> ensemble;
  for (std::size_t s = 0; s < m; ++s) {
    std::vector<Vec2> sample = base;
    // An optional per-sample shared scale factor: a degree of freedom all
    // observers reflect coherently, so the ensemble carries real
    // multi-information (isometry reduction cannot remove a scaling).
    const double scale =
        sops::rng::uniform(engine, 1.0 - scale_spread, 1.0 + scale_spread);
    for (Vec2& p : sample) p = p * scale + sops::rng::normal_vec2(engine, jitter);
    if (randomize_pose) {
      const RigidTransform2 pose{
          sops::rng::uniform(engine, 0.0, 2.0 * std::numbers::pi),
          {sops::rng::uniform(engine, -10.0, 10.0),
           sops::rng::uniform(engine, -10.0, 10.0)}};
      sample = pose.apply(sample);
      // Shuffle within type 0 (indices 0..5 in our layout).
      for (std::size_t i = 6; i > 1; --i) {
        std::swap(sample[i - 1], sample[sops::rng::uniform_index(engine, i)]);
      }
    }
    ensemble.push_back(std::move(sample));
  }
  return ensemble;
}

const std::vector<TypeId> kTypes{0, 0, 0, 0, 0, 0, 1, 1};

TEST(AlignEnsemble, OutputShape) {
  const auto configs = molecule_ensemble(20, kTypes, 0.05, 3);
  const AlignedEnsemble aligned = align_ensemble(configs, kTypes);
  EXPECT_EQ(aligned.sample_count(), 20u);
  EXPECT_EQ(aligned.observer_count(), 8u);
  EXPECT_EQ(aligned.samples.dim(), 16u);
  EXPECT_EQ(aligned.block_types, kTypes);
}

TEST(AlignEnsemble, EveryRowIsCentered) {
  const auto configs = molecule_ensemble(15, kTypes, 0.05, 5);
  const AlignedEnsemble aligned = align_ensemble(configs, kTypes);
  for (std::size_t s = 0; s < aligned.sample_count(); ++s) {
    const auto row = aligned.samples.row(s);
    double cx = 0.0;
    double cy = 0.0;
    for (std::size_t i = 0; i < kTypes.size(); ++i) {
      cx += row[2 * i];
      cy += row[2 * i + 1];
    }
    EXPECT_NEAR(cx, 0.0, 1e-9) << s;
    EXPECT_NEAR(cy, 0.0, 1e-9) << s;
  }
}

TEST(AlignEnsemble, RemovesPoseVariation) {
  // Same jittered shape with random poses: after alignment every sample must
  // be close to the reference (per-particle distance ~ jitter, not ~ pose).
  const auto configs = molecule_ensemble(25, kTypes, 0.02, 7);
  const AlignedEnsemble aligned = align_ensemble(configs, kTypes);
  const auto ref = aligned.samples.row(0);
  for (std::size_t s = 1; s < aligned.sample_count(); ++s) {
    const auto row = aligned.samples.row(s);
    for (std::size_t d = 0; d < aligned.samples.dim(); ++d) {
      EXPECT_NEAR(row[d], ref[d], 0.5) << "sample " << s << " dim " << d;
    }
  }
}

TEST(AlignEnsemble, MultiInformationInvariantUnderNuisanceGroup) {
  // The paper's Eq. (11)–(14): applying f ∈ ISO⁺(2) × S*_n to the samples
  // must leave the measured multi-information (essentially) unchanged.
  const auto clean = molecule_ensemble(60, kTypes, 0.1, 11, false, 0.3);
  auto transformed = clean;
  sops::rng::Xoshiro256 engine(13);
  for (auto& sample : transformed) {
    const RigidTransform2 pose{
        sops::rng::uniform(engine, 0.0, 2.0 * std::numbers::pi),
        {sops::rng::uniform(engine, -30.0, 30.0),
         sops::rng::uniform(engine, -30.0, 30.0)}};
    sample = pose.apply(sample);
    for (std::size_t i = 6; i > 1; --i) {
      std::swap(sample[i - 1], sample[sops::rng::uniform_index(engine, i)]);
    }
  }

  const AlignedEnsemble a = align_ensemble(clean, kTypes);
  const AlignedEnsemble b = align_ensemble(transformed, kTypes);
  const double mi_clean =
      sops::info::multi_information_ksg(a.samples, a.blocks);
  const double mi_transformed =
      sops::info::multi_information_ksg(b.samples, b.blocks);
  EXPECT_NEAR(mi_clean, mi_transformed, 0.8);
  EXPECT_GT(mi_clean, 1.0);  // the structured shape carries information
}

TEST(AlignEnsemble, DisablingRotationsKeepsCentering) {
  const auto configs = molecule_ensemble(10, kTypes, 0.05, 17);
  EnsembleOptions options;
  options.rotations = false;
  const AlignedEnsemble aligned = align_ensemble(configs, kTypes, options);
  const auto row = aligned.samples.row(3);
  double cx = 0.0;
  for (std::size_t i = 0; i < kTypes.size(); ++i) cx += row[2 * i];
  EXPECT_NEAR(cx, 0.0, 1e-9);
}

TEST(AlignEnsemble, ExecutorWidthDoesNotChangeResult) {
  // The inline run (null executor) and lent pools of every width give the
  // same bits.
  const auto configs = molecule_ensemble(12, kTypes, 0.05, 19);
  const AlignedEnsemble a = align_ensemble(configs, kTypes);
  for (std::size_t width = 1; width <= 4; ++width) {
    sops::support::TaskPool pool(width);
    EnsembleOptions pooled;
    pooled.executor = &pool.executor();
    const AlignedEnsemble b = align_ensemble(configs, kTypes, pooled);
    for (std::size_t s = 0; s < a.sample_count(); ++s) {
      const auto ra = a.samples.row(s);
      const auto rb = b.samples.row(s);
      for (std::size_t d = 0; d < a.samples.dim(); ++d) {
        EXPECT_EQ(ra[d], rb[d]) << "width " << width;
      }
    }
  }
}

TEST(AlignEnsemble, PreconditionsEnforced) {
  EXPECT_THROW(
      (void)align_ensemble(std::vector<std::vector<sops::geom::Vec2>>{}, kTypes),
      sops::PreconditionError);
  const auto configs = molecule_ensemble(5, kTypes, 0.05, 23);
  std::vector<TypeId> short_types{0, 1};
  EXPECT_THROW((void)align_ensemble(configs, short_types),
               sops::PreconditionError);
}

TEST(CoarseGrain, ReducesObserverCount) {
  const auto configs = molecule_ensemble(20, kTypes, 0.05, 29);
  const AlignedEnsemble fine = align_ensemble(configs, kTypes);
  sops::rng::Xoshiro256 engine(31);
  const AlignedEnsemble coarse = coarse_grain_ensemble(fine, 2, engine);
  // Type 0 (6 particles) → 2 clusters; type 1 (2 particles) → 2 clusters.
  EXPECT_EQ(coarse.observer_count(), 4u);
  EXPECT_EQ(coarse.sample_count(), fine.sample_count());
  EXPECT_EQ(coarse.block_types, (std::vector<TypeId>{0, 0, 1, 1}));
}

TEST(CoarseGrain, KLargerThanTypeSizeClampsToMembers) {
  const auto configs = molecule_ensemble(10, kTypes, 0.05, 37);
  const AlignedEnsemble fine = align_ensemble(configs, kTypes);
  sops::rng::Xoshiro256 engine(41);
  const AlignedEnsemble coarse = coarse_grain_ensemble(fine, 10, engine);
  EXPECT_EQ(coarse.observer_count(), 8u);  // 6 + 2
}

TEST(CoarseGrain, MeansLieWithinTypeExtent) {
  const auto configs = molecule_ensemble(15, kTypes, 0.05, 43);
  const AlignedEnsemble fine = align_ensemble(configs, kTypes);
  sops::rng::Xoshiro256 engine(47);
  const AlignedEnsemble coarse = coarse_grain_ensemble(fine, 2, engine);
  // Every coarse observer value must lie inside the bounding box of its
  // type's particles in the same sample (means of subsets).
  for (std::size_t s = 0; s < coarse.sample_count(); ++s) {
    for (std::size_t c = 0; c < coarse.observer_count(); ++c) {
      const TypeId type = coarse.block_types[c];
      double lo_x = 1e18, hi_x = -1e18, lo_y = 1e18, hi_y = -1e18;
      for (std::size_t i = 0; i < kTypes.size(); ++i) {
        if (kTypes[i] != type) continue;
        lo_x = std::min(lo_x, fine.samples(s, 2 * i));
        hi_x = std::max(hi_x, fine.samples(s, 2 * i));
        lo_y = std::min(lo_y, fine.samples(s, 2 * i + 1));
        hi_y = std::max(hi_y, fine.samples(s, 2 * i + 1));
      }
      EXPECT_GE(coarse.samples(s, 2 * c), lo_x - 1e-12);
      EXPECT_LE(coarse.samples(s, 2 * c), hi_x + 1e-12);
      EXPECT_GE(coarse.samples(s, 2 * c + 1), lo_y - 1e-12);
      EXPECT_LE(coarse.samples(s, 2 * c + 1), hi_y + 1e-12);
    }
  }
}

TEST(CoarseGrain, PreconditionsEnforced) {
  const auto configs = molecule_ensemble(5, kTypes, 0.05, 53);
  const AlignedEnsemble fine = align_ensemble(configs, kTypes);
  sops::rng::Xoshiro256 engine(59);
  EXPECT_THROW((void)coarse_grain_ensemble(fine, 0, engine),
               sops::PreconditionError);
}

}  // namespace
