// KSG multi-information estimator tests: exact zero/positive behavior on
// synthetic ensembles with known mutual information.
#include <gtest/gtest.h>

#include <cmath>

#include "info/entropy.hpp"
#include "info/ksg.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::info::Block;
using sops::info::gaussian_mi_bits;
using sops::info::KsgConvention;
using sops::info::KsgOptions;
using sops::info::multi_information_ksg;
using sops::info::SampleMatrix;
using sops::rng::Xoshiro256;

// m samples of n i.i.d. standard normal scalars.
SampleMatrix independent_gaussians(std::size_t m, std::size_t n,
                                   std::uint64_t seed) {
  Xoshiro256 engine(seed);
  SampleMatrix samples(m, n);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < n; ++d) {
      samples(s, d) = sops::rng::standard_normal(engine);
    }
  }
  return samples;
}

// Bivariate normal with correlation rho, as two 1-D blocks.
SampleMatrix correlated_pair(std::size_t m, double rho, std::uint64_t seed) {
  Xoshiro256 engine(seed);
  SampleMatrix samples(m, 2);
  for (std::size_t s = 0; s < m; ++s) {
    const double x = sops::rng::standard_normal(engine);
    const double z = sops::rng::standard_normal(engine);
    samples(s, 0) = x;
    samples(s, 1) = rho * x + std::sqrt(1.0 - rho * rho) * z;
  }
  return samples;
}

TEST(Ksg, IndependentVariablesGiveNearZero) {
  const SampleMatrix samples = independent_gaussians(600, 4, 11);
  const double mi = multi_information_ksg(samples, 1);
  EXPECT_NEAR(mi, 0.0, 0.15);
}

class KsgGaussianMi : public ::testing::TestWithParam<double> {};

TEST_P(KsgGaussianMi, MatchesClosedFormWithinTolerance) {
  const double rho = GetParam();
  const SampleMatrix samples = correlated_pair(1500, rho, 31);
  KsgOptions options;
  options.k = 4;
  const double estimated = multi_information_ksg(samples, 1, options);
  const double expected = gaussian_mi_bits(rho);
  EXPECT_NEAR(estimated, expected, 0.12) << "rho=" << rho;
}

INSTANTIATE_TEST_SUITE_P(Correlations, KsgGaussianMi,
                         ::testing::Values(0.0, 0.3, 0.6, 0.9));

TEST(Ksg, MonotoneInCorrelation) {
  double previous = -1.0;
  for (const double rho : {0.0, 0.4, 0.7, 0.95}) {
    const SampleMatrix samples = correlated_pair(800, rho, 41);
    const double mi = multi_information_ksg(samples, 1);
    EXPECT_GT(mi, previous - 0.05) << rho;
    previous = mi;
  }
}

TEST(Ksg, MultivariateChainSumsPairwiseInformation) {
  // (X, Y=f(X), Z independent): I(X;Y;Z) = I(X;Y).
  const std::size_t m = 1000;
  Xoshiro256 engine(51);
  SampleMatrix samples(m, 3);
  const double rho = 0.8;
  for (std::size_t s = 0; s < m; ++s) {
    const double x = sops::rng::standard_normal(engine);
    samples(s, 0) = x;
    samples(s, 1) = rho * x + std::sqrt(1 - rho * rho) *
                                  sops::rng::standard_normal(engine);
    samples(s, 2) = sops::rng::standard_normal(engine);
  }
  const double mi3 = multi_information_ksg(samples, 1);
  const double expected = gaussian_mi_bits(rho);
  EXPECT_NEAR(mi3, expected, 0.17);
}

TEST(Ksg, TwoDimensionalBlocks) {
  // Two 2-D blocks where block 2 duplicates block 1 plus small noise:
  // high multi-information; independent blocks: near zero.
  const std::size_t m = 500;
  Xoshiro256 engine(61);
  SampleMatrix dependent(m, 4);
  SampleMatrix independent(m, 4);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < 2; ++d) {
      const double v = sops::rng::standard_normal(engine);
      dependent(s, d) = v;
      dependent(s, d + 2) = v + 0.05 * sops::rng::standard_normal(engine);
      independent(s, d) = sops::rng::standard_normal(engine);
      independent(s, d + 2) = sops::rng::standard_normal(engine);
    }
  }
  const double mi_dependent = multi_information_ksg(dependent, 2);
  const double mi_independent = multi_information_ksg(independent, 2);
  EXPECT_GT(mi_dependent, 2.0);
  EXPECT_NEAR(mi_independent, 0.0, 0.2);
}

TEST(Ksg, InvariantUnderBlockOrder) {
  const SampleMatrix samples = correlated_pair(400, 0.7, 71);
  const std::vector<Block> forward{{0, 1}, {1, 1}};
  const std::vector<Block> reversed{{1, 1}, {0, 1}};
  EXPECT_DOUBLE_EQ(multi_information_ksg(samples, forward),
                   multi_information_ksg(samples, reversed));
}

TEST(Ksg, InvariantUnderRigidShiftOfABlock) {
  // Adding a constant to one marginal must not change the estimate
  // (the metric uses differences only).
  SampleMatrix samples = correlated_pair(400, 0.5, 81);
  const double base = multi_information_ksg(samples, 1);
  for (std::size_t s = 0; s < samples.count(); ++s) samples(s, 1) += 100.0;
  EXPECT_DOUBLE_EQ(multi_information_ksg(samples, 1), base);
}

TEST(Ksg, ThreadCountDoesNotChangeResult) {
  // KsgOptions::threads sizes a call-local pool when no executor is lent;
  // neither that width nor a lent pool's width may change a bit.
  const SampleMatrix samples = correlated_pair(300, 0.6, 91);
  KsgOptions serial;
  serial.threads = 1;
  const double expected = multi_information_ksg(samples, 1, serial);
  KsgOptions parallel;
  parallel.threads = 4;
  EXPECT_EQ(multi_information_ksg(samples, 1, parallel), expected);
  for (std::size_t width = 1; width <= 4; ++width) {
    sops::support::TaskPool pool(width);
    KsgOptions lent;
    lent.executor = &pool.executor();
    EXPECT_EQ(multi_information_ksg(samples, 1, lent), expected)
        << "width " << width;
  }
}

TEST(Ksg, ConventionsDifferByBoundedBias) {
  const SampleMatrix samples = correlated_pair(500, 0.6, 101);
  KsgOptions standard;
  standard.convention = KsgConvention::kStandard;
  KsgOptions literal;
  literal.convention = KsgConvention::kPaperLiteral;
  const double a = multi_information_ksg(samples, 1, standard);
  const double b = multi_information_ksg(samples, 1, literal);
  EXPECT_NE(a, b);
  EXPECT_NEAR(a, b, 1.0);  // small systematic offset, same signal
}

TEST(Ksg, SensitivityToKIsMild) {
  // Paper §5.3: "the estimate is not very sensitive for changes of k".
  const SampleMatrix samples = correlated_pair(1000, 0.7, 111);
  KsgOptions k2;
  k2.k = 2;
  KsgOptions k10;
  k10.k = 10;
  const double a = multi_information_ksg(samples, 1, k2);
  const double b = multi_information_ksg(samples, 1, k10);
  EXPECT_NEAR(a, b, 0.1);
}

TEST(Ksg, DuplicatedSamplesDoNotCrash) {
  // Exact ties in the metric (duplicated rows) must yield a finite value.
  SampleMatrix samples(20, 2);
  for (std::size_t s = 0; s < 20; ++s) {
    samples(s, 0) = static_cast<double>(s % 5);
    samples(s, 1) = static_cast<double>(s % 5);
  }
  const double mi = multi_information_ksg(samples, 1);
  EXPECT_TRUE(std::isfinite(mi));
}

TEST(Ksg, PreconditionsEnforced) {
  const SampleMatrix tiny = correlated_pair(4, 0.5, 121);
  KsgOptions options;
  options.k = 4;  // needs >= 5 samples
  EXPECT_THROW((void)multi_information_ksg(tiny, 1, options),
               sops::PreconditionError);

  const SampleMatrix samples = correlated_pair(50, 0.5, 131);
  const std::vector<Block> one_block{{0, 2}};
  EXPECT_THROW((void)multi_information_ksg(samples, one_block),
               sops::PreconditionError);

  const std::vector<Block> overlapping{{0, 2}, {1, 1}};
  EXPECT_THROW((void)multi_information_ksg(samples, overlapping),
               sops::PreconditionError);

  KsgOptions zero_k;
  zero_k.k = 0;
  EXPECT_THROW((void)multi_information_ksg(samples, 1, zero_k),
               sops::PreconditionError);
}

}  // namespace
