// FrameNeighborCache + tree-backed estimator parity: the kBlockedTree
// search and a caller-supplied cache are pure throughput knobs, so every
// estimator must return the exact bits of its brute-force reference on any
// input — including degenerate ones with duplicated rows (ε ties, zero
// marginal counts).
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "info/decomposition.hpp"
#include "info/entropy.hpp"
#include "info/ksg.hpp"
#include "info/neighbor_cache.hpp"
#include "info/transfer_entropy.hpp"
#include "rng/engine.hpp"
#include "rng/samplers.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

namespace {

using sops::info::Block;
using sops::info::conditional_mutual_information_ksg;
using sops::info::entropy_kl;
using sops::info::entropy_kl_block;
using sops::info::FrameNeighborCache;
using sops::info::KsgOptions;
using sops::info::multi_information_ksg;
using sops::info::NeighborSearch;
using sops::info::SampleMatrix;
using sops::info::TransferEntropyOptions;
using sops::rng::Xoshiro256;

SampleMatrix fuzzed_matrix(std::size_t m, std::size_t dim, std::uint64_t seed,
                           std::size_t duplicated_rows = 0) {
  Xoshiro256 engine(seed);
  SampleMatrix samples(m, dim);
  for (std::size_t s = 0; s < m; ++s) {
    for (std::size_t d = 0; d < dim; ++d) {
      samples(s, d) = sops::rng::standard_normal(engine);
    }
  }
  // Duplicates exercise ε = 0 ties and empty strict-< neighborhoods.
  for (std::size_t s = 0; s + 1 < m && s + 1 <= duplicated_rows; ++s) {
    for (std::size_t d = 0; d < dim; ++d) {
      samples(m - 1 - s, d) = samples(s, d);
    }
  }
  return samples;
}

TEST(NeighborCache, KsgTreeMatchesBruteForceBitwise) {
  for (const std::uint64_t seed : {7u, 19u, 23u}) {
    for (const std::size_t duplicates : {std::size_t{0}, std::size_t{6}}) {
      const SampleMatrix samples = fuzzed_matrix(60, 6, seed, duplicates);
      KsgOptions brute;
      brute.search = NeighborSearch::kBruteForce;
      KsgOptions tree;  // kBlockedTree default, call-local cache
      FrameNeighborCache cache(samples);
      KsgOptions cached = tree;
      cached.cache = &cache;
      const double reference = multi_information_ksg(samples, 2, brute);
      EXPECT_EQ(multi_information_ksg(samples, 2, tree), reference);
      EXPECT_EQ(multi_information_ksg(samples, 2, cached), reference);
    }
  }
}

TEST(NeighborCache, ConditionalMiTreeMatchesBruteForceBitwise) {
  const Block a{0, 2};
  const Block b{2, 2};
  const Block c{4, 2};
  for (const std::uint64_t seed : {5u, 17u}) {
    for (const std::size_t duplicates : {std::size_t{0}, std::size_t{7}}) {
      const SampleMatrix samples = fuzzed_matrix(50, 6, seed, duplicates);
      TransferEntropyOptions brute;
      brute.search = NeighborSearch::kBruteForce;
      TransferEntropyOptions tree;
      FrameNeighborCache cache(samples);
      TransferEntropyOptions cached = tree;
      cached.cache = &cache;
      const double reference =
          conditional_mutual_information_ksg(samples, a, b, c, brute);
      EXPECT_EQ(conditional_mutual_information_ksg(samples, a, b, c, tree),
                reference);
      EXPECT_EQ(conditional_mutual_information_ksg(samples, a, b, c, cached),
                reference);
    }
  }
}

TEST(NeighborCache, EntropyCacheMatchesExhaustiveBitwise) {
  sops::support::TaskPool pool(2);
  for (const std::size_t duplicates : {std::size_t{0}, std::size_t{5}}) {
    const SampleMatrix samples = fuzzed_matrix(40, 4, 13, duplicates);
    FrameNeighborCache cache(samples);
    EXPECT_EQ(entropy_kl(samples, 4, &pool.executor(), &cache),
              entropy_kl(samples, 4, &pool.executor()));
    const Block block{2, 2};
    EXPECT_EQ(entropy_kl_block(samples, block, 4, &pool.executor(), &cache),
              entropy_kl_block(samples, block, 4, &pool.executor()));
  }
}

TEST(NeighborCache, DecompositionKeepsCacheForTotalOnly) {
  const SampleMatrix samples = fuzzed_matrix(45, 6, 29);
  const auto blocks = sops::info::uniform_blocks(3, 2);
  const sops::info::ObserverGrouping grouping = {{0, 1}, {2}};

  FrameNeighborCache cache(samples);
  KsgOptions cached;
  cached.cache = &cache;
  const auto with_cache = sops::info::decompose_multi_information(
      samples, blocks, grouping, cached);
  const auto without = sops::info::decompose_multi_information(
      samples, blocks, grouping, KsgOptions{});
  EXPECT_EQ(with_cache.total, without.total);
  EXPECT_EQ(with_cache.between_groups, without.between_groups);
  ASSERT_EQ(with_cache.within_group.size(), without.within_group.size());
  for (std::size_t g = 0; g < without.within_group.size(); ++g) {
    EXPECT_EQ(with_cache.within_group[g], without.within_group[g]);
  }
}

TEST(NeighborCache, SubspaceTreesAreBuiltOnceAndShared) {
  const SampleMatrix samples = fuzzed_matrix(30, 4, 3);
  FrameNeighborCache cache(samples);
  EXPECT_EQ(cache.tree_count(), 0u);

  const Block b0{0, 2};
  const FrameNeighborCache::SubspaceTree& first = cache.tree_for({&b0, 1});
  EXPECT_EQ(cache.tree_count(), 1u);
  // Same key → same tree, no rebuild.
  EXPECT_EQ(&cache.tree_for({&b0, 1}), &first);
  EXPECT_EQ(cache.tree_count(), 1u);

  // A KSG call with this cache adds its two marginals but reuses them on a
  // second call.
  KsgOptions options;
  options.cache = &cache;
  const double mi = multi_information_ksg(samples, 2, options);
  const std::size_t after_first = cache.tree_count();
  EXPECT_GT(after_first, 1u);
  EXPECT_EQ(multi_information_ksg(samples, 2, options), mi);
  EXPECT_EQ(cache.tree_count(), after_first);
}

TEST(NeighborCache, ContiguousPrefixIsZeroCopy) {
  const SampleMatrix samples = fuzzed_matrix(20, 4, 11);
  FrameNeighborCache cache(samples);
  // Blocks tiling the full row in order index the matrix storage directly.
  const std::vector<Block> full = {{0, 2}, {2, 2}};
  const auto& joint = cache.tree_for(full);
  EXPECT_TRUE(joint.storage.empty());
  EXPECT_EQ(joint.points.data(), samples.flat().data());
  // A strict subspace gathers.
  const Block tail{2, 2};
  const auto& marginal = cache.tree_for({&tail, 1});
  EXPECT_FALSE(marginal.storage.empty());
}

// A NaN or infinite coordinate is a named precondition error on both
// searches, raised before either path orders a sample: a block max drops
// a NaN block sum, which the tree and the scan would treat differently.
void expect_non_finite_error(const std::function<void()>& estimate) {
  try {
    estimate();
    ADD_FAILURE() << "no error for a non-finite sample";
  } catch (const sops::PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find("non-finite"), std::string::npos)
        << error.what();
  }
}

TEST(NeighborCache, NonFiniteSamplesThrowOnBothSearches) {
  const Block a{0, 2};
  const Block b{2, 2};
  const Block c{4, 2};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(testing::Message() << "value " << bad);
    SampleMatrix samples = fuzzed_matrix(60, 6, 31);
    samples(17, 3) = bad;
    Xoshiro256 engine(37);
    std::vector<double> source(80);
    std::vector<double> target(80);
    for (std::size_t t = 0; t < 80; ++t) {
      source[t] = sops::rng::standard_normal(engine);
      target[t] = sops::rng::standard_normal(engine);
    }
    target[41] = bad;
    for (const NeighborSearch search :
         {NeighborSearch::kBruteForce, NeighborSearch::kBlockedTree}) {
      KsgOptions ksg;
      ksg.search = search;
      expect_non_finite_error(
          [&] { (void)multi_information_ksg(samples, 2, ksg); });
      TransferEntropyOptions te;
      te.search = search;
      expect_non_finite_error(
          [&] { (void)conditional_mutual_information_ksg(samples, a, b, c, te); });
      expect_non_finite_error(
          [&] { (void)sops::info::transfer_entropy(source, target, 1, te); });
      expect_non_finite_error(
          [&] { (void)sops::info::transfer_entropy(target, source, 1, te); });
    }
    // The KL estimator's tree path is the cached one.
    FrameNeighborCache cache(samples);
    KsgOptions cached;
    cached.cache = &cache;
    expect_non_finite_error(
        [&] { (void)multi_information_ksg(samples, 2, cached); });
    expect_non_finite_error([&] { (void)entropy_kl(samples, 4, nullptr); });
    expect_non_finite_error(
        [&] { (void)entropy_kl(samples, 4, nullptr, &cache); });
    expect_non_finite_error(
        [&] { (void)entropy_kl_block(samples, b, 4, nullptr); });
    expect_non_finite_error(
        [&] { (void)entropy_kl_block(samples, b, 4, nullptr, &cache); });
    // A block that does not hold the coordinate still estimates, with the
    // same bits on both paths.
    EXPECT_EQ(entropy_kl_block(samples, a, 4, nullptr, &cache),
              entropy_kl_block(samples, a, 4, nullptr));
  }
}

}  // namespace
