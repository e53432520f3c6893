#include "info/entropy.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "info/digamma.hpp"
#include "info/neighbor_cache.hpp"
#include "support/parallel_for.hpp"

namespace sops::info {
namespace {

constexpr double kLog2E = std::numbers::log2e;

// k-th smallest Euclidean distance (over the block coordinates) from sample
// s to the other samples.
double kth_block_distance(const SampleMatrix& samples, const Block& block,
                          std::size_t s, std::size_t k,
                          std::vector<double>& scratch) {
  const std::size_t m = samples.count();
  scratch.clear();
  scratch.reserve(m - 1);
  for (std::size_t j = 0; j < m; ++j) {
    if (j == s) continue;
    scratch.push_back(block_dist_sq(samples, s, j, block));
  }
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   scratch.end());
  return std::sqrt(scratch[k - 1]);
}

}  // namespace

double log2_unit_ball_volume(std::size_t dim) {
  // V_D = π^{D/2} / Γ(D/2 + 1).
  const double d = static_cast<double>(dim);
  return (d / 2.0) * std::log2(std::numbers::pi) -
         kLog2E * std::lgamma(d / 2.0 + 1.0);
}

double entropy_kl_block(const SampleMatrix& samples, const Block& block,
                        std::size_t k, support::Executor* executor,
                        FrameNeighborCache* cache) {
  const std::size_t m = samples.count();
  support::expect(k >= 1 && m >= k + 1,
                  "entropy_kl_block: need at least k+1 samples");
  support::expect(block.dim > 0, "entropy_kl_block: empty block");
  support::expect(block.offset + block.dim <= samples.dim(),
                  "entropy_kl_block: block out of range");
  expect_finite(samples, {&block, 1}, "entropy_kl_block: non-finite sample");

  // Cached-tree path: resolve the subspace tree serially (single-writer
  // contract) before the parallel query phase below reads it. The k-th of
  // the square roots equals the square root of the k-th squared distance
  // (sqrt is monotone and correctly rounded), so the cached eps matches the
  // exhaustive kth_block_distance bit for bit.
  const FrameNeighborCache::SubspaceTree* tree = nullptr;
  if (cache != nullptr) {
    support::expect(&cache->samples() == &samples,
                    "entropy_kl_block: cache bound to another matrix");
    tree = &cache->tree_for({&block, 1});
  }

  std::vector<double> log_eps(m, 0.0);
  const auto chunk = [&](std::size_t begin, std::size_t end) {
    std::vector<double> scratch;
    for (std::size_t s = begin; s < end; ++s) {
      const double eps =
          tree != nullptr
              ? std::sqrt(tree->tree.kth_block_dist_sq(tree->query(s), k,
                                                       tree->metric, s))
              : kth_block_distance(samples, block, s, k, scratch);
      // Coincident samples yield ε = 0; contribute a strongly negative
      // but finite term so degenerate ensembles do not produce NaN.
      log_eps[s] = eps > 0.0 ? std::log2(eps) : -52.0;
    }
  };
  support::parallel_for_chunked(support::executor_or_inline(executor), 0, m,
                                chunk);

  double sum_log_eps = 0.0;
  for (const double v : log_eps) sum_log_eps += v;

  const double d = static_cast<double>(block.dim);
  return kLog2E * (digamma_int(m) - digamma_int(k)) +
         log2_unit_ball_volume(block.dim) +
         d / static_cast<double>(m) * sum_log_eps;
}

double entropy_kl(const SampleMatrix& samples, std::size_t k,
                  support::Executor* executor, FrameNeighborCache* cache) {
  return entropy_kl_block(samples, Block{0, samples.dim()}, k, executor, cache);
}

double multi_information_kl(const SampleMatrix& samples,
                            std::span<const Block> blocks, std::size_t k,
                            support::Executor* executor) {
  validate_blocks(blocks, samples.dim());
  double marginal_sum = 0.0;
  for (const Block& block : blocks) {
    marginal_sum += entropy_kl_block(samples, block, k, executor);
  }
  return marginal_sum -
         entropy_kl_block(samples, Block{0, samples.dim()}, k, executor);
}

double gaussian_entropy_bits(std::size_t dim, double sigma) {
  const double d = static_cast<double>(dim);
  return d / 2.0 *
         std::log2(2.0 * std::numbers::pi * std::numbers::e * sigma * sigma);
}

double gaussian_mi_bits(double rho) {
  return -0.5 * std::log2(1.0 - rho * rho);
}

}  // namespace sops::info
