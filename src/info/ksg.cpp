#include "info/ksg.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "info/digamma.hpp"
#include "info/neighbor_cache.hpp"
#include "support/parallel_for.hpp"
#include "support/simd.hpp"

namespace sops::info {
namespace {

// The k-th smallest block-max distance from sample s to the other samples,
// by partial-distance search (Bei & Gray 1985): `heap` keeps the k smallest
// squared distances seen so far as a max-heap, and a candidate is dropped as
// soon as its running block max reaches the heap top — its full max can at
// best tie the k-th value, which leaves the k-th value unchanged. Each
// block sum accumulates over ascending dims with the operands of
// block_dist_sq, and the running max is block_max_dist's std::max, so every
// admitted value is the exhaustive scan's bits; sqrt is monotone and
// correctly rounded, so sqrt of the k-th squared distance is the k-th
// distance. heap holds at most k doubles.
double kth_joint_distance(const SampleMatrix& samples,
                          std::span<const Block> blocks, std::size_t s,
                          std::size_t k, std::vector<double>& heap) {
  const std::size_t m = samples.count();
  const double* rs = samples.row(s).data();
  heap.clear();
  for (std::size_t j = 0; j < m; ++j) {
    if (j == s) continue;
    const double* rj = samples.row(j).data();
    const bool full = heap.size() == k;
    double max_sq = 0.0;
    bool dropped = false;
    for (const Block& block : blocks) {
      double sum = 0.0;
      for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
        const double diff = rs[d] - rj[d];
        sum += diff * diff;
      }
      max_sq = std::max(max_sq, sum);
      if (full && max_sq >= heap.front()) {
        dropped = true;
        break;
      }
    }
    if (dropped) continue;
    if (full) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = max_sq;
    } else {
      heap.push_back(max_sq);
    }
    std::push_heap(heap.begin(), heap.end());
  }
  return std::sqrt(heap.front());
}

}  // namespace

double multi_information_ksg(const SampleMatrix& samples,
                             std::span<const Block> blocks,
                             const KsgOptions& options) {
  const std::size_t m = samples.count();
  const std::size_t n = blocks.size();
  support::expect(options.k >= 1, "multi_information_ksg: k must be >= 1");
  support::expect(m >= options.k + 1,
                  "multi_information_ksg: need at least k+1 samples");
  support::expect(n >= 2, "multi_information_ksg: need at least two blocks");
  validate_blocks(blocks, samples.dim());
  expect_finite(samples, blocks, "multi_information_ksg: non-finite sample");

  // Per-sample Σ_i ψ-terms, filled in parallel, reduced sequentially so the
  // result does not depend on the thread count.
  std::vector<double> per_sample(m, 0.0);

  // Marginal searchers for the tree path, resolved serially up front (the
  // cache is single-writer; the parallel phase below only reads). The
  // psi_arg mapping and the per-sample ψ accumulation order (block 0, 1, …,
  // each from 0.0) match the brute-force loop exactly, and each tree count
  // equals the scan's strict-< count, so both paths return the same bits.
  const bool use_trees = options.search == NeighborSearch::kBlockedTree;
  std::optional<FrameNeighborCache> local_cache;
  std::vector<const FrameNeighborCache::SubspaceTree*> marginals;
  if (use_trees) {
    FrameNeighborCache* cache = options.cache;
    if (cache != nullptr) {
      support::expect(&cache->samples() == &samples,
                      "multi_information_ksg: cache bound to another matrix");
    } else {
      local_cache.emplace(samples);
      cache = &*local_cache;
    }
    marginals.reserve(n);
    for (const Block& block : blocks) {
      marginals.push_back(&cache->tree_for({&block, 1}));
    }
  }

  const auto psi_arg = [&options](std::size_t c) noexcept {
    return options.convention == KsgConvention::kStandard
               ? c + 1
               : std::max<std::size_t>(c, 1);
  };

  const auto query_chunk = [&](std::size_t begin, std::size_t end) {
    std::vector<double> scratch;
    if (!use_trees) {
      for (std::size_t s = begin; s < end; ++s) {
        const double eps =
            kth_joint_distance(samples, blocks, s, options.k, scratch);
        const double eps_sq = eps * eps;
        double psi_sum = 0.0;
        for (const Block& block : blocks) {
          // c_i: samples strictly closer than ε in this marginal.
          std::size_t c = 0;
          for (std::size_t j = 0; j < m; ++j) {
            if (j == s) continue;
            if (block_dist_sq(samples, s, j, block) < eps_sq) ++c;
          }
          psi_sum += digamma_int(psi_arg(c));
        }
        per_sample[s] = psi_sum;
      }
      return;
    }

    // Tree path: ε per sample first, then per block a batched count query —
    // support::kSimdWidth consecutive samples (contiguous gathered rows)
    // share each tree descent.
    std::vector<double> eps(end - begin);
    for (std::size_t s = begin; s < end; ++s) {
      eps[s - begin] = kth_joint_distance(samples, blocks, s, options.k,
                                          scratch);
      per_sample[s] = 0.0;
    }
    constexpr std::size_t kBatch = support::kSimdWidth;
    static_assert(kBatch <= geom::KdTree::kMaxCountBatch);
    std::array<std::size_t, kBatch> skips;
    std::array<std::size_t, kBatch> counts;
    for (const auto* marginal : marginals) {
      for (std::size_t s0 = begin; s0 < end; s0 += kBatch) {
        const std::size_t batch = std::min(kBatch, end - s0);
        for (std::size_t b = 0; b < batch; ++b) skips[b] = s0 + b;
        const std::span<const double> queries = marginal->points.subspan(
            s0 * marginal->point_dim, batch * marginal->point_dim);
        marginal->tree.count_within_blocks(
            queries, std::span<const double>(eps.data() + (s0 - begin), batch),
            marginal->metric, std::span<const std::size_t>(skips.data(), batch),
            std::span<std::size_t>(counts.data(), batch));
        for (std::size_t b = 0; b < batch; ++b) {
          per_sample[s0 + b] += digamma_int(psi_arg(counts[b]));
        }
      }
    }
  };
  if (options.executor != nullptr) {
    // Pooled path: the caller's persistent executor serves every frame's
    // chunked queries — no per-call thread creation.
    support::parallel_for_chunked(*options.executor, 0, m, query_chunk);
  } else {
    // Same width and chunk partition as a lent pool of `threads` runners.
    support::TaskPool pool(options.threads);
    support::parallel_for_chunked(pool.executor(), 0, m, query_chunk);
  }

  double mean_psi = 0.0;
  for (const double v : per_sample) mean_psi += v;
  mean_psi /= static_cast<double>(m);

  const double nats = digamma_int(options.k) +
                      (static_cast<double>(n) - 1.0) * digamma_int(m) - mean_psi;
  return nats * std::numbers::log2e;  // report bits, like the paper's figures
}

double multi_information_ksg(const SampleMatrix& samples, std::size_t block_dim,
                             const KsgOptions& options) {
  support::expect(block_dim > 0 && samples.dim() % block_dim == 0,
                  "multi_information_ksg: dim not a multiple of block_dim");
  const auto blocks = uniform_blocks(samples.dim() / block_dim, block_dim);
  return multi_information_ksg(samples, blocks, options);
}

}  // namespace sops::info
