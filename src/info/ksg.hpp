// Kraskov–Stögbauer–Grassberger multi-information estimator (paper §5.3,
// Eqs. 18–20):
//
//   I(W₁,…,W_n) ≈ ψ(k) + (n−1)ψ(m) − ⟨ Σ_i ψ(c_i) ⟩,
//
// where the joint metric is the max over observer blocks of the block L2
// norm, ε_s is the distance to the k-th neighbor of sample s under that
// metric, and c_i counts samples whose block-i marginal lies strictly
// within ε_s.
#pragma once

#include <cstddef>
#include <span>

#include "info/sample_matrix.hpp"

namespace sops::support {
class Executor;
}  // namespace sops::support

namespace sops::info {

class FrameNeighborCache;

/// How the marginal neighbor counts are computed. Both paths share the
/// joint ε search, compare the identical squared distances with the
/// identical strict < and therefore produce bitwise-equal estimates; the
/// choice is purely a throughput knob.
enum class NeighborSearch {
  /// Per-block kd-trees with batched (kSimdWidth queries per descent)
  /// count queries, counting whole subtrees whose bounding box lies inside
  /// ε — the default.
  kBlockedTree,
  /// An exhaustive per-pair scan of each marginal; the reference path.
  kBruteForce,
};

/// Which ψ-argument convention to use for the marginal counts.
enum class KsgConvention {
  /// Standard KSG-1: ψ(c_i + 1), where c_i excludes the sample itself.
  /// This is the convention of Kraskov et al. (2004) and the default.
  kStandard,
  /// The paper's Eq. (18)/(20) literally: ψ(c_i), with c_i floored at 1
  /// because ψ(0) diverges (c_i = 0 occurs when no other sample is strictly
  /// closer in marginal i than the k-th joint neighbor).
  kPaperLiteral,
};

/// Options of the estimator.
struct KsgOptions {
  std::size_t k = 4;  ///< neighbor order (paper §6 uses 4; §5.3 mentions 5)
  KsgConvention convention = KsgConvention::kStandard;
  /// Width of the call-local TaskPool the query loop runs on when
  /// `executor` is null (0 = hardware concurrency, 1 = inline). The one
  /// thread-count knob left on an estimator, kept while perfbench's traced
  /// rebuild sets it.
  std::size_t threads = 0;
  /// When set, the per-sample query loop dispatches its chunks on this
  /// executor (a persistent pool the caller reuses across frames) and
  /// `threads` is ignored. Never affects the estimate: per-sample terms
  /// are reduced in a fixed order regardless of who computes them.
  support::Executor* executor = nullptr;
  /// Neighbor-count implementation; never affects the estimate.
  NeighborSearch search = NeighborSearch::kBlockedTree;
  /// Optional per-frame tree cache (kBlockedTree only). Must be bound to
  /// the same SampleMatrix the estimator is called on; marginal trees are
  /// then built once per frame instead of once per call. The estimator
  /// resolves every tree serially before its parallel query phase, per the
  /// cache's single-writer contract.
  FrameNeighborCache* cache = nullptr;
};

/// Estimates the multi-information between the observer blocks of `samples`,
/// in bits (the digamma formula is evaluated in nats and converted).
///
/// Requirements: at least k+1 samples, at least two blocks, blocks valid for
/// the sample dimension. Parallel over samples; the result is independent of
/// the thread count (per-sample contributions are reduced in a fixed order).
///
/// Cost: the joint ε is a partial-distance search (Bei & Gray 1985) — each
/// candidate's block-max distance is abandoned once it reaches the current
/// k-th smallest — so the O(m² · D) worst case shrinks to the blocks a
/// candidate needs before it is ruled out (about a fifth of them on the
/// paper's Fig. 4 ensemble). The marginal counts descend per-block kd-trees
/// and count a subtree without visiting it when its bounding box lies
/// strictly inside ε. Both shortcuts only skip work whose outcome is already
/// decided in floating point, so every estimate is the exhaustive scan's,
/// bit for bit.
///
/// Exact ties in the joint metric (possible with duplicated samples) are
/// resolved by index order, matching a stable sort over (distance, index).
[[nodiscard]] double multi_information_ksg(const SampleMatrix& samples,
                                           std::span<const Block> blocks,
                                           const KsgOptions& options = {});

/// Convenience overload: n equal-width blocks of `block_dim` coordinates.
[[nodiscard]] double multi_information_ksg(const SampleMatrix& samples,
                                           std::size_t block_dim,
                                           const KsgOptions& options = {});

}  // namespace sops::info
