// Generic-dimension k-d tree over points stored as a flat row-major array.
//
// Used by the ICP aligner and the greedy matcher (per-type 2-D reference
// points), the Kozachenko–Leonenko entropy estimator, and the marginal
// neighbor counts of the KSG multi-information estimator (2-D per-particle
// marginals). The tree stores indices into the caller's point array; the
// array must outlive the tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sops::geom {

/// Result of a nearest-neighbor query: point index and squared distance.
struct Neighbor {
  std::size_t index = 0;
  double dist_sq = 0.0;
};

/// One contiguous coordinate range of the block-max metric: the distance
/// between two points is the max over blocks of the Euclidean norm of the
/// block coordinates (the KSG estimators' joint metric). The blocks passed
/// to a block-metric query must tile [0, dim) — every axis belongs to
/// exactly one block — which is what keeps single-axis pruning valid for
/// the composite metric: a split-axis delta² lower-bounds its block's
/// norm², which lower-bounds the max.
struct DimBlock {
  std::size_t offset = 0;
  std::size_t dim = 0;
};

/// Static k-d tree (build once, query many times) with Euclidean metric.
class KdTree {
 public:
  /// Builds a tree over `count` points of dimension `dim`, where point i
  /// occupies points[i*dim .. i*dim+dim). The span must stay valid for the
  /// lifetime of the tree. `count == 0` produces an empty tree.
  KdTree(std::span<const double> points, std::size_t dim);

  /// Number of indexed points.
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  /// Point dimension.
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Largest batch accepted by the batched count_within_blocks overload.
  static constexpr std::size_t kMaxCountBatch = 8;

  /// Most points a leaf holds: a tree of at most this many points is one
  /// leaf, and a query on it is a single scan.
  static constexpr std::size_t kLeafSize = 16;

  /// Nearest neighbor of `query` (dimension `dim()`); precondition: non-empty.
  /// Allocation-free; visits points in the same order as k_nearest(query, 1)
  /// with strict-< updates, so exact ties resolve to the same index.
  [[nodiscard]] Neighbor nearest(std::span<const double> query) const;

  /// nearest(query), searched with `bound_d2` as the initial radius² — the
  /// squared distance of a known candidate, so subtrees beyond it are never
  /// entered. The result is exactly nearest(query), index included: until
  /// the first point within the bound is found, a distance equal to the
  /// bound is accepted, which keeps the first minimum in visit order. A
  /// bound no indexed point meets falls back to the unbounded search.
  [[nodiscard]] Neighbor nearest(std::span<const double> query,
                                 double bound_d2) const;

  /// The k nearest neighbors of `query`, sorted by ascending distance.
  /// Returns fewer than k if the tree holds fewer points. When
  /// `skip_index` is a valid point index, that point is excluded — used for
  /// leave-one-out queries where the query is itself an indexed point.
  [[nodiscard]] std::vector<Neighbor> k_nearest(
      std::span<const double> query, std::size_t k,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;

  /// k_nearest(query, out.size(), skip_index) written to the front of
  /// `out`; returns how many neighbors were written. Same result, element
  /// for element, and allocation-free for k <= kInlineHeap.
  std::size_t k_nearest(
      std::span<const double> query, std::span<Neighbor> out,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;

  /// Largest k the span overload of k_nearest serves without allocating.
  static constexpr std::size_t kInlineHeap = 64;

  /// Which indexed points a nearest_live() query may still return: a live
  /// count per node and a live flag per leaf slot, O(size()) in all. The
  /// caller owns it, so one tree serves any number of concurrent live
  /// queries, each on its own set.
  struct LiveSet {
    std::vector<std::uint32_t> nodes;  // live members of each node
    std::vector<std::uint8_t> slots;   // 1 while the slot's point is live
  };

  /// Makes every indexed point live in `live`, reusing its storage.
  void reset_live(LiveSet& live) const;

  /// Removes live point `index` from `live`: one decrement on each node of
  /// its root-to-leaf path.
  void remove_live(std::size_t index, LiveSet& live) const;

  /// The live point nearest to `query`, ties to the lowest index: the least
  /// (squared distance, index) pair over the live points, compared
  /// lexicographically. Squared distances are summed in dim order from the
  /// query minus the point, so in 2-D they are geom::dist_sq(query, point)
  /// bit for bit, and a live set whose every distance overflows to +inf
  /// still yields its lowest index. Subtrees without a live member are
  /// never entered; a far child is entered while its split-axis delta² is
  /// at most the best distance, and a node is left only when its bounding
  /// box is strictly farther than the best (a point at exactly the best
  /// distance can still win on index), so the result is the exhaustive
  /// scan's. Preconditions: `live` was reset by this tree and holds at
  /// least one point, and the query and the indexed points are finite.
  [[nodiscard]] Neighbor nearest_live(std::span<const double> query,
                                      const LiveSet& live) const;

  /// Number of indexed points with distance to `query` strictly less than
  /// `radius` (Euclidean). `skip_index` as in k_nearest.
  [[nodiscard]] std::size_t count_within(
      std::span<const double> query, double radius,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;

  /// Squared block-max distance (see DimBlock) of the k-th nearest indexed
  /// point to `query`, ties broken by multiplicity. `blocks` must tile
  /// [0, dim). Equals the k-th order statistic of the exhaustive squared
  /// distance set — bitwise, not approximately, +inf included when fewer
  /// than k distances are finite. Preconditions: k >= 1 and at least k
  /// indexed points after excluding `skip_index`.
  [[nodiscard]] double kth_block_dist_sq(
      std::span<const double> query, std::size_t k,
      std::span<const DimBlock> blocks,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;

  /// Number of indexed points with block-max distance to `query` strictly
  /// less than `radius` (compared as squared distance < radius*radius, the
  /// comparison the KSG estimators make). `blocks` must tile [0, dim).
  ///
  /// Whole subtrees are counted without visiting their points when the
  /// farthest corner of the node's bounding box is strictly within the
  /// radius: per axis the larger of (lo − q)² and (hi − q)², summed in
  /// block order. Subtraction, squaring and summation are monotone in
  /// floating point, so every member's computed squared distance is at most
  /// the corner's and the leaf test would have counted it too — the count
  /// is the exhaustive scan's, bit for bit. A box holding a NaN coordinate
  /// is NaN itself, and any NaN or infinite corner fails the strict <, so
  /// such subtrees always fall back to the per-point test.
  [[nodiscard]] std::size_t count_within_blocks(
      std::span<const double> query, double radius,
      std::span<const DimBlock> blocks,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;

  /// Batched form: `radii.size()` query points share one tree descent.
  /// `queries` holds the points back to back (radii.size() * dim doubles);
  /// query b counts points with block-max distance < radii[b], excluding
  /// skips[b], into counts[b]. Each count is bitwise-identical to the
  /// single-query overload, whole-subtree counting included (a query leaves
  /// the batch's descent at the first node it counts whole). Batch size is
  /// capped at kMaxCountBatch; callers batch support::kSimdWidth points per
  /// descent.
  void count_within_blocks(std::span<const double> queries,
                           std::span<const double> radii,
                           std::span<const DimBlock> blocks,
                           std::span<const std::size_t> skips,
                           std::span<std::size_t> counts) const;

 private:
  struct Node {
    // Leaves hold a contiguous range of `order_`; internal nodes split on
    // axis `axis` at coordinate `split`.
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t axis = 0;
    double split = 0.0;
    int left = -1;
    int right = -1;
    [[nodiscard]] bool is_leaf() const noexcept { return left < 0; }
  };

  // Upper bound on the explicit traversal stack of the allocation-free
  // queries. Splits are at the median, so depth <= ceil(log2(count)) + 1 and
  // the DFS stack holds at most depth + 1 entries; 128 covers any count that
  // fits in memory.
  static constexpr std::size_t kMaxTraversalStack = 128;

  [[nodiscard]] const double* point(std::size_t i) const noexcept {
    return points_.data() + i * dim_;
  }
  // Point order_[slot], stored contiguously in leaf-scan order so hot leaf
  // loops stream instead of gathering through the permutation. Same doubles
  // as point(order_[slot]) — swapping one for the other never changes a
  // query result.
  [[nodiscard]] const double* leaf_point(std::size_t slot) const noexcept {
    return leaf_points_.data() + slot * dim_;
  }
  // Coordinate d of the leaf-ordered points as one contiguous column
  // (coordinate-major mirror of leaf_points_), so per-leaf distance loops
  // vectorize across points.
  [[nodiscard]] const double* leaf_column(std::size_t d) const noexcept {
    return leaf_columns_.data() + d * count_;
  }
  // Bounding box of node `id`'s members: dim_ lows, then dim_ highs. NaN
  // on an axis where any member's coordinate is NaN.
  [[nodiscard]] const double* box(std::size_t id) const noexcept {
    return boxes_.data() + id * 2 * dim_;
  }
  // Whether every member of node `id` lies strictly within `radius_sq` of
  // `query` under the block-max metric, judged from the box's farthest
  // corner (see count_within_blocks).
  [[nodiscard]] bool box_within(std::size_t id, const double* query,
                                std::span<const DimBlock> blocks,
                                double radius_sq) const noexcept;
  // A lower bound on the squared distance from `query` to every member of
  // node `id`, as the leaf scans compute it.
  [[nodiscard]] double box_min_dist_sq(std::size_t id,
                                       const double* query) const noexcept;
  [[nodiscard]] double dist_sq_to(std::size_t i,
                                  std::span<const double> query) const noexcept;
  // Slot of the nearest point with squared distance below `best_d2`, which
  // is lowered to that distance; size() when no point is below it.
  [[nodiscard]] std::size_t nearest_slot(const double* query,
                                         double& best_d2) const;
  template <std::size_t kDim>
  [[nodiscard]] std::size_t nearest_fixed(const double* query,
                                          double& best_d2) const;
  [[nodiscard]] std::size_t nearest_generic(const double* query,
                                            double& best_d2) const;
  int build(std::size_t begin, std::size_t end);
  void build_boxes();

  std::span<const double> points_;
  std::size_t dim_;
  std::size_t count_;
  std::vector<std::uint32_t> order_;    // permutation of point indices
  std::vector<std::uint32_t> slot_of_;  // inverse: slot_of_[order_[i]] == i
  std::vector<double> leaf_points_;   // points_ permuted by order_
  std::vector<double> leaf_columns_;  // same, coordinate-major
  std::vector<Node> nodes_;
  std::vector<double> boxes_;  // per node, see box()
  int root_ = -1;
};

/// Brute-force reference searcher with the same interface subset as KdTree;
/// used as an oracle in tests and for tiny inputs.
class BruteForceSearcher {
 public:
  BruteForceSearcher(std::span<const double> points, std::size_t dim);

  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  [[nodiscard]] Neighbor nearest(std::span<const double> query) const;

  /// nearest(query), searched with `bound_d2` as the initial radius² — the
  /// squared distance of a known candidate, so subtrees beyond it are never
  /// entered. The result is exactly nearest(query), index included: until
  /// the first point within the bound is found, a distance equal to the
  /// bound is accepted, which keeps the first minimum in visit order. A
  /// bound no indexed point meets falls back to the unbounded search.
  [[nodiscard]] Neighbor nearest(std::span<const double> query,
                                 double bound_d2) const;
  [[nodiscard]] std::vector<Neighbor> k_nearest(
      std::span<const double> query, std::size_t k,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;
  [[nodiscard]] std::size_t count_within(
      std::span<const double> query, double radius,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;
  [[nodiscard]] double kth_block_dist_sq(
      std::span<const double> query, std::size_t k,
      std::span<const DimBlock> blocks,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;
  [[nodiscard]] std::size_t count_within_blocks(
      std::span<const double> query, double radius,
      std::span<const DimBlock> blocks,
      std::size_t skip_index = static_cast<std::size_t>(-1)) const;

 private:
  std::span<const double> points_;
  std::size_t dim_;
  std::size_t count_;
};

}  // namespace sops::geom
