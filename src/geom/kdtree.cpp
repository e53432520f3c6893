#include "geom/kdtree.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "support/error.hpp"

namespace sops::geom {
namespace {

// Squared block-max distance between a stored point and a query, bailing out
// as soon as the running max reaches `limit` (the discarded value cannot
// matter: every caller only compares the full max against `limit` with
// strict <, and a partial max already at `limit` pins the full max there
// too). Per-block sums accumulate over ascending dims exactly like
// info::block_dist_sq, so the doubles match the brute-force estimators.
bool block_max_within(const double* p, const double* q,
                      std::span<const DimBlock> blocks,
                      double limit) noexcept {
  double max_sq = 0.0;
  for (const DimBlock& block : blocks) {
    double sum = 0.0;
    for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
      const double diff = p[d] - q[d];
      sum += diff * diff;
    }
    if (sum > max_sq) max_sq = sum;
    if (max_sq >= limit) return false;
  }
  return true;
}

}  // namespace

KdTree::KdTree(std::span<const double> points, std::size_t dim)
    : points_(points), dim_(dim), count_(dim == 0 ? 0 : points.size() / dim) {
  support::expect(dim > 0, "KdTree: dimension must be positive");
  support::expect(points.size() % dim == 0,
                  "KdTree: point array size not a multiple of dim");
  support::expect(count_ <= std::numeric_limits<std::uint32_t>::max(),
                  "KdTree: too many points");
  order_.resize(count_);
  std::iota(order_.begin(), order_.end(), std::uint32_t{0});
  if (count_ > 0) {
    nodes_.reserve(2 * count_ / kLeafSize + 2);
    root_ = build(0, count_);
    slot_of_.resize(count_);
    leaf_points_.resize(count_ * dim_);
    leaf_columns_.resize(count_ * dim_);
    for (std::size_t slot = 0; slot < count_; ++slot) {
      slot_of_[order_[slot]] = static_cast<std::uint32_t>(slot);
      const double* src = point(order_[slot]);
      std::copy(src, src + dim_, leaf_points_.data() + slot * dim_);
      for (std::size_t d = 0; d < dim_; ++d) {
        leaf_columns_[d * count_ + slot] = src[d];
      }
    }
    build_boxes();
  }
}

// Bottom-up box pass in O(count): build() emits nodes in preorder, so both
// children of a node have higher ids and are done before it. Leaves take
// their members' coordinate range, parents the union of their children's.
// NaN is sticky (std::min/max would drop it), so a box never certifies a
// subtree holding a NaN coordinate.
void KdTree::build_boxes() {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  const auto lower = [](double a, double b) noexcept {
    return std::isnan(a) || std::isnan(b) ? kNaN : std::min(a, b);
  };
  const auto upper = [](double a, double b) noexcept {
    return std::isnan(a) || std::isnan(b) ? kNaN : std::max(a, b);
  };
  boxes_.resize(nodes_.size() * 2 * dim_);
  for (std::size_t id = nodes_.size(); id-- > 0;) {
    const Node& node = nodes_[id];
    double* lo = boxes_.data() + id * 2 * dim_;
    double* hi = lo + dim_;
    if (node.is_leaf()) {
      for (std::size_t d = 0; d < dim_; ++d) {
        const double* col = leaf_column(d);
        lo[d] = hi[d] = col[node.begin];
        for (std::size_t i = node.begin + 1; i < node.end; ++i) {
          lo[d] = lower(lo[d], col[i]);
          hi[d] = upper(hi[d], col[i]);
        }
      }
      continue;
    }
    const double* left = box(static_cast<std::size_t>(node.left));
    const double* right = box(static_cast<std::size_t>(node.right));
    for (std::size_t d = 0; d < dim_; ++d) {
      lo[d] = lower(left[d], right[d]);
      hi[d] = upper(left[dim_ + d], right[dim_ + d]);
    }
  }
}

bool KdTree::box_within(std::size_t id, const double* query,
                        std::span<const DimBlock> blocks,
                        double radius_sq) const noexcept {
  // Member coordinate p in [lo, hi] gives fl(lo − q) <= fl(p − q) <=
  // fl(hi − q), so the leaf test's (p − q)² is at most the larger corner
  // square, and block sums in the same dim order stay at most the corner's.
  // A NaN box axis makes both squares NaN; a query coordinate equal to an
  // infinite box end makes one square NaN and the other infinite (or NaN).
  // Either way the sum is NaN or infinite and fails the strict <.
  const double* lo = box(id);
  const double* hi = lo + dim_;
  for (const DimBlock& block : blocks) {
    double sum = 0.0;
    for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
      const double below = lo[d] - query[d];
      const double above = hi[d] - query[d];
      sum += std::max(below * below, above * above);
    }
    if (!(sum < radius_sq)) return false;
  }
  return true;
}

double KdTree::box_min_dist_sq(std::size_t id,
                               const double* query) const noexcept {
  // Per axis the query's gap to the box, summed in dim order like the leaf
  // distances. A member p in [lo, hi] has fl(lo − q) <= fl(p − q) when the
  // query is below the box (and fl(q − hi) <= fl(q − p) above it), and
  // squaring and summing are monotone, so no member's d² is below this.
  const double* lo = box(id);
  const double* hi = lo + dim_;
  double sum = 0.0;
  for (std::size_t d = 0; d < dim_; ++d) {
    const double below = lo[d] - query[d];
    const double above = query[d] - hi[d];
    const double gap = below > 0.0 ? below : above > 0.0 ? above : 0.0;
    sum += gap * gap;
  }
  return sum;
}

double KdTree::dist_sq_to(std::size_t i,
                          std::span<const double> query) const noexcept {
  const double* p = point(i);
  double sum = 0.0;
  for (std::size_t d = 0; d < dim_; ++d) {
    const double diff = p[d] - query[d];
    sum += diff * diff;
  }
  return sum;
}

int KdTree::build(std::size_t begin, std::size_t end) {
  Node node;
  node.begin = begin;
  node.end = end;
  const std::size_t count = end - begin;
  if (count <= kLeafSize) {
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }

  // Split on the axis of largest spread at the median point.
  std::size_t best_axis = 0;
  double best_spread = -1.0;
  for (std::size_t d = 0; d < dim_; ++d) {
    double lo = std::numeric_limits<double>::infinity();
    double hi = -lo;
    for (std::size_t i = begin; i < end; ++i) {
      const double v = point(order_[i])[d];
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    if (hi - lo > best_spread) {
      best_spread = hi - lo;
      best_axis = d;
    }
  }
  if (best_spread == 0.0) {
    // All points identical along every axis: keep as (possibly large) leaf.
    nodes_.push_back(node);
    return static_cast<int>(nodes_.size() - 1);
  }

  const std::size_t mid = begin + count / 2;
  std::nth_element(order_.begin() + static_cast<std::ptrdiff_t>(begin),
                   order_.begin() + static_cast<std::ptrdiff_t>(mid),
                   order_.begin() + static_cast<std::ptrdiff_t>(end),
                   [this, best_axis](std::size_t a, std::size_t b) {
                     return point(a)[best_axis] < point(b)[best_axis];
                   });
  node.axis = best_axis;
  node.split = point(order_[mid])[best_axis];

  const std::size_t self = nodes_.size();
  nodes_.push_back(node);
  const int left = build(begin, mid);
  const int right = build(mid, end);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return static_cast<int>(self);
}

Neighbor KdTree::nearest(std::span<const double> query) const {
  support::expect(query.size() == dim_, "KdTree::nearest: wrong query dim");
  support::expect(count_ > 0, "KdTree::nearest: empty tree");
  double best_d2 = std::numeric_limits<double>::infinity();
  const std::size_t slot = nearest_slot(query.data(), best_d2);
  // Nothing beats +inf only when every distance is inf or NaN; the first
  // slot stands in then.
  return {order_[slot < count_ ? slot : 0], best_d2};
}

Neighbor KdTree::nearest(std::span<const double> query, double bound_d2) const {
  support::expect(query.size() == dim_, "KdTree::nearest: wrong query dim");
  support::expect(count_ > 0, "KdTree::nearest: empty tree");
  // Starting from the next double above the bound makes the strict-< leaf
  // update and far-child test accept d² == bound until the first hit, and
  // strict from then on. Pruning removes only subtrees whose every point
  // lies beyond the bound, and the near/far visit order does not depend on
  // the bound, so the first minimum in visit order — the unbounded
  // search's answer — is still the one kept.
  double best_d2 =
      std::nextafter(bound_d2, std::numeric_limits<double>::infinity());
  const std::size_t slot = nearest_slot(query.data(), best_d2);
  if (slot == count_) return nearest(query);  // no point within the bound
  return {order_[slot], best_d2};
}

std::size_t KdTree::nearest_slot(const double* query, double& best_d2) const {
  // The 2-D case is the ICP correspondence loop (per-type planar trees);
  // it and 3-D get a compile-time-dim instantiation, other dims the
  // generic loop. Same algorithm either way.
  if (dim_ == 3) return nearest_fixed<3>(query, best_d2);
  if (dim_ == 2) return nearest_fixed<2>(query, best_d2);
  return nearest_generic(query, best_d2);
}

// Allocation-free single-neighbor search on a fixed-size stack. Traversal
// order and the strict-< update are identical to k_nearest(query, 1), so the
// result — including which index wins an exact distance tie — is the same.
template <std::size_t kDim>
std::size_t KdTree::nearest_fixed(const double* query, double& best_d2) const {
  std::size_t best_slot = count_;
  std::array<int, kMaxTraversalStack> stack;
  std::size_t top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const int node_id = stack[--top];
    if (node_id < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      // Column-major distance evaluation: each chunk computes its points'
      // squared distances as independent lanes (vectorizable — per-point
      // arithmetic is unchanged, d0² + d1² + ... in dim order), then a
      // scalar strict-< scan in slot order picks the winner, so exact ties
      // still resolve to the first-visited point. Leaves normally hold at
      // most kLeafSize points; the degenerate all-identical-spread leaf can
      // be bigger, hence the chunk loop.
      for (std::size_t chunk = node.begin; chunk < node.end;
           chunk += kLeafSize) {
        const std::size_t len = std::min(kLeafSize, node.end - chunk);
        std::array<double, kLeafSize> d2s;
        {
          const double qd = query[0];
          const double* col = leaf_column(0) + chunk;
          for (std::size_t i = 0; i < len; ++i) {
            const double diff = col[i] - qd;
            d2s[i] = diff * diff;
          }
        }
        for (std::size_t d = 1; d < kDim; ++d) {
          const double qd = query[d];
          const double* col = leaf_column(d) + chunk;
          for (std::size_t i = 0; i < len; ++i) {
            const double diff = col[i] - qd;
            d2s[i] += diff * diff;
          }
        }
        for (std::size_t i = 0; i < len; ++i) {
          if (d2s[i] < best_d2) {
            best_d2 = d2s[i];
            best_slot = chunk + i;
          }
        }
      }
      continue;
    }
    const double delta = query[node.axis] - node.split;
    const int near_child = delta < 0.0 ? node.left : node.right;
    const int far_child = delta < 0.0 ? node.right : node.left;
    if (delta * delta < best_d2) stack[top++] = far_child;
    stack[top++] = near_child;
  }
  return best_slot;
}

std::size_t KdTree::nearest_generic(const double* query, double& best_d2) const {
  std::size_t best_slot = count_;
  std::array<int, kMaxTraversalStack> stack;
  std::size_t top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const int node_id = stack[--top];
    if (node_id < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const double d2 = dist_sq_to(order_[i], {query, dim_});
        if (d2 < best_d2) {
          best_d2 = d2;
          best_slot = i;
        }
      }
      continue;
    }
    const double delta = query[node.axis] - node.split;
    const int near_child = delta < 0.0 ? node.left : node.right;
    const int far_child = delta < 0.0 ? node.right : node.left;
    if (delta * delta < best_d2) stack[top++] = far_child;
    stack[top++] = near_child;
  }
  return best_slot;
}

std::vector<Neighbor> KdTree::k_nearest(std::span<const double> query,
                                        std::size_t k,
                                        std::size_t skip_index) const {
  std::vector<Neighbor> result(std::min(k, count_));
  result.resize(k_nearest(query, result, skip_index));
  return result;
}

std::size_t KdTree::k_nearest(std::span<const double> query,
                              std::span<Neighbor> out,
                              std::size_t skip_index) const {
  support::expect(query.size() == dim_, "KdTree::k_nearest: wrong query dim");
  const std::size_t k = out.size();
  if (count_ == 0 || k == 0) return 0;

  // Max-heap of the current best k, with one spare entry: a closer point is
  // pushed first and the worst popped after, so equal distances settle
  // exactly as they would in a std::priority_queue of k + 1.
  std::array<Neighbor, kInlineHeap + 1> inline_heap;
  std::vector<Neighbor> spill_heap;
  std::span<Neighbor> heap;
  if (k <= kInlineHeap) {
    heap = std::span<Neighbor>(inline_heap.data(), k + 1);
  } else {
    spill_heap.resize(k + 1);
    heap = std::span<Neighbor>(spill_heap);
  }
  const auto farther = [](const Neighbor& a, const Neighbor& b) noexcept {
    return a.dist_sq < b.dist_sq;
  };
  std::size_t size = 0;
  const auto heap_end = [&]() noexcept {
    return heap.begin() + static_cast<std::ptrdiff_t>(size);
  };
  const auto worst = [&]() noexcept {
    return size < k ? std::numeric_limits<double>::infinity()
                    : heap[0].dist_sq;
  };

  // Depth-first traversal; visit the near child first and prune the far
  // child against the current worst candidate.
  std::array<int, kMaxTraversalStack> stack;
  std::size_t top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const int node_id = stack[--top];
    if (node_id < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::size_t idx = order_[i];
        if (idx == skip_index) continue;
        const double d2 = dist_sq_to(idx, query);
        if (d2 < worst()) {
          heap[size++] = {idx, d2};
          std::push_heap(heap.begin(), heap_end(), farther);
          if (size > k) {
            std::pop_heap(heap.begin(), heap_end(), farther);
            --size;
          }
        }
      }
      continue;
    }
    const double delta = query[node.axis] - node.split;
    const int near_child = delta < 0.0 ? node.left : node.right;
    const int far_child = delta < 0.0 ? node.right : node.left;
    if (delta * delta < worst()) stack[top++] = far_child;
    stack[top++] = near_child;
  }

  const std::size_t found = size;
  while (size > 0) {
    out[size - 1] = heap[0];
    std::pop_heap(heap.begin(), heap_end(), farther);
    --size;
  }
  return found;
}

void KdTree::reset_live(LiveSet& live) const {
  live.nodes.resize(nodes_.size());
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    live.nodes[id] = static_cast<std::uint32_t>(nodes_[id].end - nodes_[id].begin);
  }
  live.slots.assign(count_, 1);
}

void KdTree::remove_live(std::size_t index, LiveSet& live) const {
  support::expect(index < count_, "KdTree::remove_live: index out of range");
  const std::size_t slot = slot_of_[index];
  support::expect(live.slots[slot] != 0, "KdTree::remove_live: not live");
  live.slots[slot] = 0;
  auto id = static_cast<std::size_t>(root_);
  for (;;) {
    --live.nodes[id];
    const Node& node = nodes_[id];
    if (node.is_leaf()) return;
    const auto left = static_cast<std::size_t>(node.left);
    id = slot < nodes_[left].end ? left : static_cast<std::size_t>(node.right);
  }
}

Neighbor KdTree::nearest_live(std::span<const double> query,
                              const LiveSet& live) const {
  support::expect(query.size() == dim_, "KdTree::nearest_live: wrong query dim");
  support::expect(live.nodes.size() == nodes_.size() &&
                      live.slots.size() == count_,
                  "KdTree::nearest_live: live set of another tree");
  support::expect(count_ > 0 && live.nodes[static_cast<std::size_t>(root_)] > 0,
                  "KdTree::nearest_live: no live point");
  Neighbor best{count_, std::numeric_limits<double>::infinity()};
  std::array<int, kMaxTraversalStack> stack;
  std::size_t top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const auto id = static_cast<std::size_t>(stack[--top]);
    const Node& node = nodes_[id];
    if (box_min_dist_sq(id, query.data()) > best.dist_sq) continue;
    if (node.is_leaf()) {
      for (std::size_t slot = node.begin; slot < node.end; ++slot) {
        if (live.slots[slot] == 0) continue;
        const double* p = leaf_point(slot);
        double d2 = 0.0;
        for (std::size_t d = 0; d < dim_; ++d) {
          const double diff = query[d] - p[d];
          d2 += diff * diff;
        }
        if (!(d2 <= best.dist_sq)) continue;
        const std::size_t index = order_[slot];
        if (d2 < best.dist_sq || index < best.index) best = {index, d2};
      }
      continue;
    }
    const double delta = query[node.axis] - node.split;
    const int near_child = delta < 0.0 ? node.left : node.right;
    const int far_child = delta < 0.0 ? node.right : node.left;
    // Every far-side point is at least |delta| from the query along the
    // split axis, and rounding is monotone, so its d² is at least delta²:
    // at delta² == best it can still tie and win on index.
    if (live.nodes[static_cast<std::size_t>(far_child)] > 0 &&
        delta * delta <= best.dist_sq) {
      stack[top++] = far_child;
    }
    if (live.nodes[static_cast<std::size_t>(near_child)] > 0) {
      stack[top++] = near_child;
    }
  }
  // Nothing is pruned while best is +inf, so with a live point and finite
  // inputs the first live leaf always sets best.
  support::expect(best.index < count_, "KdTree::nearest_live: internal error");
  return best;
}

std::size_t KdTree::count_within(std::span<const double> query, double radius,
                                 std::size_t skip_index) const {
  support::expect(query.size() == dim_, "KdTree::count_within: wrong query dim");
  if (count_ == 0 || radius <= 0.0) return 0;
  const double radius_sq = radius * radius;
  std::size_t count = 0;

  std::vector<int> stack;
  stack.push_back(root_);
  while (!stack.empty()) {
    const int node_id = stack.back();
    stack.pop_back();
    if (node_id < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::size_t idx = order_[i];
        if (idx == skip_index) continue;
        if (dist_sq_to(idx, query) < radius_sq) ++count;
      }
      continue;
    }
    const double delta = query[node.axis] - node.split;
    const int near_child = delta < 0.0 ? node.left : node.right;
    const int far_child = delta < 0.0 ? node.right : node.left;
    if (delta * delta < radius_sq) stack.push_back(far_child);
    stack.push_back(near_child);
  }
  return count;
}

double KdTree::kth_block_dist_sq(std::span<const double> query, std::size_t k,
                                 std::span<const DimBlock> blocks,
                                 std::size_t skip_index) const {
  support::expect(query.size() == dim_,
                  "KdTree::kth_block_dist_sq: wrong query dim");
  support::expect(k >= 1, "KdTree::kth_block_dist_sq: k must be positive");
  const std::size_t available = count_ - (skip_index < count_ ? 1 : 0);
  support::expect(available >= k,
                  "KdTree::kth_block_dist_sq: fewer than k points");

  // Bounded max-heap of the best-k squared distances; the heap top is the
  // current k-th candidate. The returned value is an order statistic of the
  // full distance multiset, so it is independent of traversal order:
  // a point skipped because its (partial) distance reached the current worst
  // could at best tie the k-th value, and a subtree pruned because the
  // split-axis delta² reached the worst only holds such points. Nothing is
  // skipped or pruned before the heap holds k entries, so distances that
  // overflow to +inf still fill it.
  std::array<double, 64> inline_heap;
  std::vector<double> spill_heap;
  std::span<double> heap;
  if (k <= inline_heap.size()) {
    heap = std::span<double>(inline_heap.data(), k);
  } else {
    spill_heap.resize(k);
    heap = std::span<double>(spill_heap);
  }
  std::size_t heap_size = 0;

  std::array<int, kMaxTraversalStack> stack;
  std::size_t top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const int node_id = stack[--top];
    if (node_id < 0) continue;
    const Node& node = nodes_[static_cast<std::size_t>(node_id)];
    if (node.is_leaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        if (order_[i] == skip_index) continue;
        const double* p = leaf_point(i);
        const bool full = heap_size == k;
        double max_sq = 0.0;
        bool within = true;
        for (const DimBlock& block : blocks) {
          double sum = 0.0;
          for (std::size_t d = block.offset; d < block.offset + block.dim;
               ++d) {
            const double diff = p[d] - query[d];
            sum += diff * diff;
          }
          if (sum > max_sq) max_sq = sum;
          if (full && max_sq >= heap[0]) {
            within = false;
            break;
          }
        }
        if (!within) continue;
        if (full) {
          std::pop_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(heap_size));
          --heap_size;
        }
        heap[heap_size++] = max_sq;
        std::push_heap(heap.begin(), heap.begin() + static_cast<std::ptrdiff_t>(heap_size));
      }
      continue;
    }
    const double delta = query[node.axis] - node.split;
    const int near_child = delta < 0.0 ? node.left : node.right;
    const int far_child = delta < 0.0 ? node.right : node.left;
    if (heap_size < k || delta * delta < heap[0]) stack[top++] = far_child;
    stack[top++] = near_child;
  }
  support::expect(heap_size == k, "KdTree::kth_block_dist_sq: internal error");
  return heap[0];
}

std::size_t KdTree::count_within_blocks(std::span<const double> query,
                                        double radius,
                                        std::span<const DimBlock> blocks,
                                        std::size_t skip_index) const {
  std::size_t count = 0;
  const std::array<std::size_t, 1> skips = {skip_index};
  this->count_within_blocks(query, std::span<const double>(&radius, 1), blocks,
                            skips, std::span<std::size_t>(&count, 1));
  return count;
}

void KdTree::count_within_blocks(std::span<const double> queries,
                                 std::span<const double> radii,
                                 std::span<const DimBlock> blocks,
                                 std::span<const std::size_t> skips,
                                 std::span<std::size_t> counts) const {
  const std::size_t batch = radii.size();
  support::expect(batch >= 1 && batch <= kMaxCountBatch,
                  "KdTree::count_within_blocks: bad batch size");
  support::expect(queries.size() == batch * dim_,
                  "KdTree::count_within_blocks: wrong queries size");
  support::expect(skips.size() == batch && counts.size() == batch,
                  "KdTree::count_within_blocks: mismatched batch spans");

  std::array<double, kMaxCountBatch> radius_sq;
  std::uint32_t live = 0;
  for (std::size_t b = 0; b < batch; ++b) {
    counts[b] = 0;
    radius_sq[b] = radii[b] * radii[b];
    if (radii[b] > 0.0) live |= std::uint32_t{1} << b;
  }
  if (count_ == 0 || live == 0) return;

  // One descent serves the whole batch: each stack frame carries the set of
  // queries still interested in that subtree, and queries drop out per-node
  // via the same delta² >= radius² pruning the single-query path applies.
  struct Frame {
    int node;
    std::uint32_t mask;
  };
  std::array<Frame, kMaxTraversalStack> stack;
  std::size_t top = 0;
  stack[top++] = {root_, live};
  while (top > 0) {
    Frame frame = stack[--top];
    if (frame.node < 0) continue;
    const auto id = static_cast<std::size_t>(frame.node);
    const Node& node = nodes_[id];
    // Whole-subtree counts: a query whose radius covers the node's box
    // counts every member (less its own point when that is one) and leaves
    // this subtree's descent.
    for (std::uint32_t rest = frame.mask; rest != 0; rest &= rest - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(rest));
      if (!box_within(id, queries.data() + b * dim_, blocks, radius_sq[b])) {
        continue;
      }
      const std::size_t skip = skips[b];
      const bool skip_inside = skip < count_ && slot_of_[skip] >= node.begin &&
                               slot_of_[skip] < node.end;
      counts[b] += node.end - node.begin - (skip_inside ? 1 : 0);
      frame.mask &= ~(std::uint32_t{1} << b);
    }
    if (frame.mask == 0) continue;
    if (node.is_leaf()) {
      for (std::size_t i = node.begin; i < node.end; ++i) {
        const std::size_t idx = order_[i];
        const double* p = leaf_point(i);
        for (std::uint32_t rest = frame.mask; rest != 0; rest &= rest - 1) {
          const auto b = static_cast<std::size_t>(
              std::countr_zero(rest));
          if (idx == skips[b]) continue;
          if (block_max_within(p, queries.data() + b * dim_, blocks,
                               radius_sq[b])) {
            ++counts[b];
          }
        }
      }
      continue;
    }
    std::uint32_t left_mask = 0;
    std::uint32_t right_mask = 0;
    for (std::uint32_t rest = frame.mask; rest != 0; rest &= rest - 1) {
      const auto b = static_cast<std::size_t>(std::countr_zero(rest));
      const std::uint32_t bit = std::uint32_t{1} << b;
      const double delta = queries[b * dim_ + node.axis] - node.split;
      const bool visit_far = delta * delta < radius_sq[b];
      if (delta < 0.0) {
        left_mask |= bit;
        if (visit_far) right_mask |= bit;
      } else {
        right_mask |= bit;
        if (visit_far) left_mask |= bit;
      }
    }
    if (right_mask != 0) stack[top++] = {node.right, right_mask};
    if (left_mask != 0) stack[top++] = {node.left, left_mask};
  }
}

BruteForceSearcher::BruteForceSearcher(std::span<const double> points,
                                       std::size_t dim)
    : points_(points), dim_(dim), count_(dim == 0 ? 0 : points.size() / dim) {
  support::expect(dim > 0, "BruteForceSearcher: dimension must be positive");
  support::expect(points.size() % dim == 0,
                  "BruteForceSearcher: point array size not a multiple of dim");
}

Neighbor BruteForceSearcher::nearest(std::span<const double> query) const {
  auto result = k_nearest(query, 1);
  support::expect(!result.empty(), "BruteForceSearcher::nearest: empty set");
  return result.front();
}

std::vector<Neighbor> BruteForceSearcher::k_nearest(
    std::span<const double> query, std::size_t k, std::size_t skip_index) const {
  support::expect(query.size() == dim_,
                  "BruteForceSearcher::k_nearest: wrong query dim");
  std::vector<Neighbor> all;
  all.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    if (i == skip_index) continue;
    const double* p = points_.data() + i * dim_;
    double d2 = 0.0;
    for (std::size_t d = 0; d < dim_; ++d) {
      const double diff = p[d] - query[d];
      d2 += diff * diff;
    }
    all.push_back({i, d2});
  }
  const std::size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), [](const Neighbor& a, const Neighbor& b) {
                      return a.dist_sq < b.dist_sq;
                    });
  all.resize(take);
  return all;
}

std::size_t BruteForceSearcher::count_within(std::span<const double> query,
                                             double radius,
                                             std::size_t skip_index) const {
  support::expect(query.size() == dim_,
                  "BruteForceSearcher::count_within: wrong query dim");
  if (radius <= 0.0) return 0;
  const double radius_sq = radius * radius;
  std::size_t count = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    if (i == skip_index) continue;
    const double* p = points_.data() + i * dim_;
    double d2 = 0.0;
    for (std::size_t d = 0; d < dim_; ++d) {
      const double diff = p[d] - query[d];
      d2 += diff * diff;
    }
    if (d2 < radius_sq) ++count;
  }
  return count;
}

double BruteForceSearcher::kth_block_dist_sq(std::span<const double> query,
                                             std::size_t k,
                                             std::span<const DimBlock> blocks,
                                             std::size_t skip_index) const {
  support::expect(query.size() == dim_,
                  "BruteForceSearcher::kth_block_dist_sq: wrong query dim");
  support::expect(k >= 1,
                  "BruteForceSearcher::kth_block_dist_sq: k must be positive");
  std::vector<double> dists;
  dists.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    if (i == skip_index) continue;
    const double* p = points_.data() + i * dim_;
    double max_sq = 0.0;
    for (const DimBlock& block : blocks) {
      double sum = 0.0;
      for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
        const double diff = p[d] - query[d];
        sum += diff * diff;
      }
      max_sq = std::max(max_sq, sum);
    }
    dists.push_back(max_sq);
  }
  support::expect(dists.size() >= k,
                  "BruteForceSearcher::kth_block_dist_sq: fewer than k points");
  std::nth_element(dists.begin(),
                   dists.begin() + static_cast<std::ptrdiff_t>(k - 1),
                   dists.end());
  return dists[k - 1];
}

std::size_t BruteForceSearcher::count_within_blocks(
    std::span<const double> query, double radius,
    std::span<const DimBlock> blocks, std::size_t skip_index) const {
  support::expect(query.size() == dim_,
                  "BruteForceSearcher::count_within_blocks: wrong query dim");
  if (radius <= 0.0) return 0;
  const double radius_sq = radius * radius;
  std::size_t count = 0;
  for (std::size_t i = 0; i < count_; ++i) {
    if (i == skip_index) continue;
    const double* p = points_.data() + i * dim_;
    double max_sq = 0.0;
    for (const DimBlock& block : blocks) {
      double sum = 0.0;
      for (std::size_t d = block.offset; d < block.offset + block.dim; ++d) {
        const double diff = p[d] - query[d];
        sum += diff * diff;
      }
      max_sq = std::max(max_sq, sum);
    }
    if (max_sq < radius_sq) ++count;
  }
  return count;
}

}  // namespace sops::geom
