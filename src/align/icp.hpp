// Type-aware ICP alignment of particle configurations (paper §5.2).
//
// To align two same-type-histogram configurations, the paper lifts each 2-D
// particle to 3-D with its type as a z coordinate "scaled by a factor a
// magnitude larger than the diameter of the collective": nearest-neighbor
// correspondences then never cross types. We implement the lift's *effect*
// directly: each type's targets get their own 2-D k-d tree and a particle
// queries only its type's tree — for same-type pairs the lifted distance is
// exactly the planar distance (the type axis contributes 0), so this is the
// same correspondence without scanning wrong-type candidates. The rigid
// update is restricted to the plane (a rotation never moves the z
// coordinate, so the 2-D Procrustes fit of the xy components is the exact
// 3-D optimum).
//
// ICP converges to a local optimum; because particle shapes have near-
// symmetries (rings, discs), we restart from several initial rotations and
// keep the best final mean-squared error. This multi-restart is our
// implementation choice (the paper does not describe one); with 1 restart
// the algorithm reduces to plain ICP.
//
// Nearly all of ICP's time is the per-iteration nearest-neighbor query, so
// the reference side is indexed once (IcpTarget) and shared by every restart
// of every source aligned onto it. A query warm-starts from the particle's
// previous match (in the first iteration, from a grid guess), and a
// certified match is kept without any query while the moved particle stays
// inside the gap the certificate proved; the result is always the same
// target the plain per-type tree search returns (see IcpTarget). A descent
// whose correspondences all repeat stops at once: its next iteration could
// only repeat them.
//
// The permutation step (match_by_type) runs on the same per-type trees: a
// greedy same-type matching whose closest-unused-target queries search a
// type's tree with the used targets counted out (KdTree::nearest_live).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/kdtree.hpp"
#include "geom/rigid_transform.hpp"
#include "sim/particle_system.hpp"

namespace sops::support {
class Executor;
}  // namespace sops::support

namespace sops::align {

/// ICP options.
struct IcpOptions {
  std::size_t max_iterations = 50;      ///< at least 1
  double convergence_tolerance = 1e-9;  ///< stop when MSE improves less
  std::size_t rotation_restarts = 8;    ///< initial angles spread over [0, 2π)
};

/// Result of aligning a source configuration onto a target.
struct IcpResult {
  geom::RigidTransform2 transform;   ///< apply to source to match target
  double mean_squared_error = 0.0;   ///< final NN MSE in the plane
  /// Iterations of the winning restart. A descent whose correspondences
  /// all repeat the previous iteration's stops without running the next
  /// iteration, which could only confirm them; that confirming iteration
  /// is still counted (unless it would exceed max_iterations), so the count
  /// is the one the plain loop reports.
  std::size_t iterations = 0;
};

/// A warm-started correspondence with its gap certificate.
struct IcpMatch {
  std::uint32_t index = 0;  ///< the nearest same-type reference particle
  double distance = 0.0;    ///< d(q, index), when certified
  /// When non-negative, a lower bound on d(q, x) for every other same-type
  /// reference particle x; negative when the match came from a tree search
  /// and carries no certificate.
  double gap = -1.0;
};

/// A configuration's particles grouped by type, each type's coordinates
/// indexed by its own 2-D k-d tree over [0, max type present]. A type's
/// members are listed in ascending particle index, so a tree's point index
/// order is particle index order: tree(t) point k is particle members(t)[k].
class TypeTrees {
 public:
  /// Requires points.size() == types.size().
  TypeTrees(std::span<const geom::Vec2> points,
            std::span<const sim::TypeId> types);

  // The trees view this object's coordinate buffers.
  TypeTrees(const TypeTrees&) = delete;
  TypeTrees& operator=(const TypeTrees&) = delete;

  [[nodiscard]] std::size_t type_count() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] const geom::KdTree& tree(std::size_t type) const {
    return trees_[type];
  }
  [[nodiscard]] std::span<const std::uint32_t> members(std::size_t type) const {
    return members_[type];
  }

 private:
  std::vector<std::vector<double>> coords_;          // per type: flat (x, y)
  std::vector<std::vector<std::uint32_t>> members_;  // per type: ascending
  std::vector<geom::KdTree> trees_;                  // per type, over coords_
};

/// The reference configuration of an alignment, indexed for the
/// correspondence queries of every ICP restart run against it: one 2-D k-d
/// tree per particle type (TypeTrees), and for each reference particle its
/// kNeighbors nearest same-type neighbors plus the distance R to the last
/// of them (72 bytes per particle). Each type with warm starts also gets a
/// grid over its bounding box, about one cell per member, naming the member
/// nearest each cell's centre: match() starts a query without a previous
/// match (an ICP descent's first iteration) from its cell's member.
///
/// match_from() warm-starts a query q from the particle's previous match
/// p. The best of p and its neighbors, c, is accepted without a tree search
/// when its distance is strictly below the runner-up candidate's and, by a
/// relative margin ε = 1e-6, below R − d(q, p): by the triangle inequality,
/// every other same-type point x has d(q, x) ≥ d(p, x) − d(q, p) ≥
/// R − d(q, p). Candidate distances are computed with the tree's own leaf
/// arithmetic, so the strict runner-up test is exact; the margin swamps the
/// round-off of the shell bound. Then c is the unique minimum, so it is
/// exactly what the tree search returns, and the match carries d = d(q, c)
/// and the gap L = min(runner-up distance, shell bound). Otherwise the tree
/// search runs, bounded by d(q, c) (KdTree::nearest with a bound, which
/// returns the unbounded answer, tie-break included), and the match is
/// uncertified. A type that fits in one tree leaf (at most KdTree::kLeafSize
/// members, so in particular any type without kNeighbors other members)
/// keeps no warm start: its queries are the plain search.
///
/// A certified match stays the answer for every q' within
/// sticky_radius() = (L − (1+ε)·d)/(2+ε) of q: d(q', c) ≤ d + δ and
/// d(q', x) ≥ L − δ, so c still wins by the factor 1 + ε, far above the
/// round-off of every distance involved. An ICP descent keeps such a match
/// with one distance test instead of a query.
///
/// The per-type trees also serve the frame's permutation step
/// (match_by_type with a target), so one index per frame covers both.
class IcpTarget {
 public:
  /// Warm-start candidates per reference particle, besides itself.
  static constexpr std::size_t kNeighbors = 16;

  /// Indexes a non-empty configuration with finite coordinates. The
  /// warm-start neighbor lists and the grid cells are one batch of
  /// independent queries, each writing its own slot, run on `executor`
  /// (null: inline on the calling thread) in tasks large enough to pay for
  /// a dispatch, so a small reference is indexed inline. The index is the
  /// same, bit for bit, at any executor width.
  IcpTarget(std::span<const geom::Vec2> points,
            std::span<const sim::TypeId> types,
            support::Executor* executor = nullptr);

  // The trees view this object's coordinate buffers; a copy's trees would
  // view the original's.
  IcpTarget(const IcpTarget&) = delete;
  IcpTarget& operator=(const IcpTarget&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] std::span<const geom::Vec2> points() const noexcept {
    return points_;
  }
  /// Particle count per type id, over [0, max type present].
  [[nodiscard]] std::span<const std::size_t> type_counts() const noexcept {
    return type_counts_;
  }
  /// The per-type trees the queries search.
  [[nodiscard]] const TypeTrees& type_trees() const noexcept { return trees_; }

  /// Index of the reference particle of type `type` nearest to `q`; exact
  /// distance ties go to the first in the type tree's visit order.
  [[nodiscard]] std::uint32_t nearest(geom::Vec2 q, sim::TypeId type) const;

  /// nearest(q, type of `previous`), warm-started from the reference
  /// particle `previous` (see the class comment). Always the same index.
  [[nodiscard]] std::uint32_t nearest_from(geom::Vec2 q,
                                           std::uint32_t previous) const;

  /// nearest_from(q, previous) with its gap certificate, when the warm
  /// start settles it.
  [[nodiscard]] IcpMatch match_from(geom::Vec2 q, std::uint32_t previous) const;

  /// nearest(q, type) with its gap certificate when the warm start settles
  /// it: match_from() started from the member that q's grid cell names. A
  /// type without warm starts answers with the plain, uncertified search.
  [[nodiscard]] IcpMatch match(geom::Vec2 q, sim::TypeId type) const;

  /// Radius about a certified match's query within which its index stays
  /// nearest(·, type), exactly; negative when there is none (uncertified,
  /// no gap, or too small to test without underflow).
  [[nodiscard]] static double sticky_radius(const IcpMatch& match) noexcept;

 private:
  struct WarmStart {
    std::uint32_t neighbors[kNeighbors];
    double radius;  // R, or -1 when the particle keeps no warm start
  };
  // Cell (ix, iy), of side `cell` from corner `origin`, names the member
  // nearest its centre at cells[iy * nx + ix].
  struct Grid {
    geom::Vec2 origin{};
    double cell = 1.0;
    std::size_t nx = 0;
    std::size_t ny = 0;
    std::vector<std::uint32_t> cells;
  };

  std::vector<geom::Vec2> points_;
  std::vector<sim::TypeId> types_;
  TypeTrees trees_;
  std::vector<std::size_t> type_counts_;
  std::vector<WarmStart> warm_;  // per reference particle
  std::vector<Grid> grids_;      // per type; no cells without warm starts
};

/// Correspondence-free alignment: finds g ∈ ISO⁺(2) minimizing the NN
/// mean-squared error of g(source) against target, matching only particles
/// of equal type. Requires a non-empty source with finite coordinates and
/// the target's size and type histogram, and options with at least one
/// iteration and one restart.
[[nodiscard]] IcpResult align_icp(std::span<const geom::Vec2> source,
                                  std::span<const sim::TypeId> source_types,
                                  const IcpTarget& target,
                                  const IcpOptions& options = {});

/// Same, indexing `target` for this one call.
[[nodiscard]] IcpResult align_icp(std::span<const geom::Vec2> source,
                                  std::span<const sim::TypeId> source_types,
                                  std::span<const geom::Vec2> target,
                                  std::span<const sim::TypeId> target_types,
                                  const IcpOptions& options = {});

/// One restart of align_icp: the descent from initial angle
/// 2π·restart/rotation_restarts (about the source centroid). Same
/// preconditions, plus restart < rotation_restarts. align_icp's result is
/// best_restart over restarts 0, 1, … in order, so callers may run the
/// restarts on any runners and select afterwards.
[[nodiscard]] IcpResult icp_restart(std::span<const geom::Vec2> source,
                                    std::span<const sim::TypeId> source_types,
                                    const IcpTarget& target, std::size_t restart,
                                    const IcpOptions& options = {});

/// The restart with the least mean-squared error; the earliest wins a tie
/// (strict <). An empty span gives the identity with an infinite error.
[[nodiscard]] IcpResult best_restart(std::span<const IcpResult> restarts) noexcept;

/// One-to-one same-type correspondence: returns a permutation π with
/// π[i] = index of the target particle matched to source particle i.
/// Greedy by ascending pair distance within each type: the same-type pairs
/// are committed in ascending (geom::dist_sq(source[s], target[t]), s, t)
/// order, skipping any pair whose source or target is already matched.
/// Types must have equal counts on both sides and every coordinate must be
/// finite; a type whose remaining squared distances all overflow to +inf is
/// matched by index order.
///
/// Each source keeps one heap entry, its closest unused same-type target,
/// found by KdTree::nearest_live on the type's tree with used targets
/// removed. An entry whose target was used since it was pushed is
/// re-queried when it surfaces; distances to a source never shrink as
/// targets are used, so the heap still commits pairs in the sorted order,
/// ties included. Scratch is O(n) per call (the heap and one live set,
/// sized by the largest type).
[[nodiscard]] std::vector<std::size_t> match_by_type(
    std::span<const geom::Vec2> source, std::span<const sim::TypeId> source_types,
    std::span<const geom::Vec2> target, std::span<const sim::TypeId> target_types);

/// Same, onto target.points() with the target's own per-type trees, so a
/// frame's rows are matched without indexing the reference again. Requires
/// source.size() == target.size() and the target's type histogram.
[[nodiscard]] std::vector<std::size_t> match_by_type(
    std::span<const geom::Vec2> source, std::span<const sim::TypeId> source_types,
    const IcpTarget& target);

}  // namespace sops::align
