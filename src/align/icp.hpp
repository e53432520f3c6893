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
// of every source aligned onto it. From the second iteration on, a query
// warm-starts from the particle's previous match; the result is always the
// same target the plain per-type tree search returns (see IcpTarget).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/kdtree.hpp"
#include "geom/rigid_transform.hpp"
#include "sim/particle_system.hpp"

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
  std::size_t iterations = 0;        ///< iterations of the winning restart
};

/// The reference configuration of an alignment, indexed for the
/// correspondence queries of every ICP restart run against it: one 2-D k-d
/// tree per particle type, and for each reference particle its
/// kNeighbors nearest same-type neighbors plus the distance R to the last
/// of them.
///
/// nearest_from() warm-starts a query q from the particle's previous match
/// p. The best of p and its neighbors, c, is accepted without a tree search
/// when c beats, by a 10% distance margin, both the runner-up candidate and
/// R − d(q, p): by the triangle inequality, every other same-type point x
/// has d(q, x) ≥ d(p, x) − d(q, p) ≥ R − d(q, p). Then c is the unique
/// minimum, so it is exactly what the tree search returns; the margin
/// swamps the round-off in the distances. Otherwise the tree search runs,
/// bounded by d(q, c) (KdTree::nearest with a bound, which returns the
/// unbounded answer, tie-break included). A type that fits in one tree leaf
/// (at most KdTree::kLeafSize members, so in particular any type without 8
/// other members) keeps no warm start: its queries are the plain search.
class IcpTarget {
 public:
  /// Warm-start candidates per reference particle, besides itself.
  static constexpr std::size_t kNeighbors = 8;

  /// Indexes a non-empty configuration with finite coordinates.
  IcpTarget(std::span<const geom::Vec2> points,
            std::span<const sim::TypeId> types);

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

  /// Index of the reference particle of type `type` nearest to `q`; exact
  /// distance ties go to the first in the type tree's visit order.
  [[nodiscard]] std::uint32_t nearest(geom::Vec2 q, sim::TypeId type) const;

  /// nearest(q, type of `previous`), warm-started from the reference
  /// particle `previous` (see the class comment). Always the same index.
  [[nodiscard]] std::uint32_t nearest_from(geom::Vec2 q,
                                           std::uint32_t previous) const;

 private:
  struct WarmStart {
    std::uint32_t neighbors[kNeighbors];
    double radius;  // R, or -1 when the particle keeps no warm start
  };

  std::vector<geom::Vec2> points_;
  std::vector<sim::TypeId> types_;
  std::vector<std::size_t> type_counts_;
  std::vector<std::vector<double>> coords_;        // per type: flat (x, y)
  std::vector<std::vector<std::uint32_t>> index_;  // per type: global index
  std::vector<geom::KdTree> trees_;                // per type, over coords_
  std::vector<WarmStart> warm_;                    // per reference particle
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
/// Greedy by ascending pair distance within each type (each source and
/// target particle used once). Types must have equal counts on both sides.
[[nodiscard]] std::vector<std::size_t> match_by_type(
    std::span<const geom::Vec2> source, std::span<const sim::TypeId> source_types,
    std::span<const geom::Vec2> target, std::span<const sim::TypeId> target_types);

}  // namespace sops::align
