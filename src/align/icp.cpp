#include "align/icp.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "geom/kdtree.hpp"
#include "support/error.hpp"

namespace sops::align {
namespace {

// Relative certificate margin ε against the shell bound R − d(q, p) and in
// the sticky radius: far above the few-ulp round-off of the computed
// distances. kRoundOff covers the cancellation in R − d(q, p) when the two
// are close, and kMinRadius (below which a particle keeps no warm start and
// a match no sticky radius) keeps the bounds far above the subnormal range,
// where squared distances lose their relative precision.
constexpr double kMargin = 1e-6;
constexpr double kRoundOff = 1e-12;
constexpr double kMinRadius = 1e-100;

// Every candidate a warm start tests is a leaf point of its type's tree.
static_assert(IcpTarget::kNeighbors <= geom::KdTree::kLeafSize);

bool all_finite(std::span<const geom::Vec2> points) noexcept {
  return std::all_of(points.begin(), points.end(), [](geom::Vec2 p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  });
}

void check_type_histograms(std::span<const sim::TypeId> a,
                           std::span<const sim::TypeId> b) {
  sim::TypeId max_type = 0;
  for (const sim::TypeId t : a) max_type = std::max(max_type, t);
  for (const sim::TypeId t : b) max_type = std::max(max_type, t);
  const auto ha = sim::type_histogram(a, max_type + 1);
  const auto hb = sim::type_histogram(b, max_type + 1);
  support::expect(ha == hb, "align: type histograms differ");
}

// Every align_icp/icp_restart precondition, checked before any distance
// arithmetic can meet a NaN.
void check_icp_inputs(std::span<const geom::Vec2> source,
                      std::span<const sim::TypeId> source_types,
                      const IcpTarget& target, const IcpOptions& options) {
  support::expect(!source.empty() && source.size() == source_types.size(),
                  "align_icp: invalid inputs");
  support::expect(source.size() == target.size(), "align_icp: size mismatch");
  support::expect(options.max_iterations >= 1,
                  "align_icp: need at least one iteration");
  support::expect(options.rotation_restarts >= 1,
                  "align_icp: need at least one restart");
  support::expect(all_finite(source), "align_icp: non-finite source coordinate");
  const std::span<const std::size_t> expected = target.type_counts();
  std::vector<std::size_t> counts(expected.size(), 0);
  for (const sim::TypeId t : source_types) {
    support::expect(t < counts.size(), "align: type histograms differ");
    ++counts[t];
  }
  support::expect(std::equal(counts.begin(), counts.end(), expected.begin()),
                  "align: type histograms differ");
}

// One ICP descent from the given initial rotation (about the source
// centroid). Returns the final transform and MSE.
IcpResult icp_descent(std::span<const geom::Vec2> source,
                      std::span<const sim::TypeId> source_types,
                      const IcpTarget& target, double initial_angle,
                      const IcpOptions& options) {
  const geom::Vec2 source_centroid = geom::centroid(source);
  geom::RigidTransform2 current{
      initial_angle,
      source_centroid - geom::rotated(source_centroid, initial_angle)};

  IcpResult result;
  result.mean_squared_error = std::numeric_limits<double>::infinity();

  const std::span<const geom::Vec2> target_points = target.points();
  std::vector<std::uint32_t> match(source.size());
  std::vector<geom::Vec2> matched(source.size());
  // The moved position each match was certified at, and the squared
  // sticky radius about it (negative: query again next iteration).
  std::vector<geom::Vec2> anchor(source.size());
  std::vector<double> reach_sq(source.size(), -1.0);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;

    // NN correspondences within each point's own type (type never crosses).
    // A match is kept while the moved point stays within its sticky radius;
    // otherwise it is queried again, warm-started from the reference grid
    // in the first iteration and from the particle's last match after.
    bool changed = iter == 0;
    double mse = 0.0;
    for (std::size_t i = 0; i < source.size(); ++i) {
      const geom::Vec2 moved = current.apply(source[i]);
      if (!(geom::dist_sq(moved, anchor[i]) <= reach_sq[i])) {
        const IcpMatch found = iter == 0
                                   ? target.match(moved, source_types[i])
                                   : target.match_from(moved, match[i]);
        changed = changed || found.index != match[i];
        match[i] = found.index;
        anchor[i] = moved;
        const double reach = IcpTarget::sticky_radius(found);
        reach_sq[i] = reach >= 0.0 ? reach * reach : -1.0;
      }
      matched[i] = target_points[match[i]];
      mse += geom::dist_sq(moved, matched[i]);
    }
    mse /= static_cast<double>(source.size());

    if (mse >= result.mean_squared_error - options.convergence_tolerance) {
      result.mean_squared_error = std::min(mse, result.mean_squared_error);
      break;
    }
    result.mean_squared_error = mse;

    if (!changed) {
      // Same correspondences as the previous iteration, so the fit below
      // would return `current` again, bit for bit, and every later
      // iteration would repeat this one: the next stops on the convergence
      // test (the same comparison, made here), or none does before the
      // iteration cap.
      result.iterations =
          iter + 1 < options.max_iterations &&
                  mse >= mse - options.convergence_tolerance
              ? iter + 2
              : options.max_iterations;
      break;
    }

    // Best rigid motion of the *original* source onto the matched targets —
    // fitting from the original (not the moved) points avoids compounding
    // round-off across iterations.
    current = geom::fit_rigid(source, matched);
  }
  result.transform = current;
  return result;
}

double restart_angle(std::size_t restart, const IcpOptions& options) {
  return 2.0 * std::numbers::pi * static_cast<double>(restart) /
         static_cast<double>(options.rotation_restarts);
}

}  // namespace

// Correspondence search: one 2-D kd-tree per particle type.
//
// The paper's type-lifted 3-D metric (x, y, type · lift) exists to make NN
// correspondences type-preserving — the lift is chosen so a cross-type
// candidate can never beat a same-type one. Querying the matching type's
// 2-D tree computes the same correspondence directly (for same-type pairs
// the lifted distance *is* the planar distance: the type axis contributes
// exactly 0.0) and skips every wrong-type candidate.
IcpTarget::IcpTarget(std::span<const geom::Vec2> points,
                     std::span<const sim::TypeId> types)
    : points_(points.begin(), points.end()),
      types_(types.begin(), types.end()) {
  support::expect(!points.empty() && points.size() == types.size(),
                  "align_icp: invalid inputs");
  support::expect(all_finite(points), "align_icp: non-finite target coordinate");
  sim::TypeId max_type = 0;
  for (const sim::TypeId t : types) max_type = std::max(max_type, t);
  const std::size_t type_count = static_cast<std::size_t>(max_type) + 1;
  type_counts_ = sim::type_histogram(types, type_count);
  coords_.resize(type_count);
  index_.resize(type_count);
  for (std::size_t i = 0; i < points.size(); ++i) {
    coords_[types[i]].push_back(points[i].x);
    coords_[types[i]].push_back(points[i].y);
    index_[types[i]].push_back(static_cast<std::uint32_t>(i));
  }
  trees_.reserve(type_count);
  for (std::size_t type = 0; type < type_count; ++type) {
    trees_.emplace_back(coords_[type], 2);
  }

  // A type that fits in one tree leaf is answered by a single leaf scan,
  // which is cheaper than the candidate test; it keeps no warm start and no
  // grid. Otherwise the grid has about one cell per member: side
  // √(area / members), but no narrower than extent / members, so a thin
  // type cannot ask for a quadratic cell count (at most 3·members + 1 cells
  // either way). A type of coincident points, or one whose extent
  // overflows, gets one cell.
  warm_.assign(points.size(), WarmStart{{}, -1.0});
  grids_.resize(type_count);
  for (std::size_t type = 0; type < type_count; ++type) {
    const std::vector<std::uint32_t>& members = index_[type];
    if (members.size() <= geom::KdTree::kLeafSize) continue;
    for (std::size_t local = 0; local < members.size(); ++local) {
      const std::vector<geom::Neighbor> nearest = trees_[type].k_nearest(
          {coords_[type].data() + 2 * local, 2}, kNeighbors, local);
      WarmStart& warm = warm_[members[local]];
      for (std::size_t k = 0; k < kNeighbors; ++k) {
        warm.neighbors[k] = members[nearest[k].index];
      }
      const double radius = std::sqrt(nearest.back().dist_sq);
      if (radius >= kMinRadius) warm.radius = radius;
    }

    geom::Vec2 lo = points_[members.front()];
    geom::Vec2 hi = lo;
    for (const std::uint32_t i : members) {
      lo = {std::min(lo.x, points_[i].x), std::min(lo.y, points_[i].y)};
      hi = {std::max(hi.x, points_[i].x), std::max(hi.y, points_[i].y)};
    }
    const double count = static_cast<double>(members.size());
    const double width = hi.x - lo.x;
    const double height = hi.y - lo.y;
    const double cell = std::max(std::sqrt(width * height / count),
                                 std::max(width, height) / count);
    Grid& grid = grids_[type];
    grid.origin = lo;
    if (cell > 0.0 && std::isfinite(cell)) {
      grid.cell = cell;
      grid.nx = static_cast<std::size_t>(std::min(width / cell, count)) + 1;
      grid.ny = static_cast<std::size_t>(std::min(height / cell, count)) + 1;
    } else {
      grid.nx = grid.ny = 1;
    }
    grid.cells.resize(grid.nx * grid.ny);
    for (std::size_t iy = 0; iy < grid.ny; ++iy) {
      for (std::size_t ix = 0; ix < grid.nx; ++ix) {
        const geom::Vec2 centre{
            lo.x + (static_cast<double>(ix) + 0.5) * grid.cell,
            lo.y + (static_cast<double>(iy) + 0.5) * grid.cell};
        grid.cells[iy * grid.nx + ix] =
            nearest(centre, static_cast<sim::TypeId>(type));
      }
    }
  }
}

std::uint32_t IcpTarget::nearest(geom::Vec2 q, sim::TypeId type) const {
  const double query[2] = {q.x, q.y};
  const geom::Neighbor nn = trees_[type].nearest({query, 2});
  return index_[type][nn.index];
}

std::uint32_t IcpTarget::nearest_from(geom::Vec2 q,
                                      std::uint32_t previous) const {
  return match_from(q, previous).index;
}

IcpMatch IcpTarget::match_from(geom::Vec2 q, std::uint32_t previous) const {
  const WarmStart& warm = warm_[previous];
  if (warm.radius < 0.0) return {nearest(q, types_[previous])};
  // geom::dist_sq rounds exactly like the tree's leaf scan, so these are
  // the distances the tree search compares.
  const double previous_d2 = geom::dist_sq(q, points_[previous]);
  std::uint32_t best = previous;
  double best_d2 = previous_d2;
  double runner_up_d2 = std::numeric_limits<double>::infinity();
  for (const std::uint32_t candidate : warm.neighbors) {
    const double d2 = geom::dist_sq(q, points_[candidate]);
    if (d2 < best_d2) {
      runner_up_d2 = best_d2;
      best_d2 = d2;
      best = candidate;
    } else if (d2 < runner_up_d2) {
      runner_up_d2 = d2;
    }
  }
  if (best_d2 < runner_up_d2) {
    const double best_d = std::sqrt(best_d2);
    const double previous_d = std::sqrt(previous_d2);
    const double shell =
        warm.radius - previous_d - kRoundOff * (warm.radius + previous_d);
    if ((1.0 + kMargin) * best_d < shell) {
      return {best, best_d, std::min(std::sqrt(runner_up_d2), shell)};
    }
  }
  const sim::TypeId type = types_[previous];
  const double query[2] = {q.x, q.y};
  const geom::Neighbor nn = trees_[type].nearest({query, 2}, best_d2);
  return {index_[type][nn.index]};
}

IcpMatch IcpTarget::match(geom::Vec2 q, sim::TypeId type) const {
  const Grid& grid = grids_[type];
  if (grid.cells.empty()) return {nearest(q, type)};
  // Cell coordinates clamped to the grid; NaN (never from finite inputs)
  // would clamp to 0.
  const auto clamped = [](double coordinate, std::size_t cells) {
    return coordinate > 0.0
               ? static_cast<std::size_t>(
                     std::min(coordinate, static_cast<double>(cells - 1)))
               : std::size_t{0};
  };
  const std::size_t ix = clamped((q.x - grid.origin.x) / grid.cell, grid.nx);
  const std::size_t iy = clamped((q.y - grid.origin.y) / grid.cell, grid.ny);
  return match_from(q, grid.cells[iy * grid.nx + ix]);
}

double IcpTarget::sticky_radius(const IcpMatch& match) noexcept {
  const double reach =
      (match.gap - (1.0 + kMargin) * match.distance) / (2.0 + kMargin);
  return reach >= kMinRadius ? reach : -1.0;
}

IcpResult align_icp(std::span<const geom::Vec2> source,
                    std::span<const sim::TypeId> source_types,
                    const IcpTarget& target, const IcpOptions& options) {
  check_icp_inputs(source, source_types, target, options);
  std::vector<IcpResult> restarts;
  restarts.reserve(options.rotation_restarts);
  for (std::size_t r = 0; r < options.rotation_restarts; ++r) {
    restarts.push_back(icp_descent(source, source_types, target,
                                   restart_angle(r, options), options));
  }
  return best_restart(restarts);
}

IcpResult align_icp(std::span<const geom::Vec2> source,
                    std::span<const sim::TypeId> source_types,
                    std::span<const geom::Vec2> target,
                    std::span<const sim::TypeId> target_types,
                    const IcpOptions& options) {
  return align_icp(source, source_types, IcpTarget(target, target_types),
                   options);
}

IcpResult icp_restart(std::span<const geom::Vec2> source,
                      std::span<const sim::TypeId> source_types,
                      const IcpTarget& target, std::size_t restart,
                      const IcpOptions& options) {
  check_icp_inputs(source, source_types, target, options);
  support::expect(restart < options.rotation_restarts,
                  "icp_restart: restart out of range");
  return icp_descent(source, source_types, target,
                     restart_angle(restart, options), options);
}

IcpResult best_restart(std::span<const IcpResult> restarts) noexcept {
  IcpResult best;
  best.mean_squared_error = std::numeric_limits<double>::infinity();
  for (const IcpResult& candidate : restarts) {
    if (candidate.mean_squared_error < best.mean_squared_error) {
      best = candidate;
    }
  }
  return best;
}

std::vector<std::size_t> match_by_type(std::span<const geom::Vec2> source,
                                       std::span<const sim::TypeId> source_types,
                                       std::span<const geom::Vec2> target,
                                       std::span<const sim::TypeId> target_types) {
  support::expect(source.size() == target.size() &&
                      source.size() == source_types.size() &&
                      target.size() == target_types.size(),
                  "match_by_type: invalid inputs");
  check_type_histograms(source_types, target_types);
  support::expect(all_finite(source),
                  "match_by_type: non-finite source coordinate");
  support::expect(all_finite(target),
                  "match_by_type: non-finite target coordinate");

  // Lazy greedy matching, output-identical to sorting all same-type pairs by
  // (dist_sq, s, t) and committing greedily, without materializing the O(n²)
  // pair list. Each source keeps one heap entry: its closest unused
  // same-type target at the time the entry was pushed. Distances to a source
  // never shrink as targets get used, so a stale entry (target used since)
  // sorts no later than the source's true current best; popping it and
  // re-pushing the recomputed best therefore preserves the global
  // (dist_sq, s, t) commit order exactly, ties included.
  struct Pair {
    double dist_sq;
    std::uint32_t s;
    std::uint32_t t;
  };
  const auto later = [](const Pair& a, const Pair& b) noexcept {
    if (a.dist_sq != b.dist_sq) return a.dist_sq > b.dist_sq;
    if (a.s != b.s) return a.s > b.s;  // deterministic tie-break
    return a.t > b.t;
  };

  const std::size_t n = source.size();
  sim::TypeId max_type = 0;
  for (const sim::TypeId t : target_types) max_type = std::max(max_type, t);
  std::vector<std::vector<std::uint32_t>> targets_of_type(
      static_cast<std::size_t>(max_type) + 1);
  for (std::uint32_t t = 0; t < n; ++t) {
    targets_of_type[target_types[t]].push_back(t);
  }

  std::vector<char> target_used(n, 0);
  // Closest unused target of source s. The search starts from the first
  // unused target of s's type, not from an infinite sentinel, so a type
  // whose remaining squared distances all overflow to +inf still yields one
  // of its own unused targets; strict < after that keeps the lowest index
  // among equal distances, matching the sorted path's t tie-break. The
  // histogram check guarantees an unused target exists whenever s is
  // unmatched.
  const auto best_candidate = [&](std::uint32_t s) noexcept {
    const std::vector<std::uint32_t>& same_type =
        targets_of_type[source_types[s]];
    auto it = same_type.begin();
    while (target_used[*it]) ++it;
    Pair best{geom::dist_sq(source[s], target[*it]), s, *it};
    for (++it; it != same_type.end(); ++it) {
      const std::uint32_t t = *it;
      if (target_used[t]) continue;
      const double d2 = geom::dist_sq(source[s], target[t]);
      if (d2 < best.dist_sq) {
        best.dist_sq = d2;
        best.t = t;
      }
    }
    return best;
  };

  std::vector<Pair> heap;
  heap.reserve(n);
  for (std::uint32_t s = 0; s < n; ++s) heap.push_back(best_candidate(s));
  std::make_heap(heap.begin(), heap.end(), later);

  std::vector<std::size_t> match(n, n);
  std::size_t committed = 0;
  while (committed < n && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Pair p = heap.back();
    heap.pop_back();
    if (target_used[p.t]) {
      heap.push_back(best_candidate(p.s));
      std::push_heap(heap.begin(), heap.end(), later);
      continue;
    }
    match[p.s] = p.t;
    target_used[p.t] = 1;
    ++committed;
  }
  support::expect(committed == n, "match_by_type: incomplete matching");
  return match;
}

}  // namespace sops::align
