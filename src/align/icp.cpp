#include "align/icp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "geom/kdtree.hpp"
#include "support/error.hpp"
#include "support/executor.hpp"

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

// Fewest index queries (neighbor lists and grid cells) per task of the
// IcpTarget build's batch. A neighbor list costs about a microsecond; a
// pool dispatch costs tens of microseconds, and more when the runners
// share their cores with a running simulation, as streamed analysis does.
// At 512 a reference of up to ~256 particles is indexed inline and the
// paper row's 1024 split into four tasks (1.2 ms → ~0.5 ms on 4 runners).
constexpr std::size_t kQueriesPerTask = 512;

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

// `types` has exactly `expected[t]` members of each type t.
void check_type_counts(std::span<const sim::TypeId> types,
                       std::span<const std::size_t> expected) {
  std::vector<std::size_t> counts(expected.size(), 0);
  for (const sim::TypeId t : types) {
    support::expect(t < counts.size(), "align: type histograms differ");
    ++counts[t];
  }
  support::expect(std::equal(counts.begin(), counts.end(), expected.begin()),
                  "align: type histograms differ");
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
  check_type_counts(source_types, target.type_counts());
}

// The IcpTarget constructor's checks, made before any index is built.
TypeTrees checked_type_trees(std::span<const geom::Vec2> points,
                             std::span<const sim::TypeId> types) {
  support::expect(!points.empty() && points.size() == types.size(),
                  "align_icp: invalid inputs");
  support::expect(all_finite(points), "align_icp: non-finite target coordinate");
  return TypeTrees(points, types);
}

// The greedy same-type matching behind both match_by_type overloads, on
// validated inputs: the target's per-type trees index `target`. Types are
// matched one after another — pairs never cross types, so each type's
// commit order is its slice of the global (dist_sq, s, t) order — each on
// its own heap of source entries and one live set, both reused.
std::vector<std::size_t> greedy_match(std::span<const geom::Vec2> source,
                                      std::span<const sim::TypeId> source_types,
                                      const TypeTrees& trees) {
  struct Pair {
    double dist_sq;
    std::uint32_t s;
    std::uint32_t t;  // the target's index in its type's tree
  };
  const auto later = [](const Pair& a, const Pair& b) noexcept {
    if (a.dist_sq != b.dist_sq) return a.dist_sq > b.dist_sq;
    if (a.s != b.s) return a.s > b.s;  // deterministic tie-break
    return a.t > b.t;  // tree order is target index order
  };

  // Sources grouped by type, ascending within each (a counting sort).
  const std::size_t n = source.size();
  const std::size_t type_count = trees.type_count();
  std::vector<std::uint32_t> start(type_count + 1, 0);
  for (const sim::TypeId t : source_types) ++start[t + 1];
  for (std::size_t t = 0; t < type_count; ++t) start[t + 1] += start[t];
  std::vector<std::uint32_t> sources(n);
  {
    std::vector<std::uint32_t> cursor(start.begin(), start.end() - 1);
    for (std::uint32_t s = 0; s < n; ++s) sources[cursor[source_types[s]]++] = s;
  }

  std::vector<std::size_t> match(n, n);
  std::size_t committed = 0;
  std::vector<Pair> heap;
  heap.reserve(n);
  std::vector<char> used;
  geom::KdTree::LiveSet live;
  for (std::size_t type = 0; type < type_count; ++type) {
    const geom::KdTree& tree = trees.tree(type);
    const std::span<const std::uint32_t> members = trees.members(type);
    if (members.empty()) continue;
    tree.reset_live(live);
    const auto best_candidate = [&](std::uint32_t s) {
      const double query[2] = {source[s].x, source[s].y};
      const geom::Neighbor nn = tree.nearest_live({query, 2}, live);
      return Pair{nn.dist_sq, s, static_cast<std::uint32_t>(nn.index)};
    };
    heap.clear();
    for (std::uint32_t k = start[type]; k < start[type + 1]; ++k) {
      heap.push_back(best_candidate(sources[k]));
    }
    std::make_heap(heap.begin(), heap.end(), later);
    used.assign(members.size(), 0);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const Pair p = heap.back();
      heap.pop_back();
      if (used[p.t]) {
        heap.push_back(best_candidate(p.s));
        std::push_heap(heap.begin(), heap.end(), later);
        continue;
      }
      match[p.s] = members[p.t];
      used[p.t] = 1;
      tree.remove_live(p.t, live);
      ++committed;
    }
  }
  support::expect(committed == n, "match_by_type: incomplete matching");
  return match;
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
TypeTrees::TypeTrees(std::span<const geom::Vec2> points,
                     std::span<const sim::TypeId> types) {
  support::expect(points.size() == types.size(), "TypeTrees: size mismatch");
  sim::TypeId max_type = 0;
  for (const sim::TypeId t : types) max_type = std::max(max_type, t);
  const std::size_t type_count = static_cast<std::size_t>(max_type) + 1;
  coords_.resize(type_count);
  members_.resize(type_count);
  for (std::size_t i = 0; i < points.size(); ++i) {
    coords_[types[i]].push_back(points[i].x);
    coords_[types[i]].push_back(points[i].y);
    members_[types[i]].push_back(static_cast<std::uint32_t>(i));
  }
  trees_.reserve(type_count);
  for (std::size_t type = 0; type < type_count; ++type) {
    trees_.emplace_back(coords_[type], 2);
  }
}

IcpTarget::IcpTarget(std::span<const geom::Vec2> points,
                     std::span<const sim::TypeId> types,
                     support::Executor* executor)
    : points_(points.begin(), points.end()),
      types_(types.begin(), types.end()),
      trees_(checked_type_trees(points, types)),
      type_counts_(sim::type_histogram(types, trees_.type_count())) {
  // A type that fits in one tree leaf is answered by a single leaf scan,
  // which is cheaper than the candidate test; it keeps no warm start and no
  // grid. Otherwise the grid has about one cell per member: side
  // √(area / members), but no narrower than extent / members, so a thin
  // type cannot ask for a quadratic cell count (at most 3·members + 1 cells
  // either way). A type of coincident points, or one whose extent
  // overflows, gets one cell. The geometry is laid out first; the queries
  // (each warm type's neighbor lists, then its cells) follow as one batch.
  struct Segment {
    std::size_t type;
    bool cells;          // grid cells, else neighbor lists
    std::size_t first;   // index of the segment's first query in the batch
    std::size_t count;
  };
  std::vector<Segment> segments;
  std::size_t queries = 0;
  warm_.assign(points.size(), WarmStart{{}, -1.0});
  grids_.resize(trees_.type_count());
  for (std::size_t type = 0; type < trees_.type_count(); ++type) {
    const std::span<const std::uint32_t> members = trees_.members(type);
    if (members.size() <= geom::KdTree::kLeafSize) continue;
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
    segments.push_back({type, false, queries, members.size()});
    queries += members.size();
    segments.push_back({type, true, queries, grid.cells.size()});
    queries += grid.cells.size();
  }

  const auto neighbor_list = [&](std::size_t type, std::size_t local,
                                 std::span<geom::Neighbor> nearest) {
    const std::span<const std::uint32_t> members = trees_.members(type);
    const geom::Vec2 p = points_[members[local]];
    const double query[2] = {p.x, p.y};
    (void)trees_.tree(type).k_nearest({query, 2}, nearest, local);
    WarmStart& warm = warm_[members[local]];
    for (std::size_t k = 0; k < kNeighbors; ++k) {
      warm.neighbors[k] = members[nearest[k].index];
    }
    const double radius = std::sqrt(nearest.back().dist_sq);
    if (radius >= kMinRadius) warm.radius = radius;
  };
  const auto grid_cell = [&](std::size_t type, std::size_t c) {
    Grid& grid = grids_[type];
    const std::size_t ix = c % grid.nx;
    const std::size_t iy = c / grid.nx;
    const geom::Vec2 centre{
        grid.origin.x + (static_cast<double>(ix) + 0.5) * grid.cell,
        grid.origin.y + (static_cast<double>(iy) + 0.5) * grid.cell};
    grid.cells[c] = nearest(centre, static_cast<sim::TypeId>(type));
  };
  const auto run_queries = [&](std::size_t begin, std::size_t end) {
    std::array<geom::Neighbor, kNeighbors> nearest;
    for (const Segment& segment : segments) {
      const std::size_t from = std::max(begin, segment.first);
      const std::size_t to = std::min(end, segment.first + segment.count);
      for (std::size_t q = from; q < to; ++q) {
        if (segment.cells) {
          grid_cell(segment.type, q - segment.first);
        } else {
          neighbor_list(segment.type, q - segment.first, nearest);
        }
      }
    }
  };

  // Every query writes its own slot, so the batch may run on any runners:
  // one dispatch, in tasks of at least kQueriesPerTask queries, so a small
  // reference is indexed inline.
  const std::size_t tasks = queries / kQueriesPerTask;
  if (tasks <= 1) {
    run_queries(0, queries);
    return;
  }
  auto task = [&](std::size_t k) {
    const support::ChunkRange range = support::chunk_range(k, queries, tasks);
    run_queries(range.begin, range.end);
  };
  support::executor_or_inline(executor).run(tasks, task);
}

std::uint32_t IcpTarget::nearest(geom::Vec2 q, sim::TypeId type) const {
  const double query[2] = {q.x, q.y};
  const geom::Neighbor nn = trees_.tree(type).nearest({query, 2});
  return trees_.members(type)[nn.index];
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
  const geom::Neighbor nn = trees_.tree(type).nearest({query, 2}, best_d2);
  return {trees_.members(type)[nn.index]};
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
  return greedy_match(source, source_types, TypeTrees(target, target_types));
}

std::vector<std::size_t> match_by_type(std::span<const geom::Vec2> source,
                                       std::span<const sim::TypeId> source_types,
                                       const IcpTarget& target) {
  support::expect(source.size() == target.size() &&
                      source.size() == source_types.size(),
                  "match_by_type: invalid inputs");
  check_type_counts(source_types, target.type_counts());
  support::expect(all_finite(source),
                  "match_by_type: non-finite source coordinate");
  return greedy_match(source, source_types, target.type_trees());
}

}  // namespace sops::align
