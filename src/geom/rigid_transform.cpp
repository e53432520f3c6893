#include "geom/rigid_transform.hpp"

#include <cmath>
#include <ostream>

#include "support/error.hpp"

namespace sops::geom {

std::ostream& operator<<(std::ostream& os, Vec2 v) {
  return os << '(' << v.x << ", " << v.y << ')';
}

std::vector<Vec2> RigidTransform2::apply(std::span<const Vec2> points) const {
  std::vector<Vec2> out;
  out.reserve(points.size());
  for (const Vec2 p : points) out.push_back(apply(p));
  return out;
}

Vec2 centroid(std::span<const Vec2> points) {
  support::expect(!points.empty(), "centroid: empty point set");
  Vec2 sum{};
  for (const Vec2 p : points) sum += p;
  return sum / static_cast<double>(points.size());
}

std::vector<Vec2> centered(std::span<const Vec2> points) {
  const Vec2 c = centroid(points);
  std::vector<Vec2> out;
  out.reserve(points.size());
  for (const Vec2 p : points) out.push_back(p - c);
  return out;
}

namespace {

// argmin over θ of Σ‖R(θ)·s_i − t_i‖² from the Procrustes sums; 0 when the
// sums vanish (every point at the origin).
double rotation_from_sums(double cross_sum, double dot_sum) noexcept {
  if (cross_sum == 0.0 && dot_sum == 0.0) return 0.0;
  return std::atan2(cross_sum, dot_sum);
}

}  // namespace

double optimal_rotation(std::span<const Vec2> source,
                        std::span<const Vec2> target) {
  support::expect(source.size() == target.size(),
                  "optimal_rotation: size mismatch");
  double cross_sum = 0.0;
  double dot_sum = 0.0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    cross_sum += cross(source[i], target[i]);
    dot_sum += dot(source[i], target[i]);
  }
  return rotation_from_sums(cross_sum, dot_sum);
}

RigidTransform2 fit_rigid(std::span<const Vec2> source,
                          std::span<const Vec2> target) {
  support::expect(source.size() == target.size() && !source.empty(),
                  "fit_rigid: size mismatch or empty input");
  const Vec2 source_c = centroid(source);
  const Vec2 target_c = centroid(target);
  // optimal_rotation of the centred configurations, centring each pair on
  // the fly: the same operations in the same order, without the copies.
  double cross_sum = 0.0;
  double dot_sum = 0.0;
  for (std::size_t i = 0; i < source.size(); ++i) {
    const Vec2 s = source[i] - source_c;
    const Vec2 t = target[i] - target_c;
    cross_sum += cross(s, t);
    dot_sum += dot(s, t);
  }
  const double angle = rotation_from_sums(cross_sum, dot_sum);
  // g(p) = R(p − source_c) + target_c  ⇒  translation = target_c − R·source_c.
  return {angle, target_c - rotated(source_c, angle)};
}

double mean_squared_error(std::span<const Vec2> a, std::span<const Vec2> b) {
  support::expect(a.size() == b.size() && !a.empty(),
                  "mean_squared_error: size mismatch or empty input");
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += dist_sq(a[i], b[i]);
  return sum / static_cast<double>(a.size());
}

}  // namespace sops::geom
