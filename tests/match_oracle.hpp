// The original greedy same-type matcher, frozen as the test oracle of
// align::match_by_type: materialize every same-type pair, sort by
// (distance², source, target), commit greedily. Every production overload
// must reproduce it exactly — ties and all — on any input.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "geom/vec2.hpp"
#include "sim/particle_system.hpp"

namespace sops::test {

inline std::vector<std::size_t> sorted_greedy_oracle(
    std::span<const geom::Vec2> source, std::span<const sim::TypeId> source_types,
    std::span<const geom::Vec2> target, std::span<const sim::TypeId> target_types) {
  struct Pair {
    double dist_sq;
    std::size_t s;
    std::size_t t;
  };
  std::vector<Pair> pairs;
  for (std::size_t s = 0; s < source.size(); ++s) {
    for (std::size_t t = 0; t < target.size(); ++t) {
      if (source_types[s] != target_types[t]) continue;
      pairs.push_back({geom::dist_sq(source[s], target[t]), s, t});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.dist_sq != b.dist_sq) return a.dist_sq < b.dist_sq;
    if (a.s != b.s) return a.s < b.s;
    return a.t < b.t;
  });
  std::vector<std::size_t> match(source.size(), source.size());
  std::vector<char> source_used(source.size(), 0);
  std::vector<char> target_used(target.size(), 0);
  for (const Pair& pair : pairs) {
    if (source_used[pair.s] || target_used[pair.t]) continue;
    match[pair.s] = pair.t;
    source_used[pair.s] = 1;
    target_used[pair.t] = 1;
  }
  return match;
}

}  // namespace sops::test
