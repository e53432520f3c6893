#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

void Tracer::record(Span span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& span : spans()) {
    out << "{\"name\": \"" << span.name << "\", \"id\": " << span.id
        << ", \"parent\": " << span.parent << ", \"group\": " << span.group
        << ", \"start\": " << json_number(span.start)
        << ", \"end\": " << json_number(span.end) << "}\n";
  }
  return static_cast<bool>(out.flush());
}

namespace {

using Interval = std::pair<double, double>;

// Sorted, disjoint union of `intervals`, each clipped to [lo, hi].
std::vector<Interval> merged(std::vector<Interval> intervals, double lo,
                             double hi) {
  std::sort(intervals.begin(), intervals.end());
  std::vector<Interval> out;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (!out.empty() && a <= out.back().second) {
      out.back().second = std::max(out.back().second, b);
    } else {
      out.emplace_back(a, b);
    }
  }
  return out;
}

std::unordered_map<std::uint64_t, std::vector<const Span*>> children_of(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  return children;
}

// The parts of `span` that none of its children cover.
std::vector<Interval> self_intervals(
    const Span& span,
    const std::unordered_map<std::uint64_t, std::vector<const Span*>>& children) {
  std::vector<Interval> covered;
  if (const auto it = children.find(span.id); it != children.end()) {
    std::vector<Interval> child_intervals;
    for (const Span* child : it->second) {
      child_intervals.emplace_back(child->start, child->end);
    }
    covered = merged(std::move(child_intervals), span.start, span.end);
  }
  std::vector<Interval> out;
  double cursor = span.start;
  for (const auto& [a, b] : covered) {
    if (a > cursor) out.emplace_back(cursor, a);
    cursor = b;
  }
  if (span.end > cursor) out.emplace_back(cursor, span.end);
  return out;
}

}  // namespace

std::map<std::string, double> self_times(const std::vector<Span>& spans) {
  const auto children = children_of(spans);
  std::map<std::string, double> out;
  for (const Span& span : spans) {
    double self = 0.0;
    for (const auto& [a, b] : self_intervals(span, children)) self += b - a;
    out[span.name] += self;
  }
  return out;
}

WallAccount account_wall(const std::vector<Span>& spans) {
  const auto children = children_of(spans);
  WallAccount account;
  std::vector<const Span*> roots;
  for (const Span& span : spans) {
    if (span.parent == 0) roots.push_back(&span);
  }
  for (const Span* root : roots) {
    account.wall_s += root->end - root->start;
    // Sweep the self intervals of the root's whole subtree: between two
    // consecutive interval edges the active names split the elapsed time.
    struct Edge {
      double time;
      int delta;
      const std::string* name;
    };
    std::vector<Edge> edges;
    std::vector<const Span*> stack{root};
    while (!stack.empty()) {
      const Span* span = stack.back();
      stack.pop_back();
      for (const auto& [a, b] : self_intervals(*span, children)) {
        edges.push_back({a, +1, &span->name});
        edges.push_back({b, -1, &span->name});
      }
      if (const auto it = children.find(span->id); it != children.end()) {
        stack.insert(stack.end(), it->second.begin(), it->second.end());
      }
    }
    std::sort(edges.begin(), edges.end(), [](const Edge& x, const Edge& y) {
      return x.time < y.time || (x.time == y.time && x.delta < y.delta);
    });
    std::map<const std::string*, int> active;
    int active_total = 0;
    double last = root->start;
    for (const Edge& edge : edges) {
      const double dt = edge.time - last;
      if (dt > 0.0 && active_total > 0) {
        for (const auto& [name, count] : active) {
          account.share_s[*name] += dt * count / active_total;
        }
      }
      last = edge.time;
      active[edge.name] += edge.delta;
      active_total += edge.delta;
      if (active[edge.name] == 0) active.erase(edge.name);
    }
    account.unaccounted_s += account.share_s[root->name];
    account.share_s.erase(root->name);
  }
  return account;
}

}  // namespace perfbench
