// In-memory spans for the traced run.
//
// The benchmark records a span around each call it makes into a library
// layer (the library itself carries no tracing): name "<layer>.<what>",
// start, end, the span that caused it, and a group id shared by every span
// of one frame or one simulated sample. Spans are appended under a mutex —
// the traced calls are whole ICP fits, KSG estimates and simulation steps,
// so one lock per span is noise next to the work — and written out once the
// run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  std::uint64_t group = 0;   ///< frame or sample the span belongs to
  double start = 0.0;        ///< seconds since the tracer's epoch
  double end = 0.0;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  [[nodiscard]] double now() const noexcept {
    return seconds_between(epoch_, Clock::now());
  }
  [[nodiscard]] std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(Span span);

  /// Every span recorded so far, in completion order.
  [[nodiscard]] std::vector<Span> spans() const;

  /// Writes one JSON object per span to `path`; false when it cannot.
  [[nodiscard]] bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// Records one span for its scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t parent,
             std::uint64_t group)
      : tracer_(tracer),
        name_(name),
        id_(tracer.next_id()),
        parent_(parent),
        group_(group),
        start_(tracer.now()) {}
  ~ScopedSpan() {
    tracer_.record({name_, id_, parent_, group_, start_, tracer_.now()});
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::uint64_t id_;
  std::uint64_t parent_;
  std::uint64_t group_;
  double start_;
};

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover (children running concurrently on
/// several threads count once). Summed over spans of the same name, so a
/// layer's figure is busy time across threads.
[[nodiscard]] std::map<std::string, double> self_times(
    const std::vector<Span>& spans);

/// How the wall time of the root spans divides among span names. Every
/// instant inside a root is shared equally by the spans whose self time is
/// running then (a root's own self time included), so the shares add up to
/// the roots' total duration. Time that only a root covers — glue around
/// the library calls — is the unaccounted part.
struct WallAccount {
  double wall_s = 0.0;
  std::map<std::string, double> share_s;
  double unaccounted_s = 0.0;
};

[[nodiscard]] WallAccount account_wall(const std::vector<Span>& spans);

}  // namespace perfbench
