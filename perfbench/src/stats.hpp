// Statistics, host facts and result formatting shared by every workload.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

struct rusage;

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty set.
[[nodiscard]] double median(std::vector<double> values);

/// A timing's tail: the highest of the percentiles 50, 75, 90, 95, 99 and
/// 99.9 that still has at least ten samples beyond it (nearest-rank
/// definition: the value at rank ceil(p·n), with n − ceil(p·n) samples
/// above it).
struct Tail {
  double percentile = 0.0;  ///< e.g. 90 for p90
  double value = 0.0;
  std::size_t count = 0;    ///< samples the percentile was taken over
  std::size_t beyond = 0;   ///< samples ranked above it
};

/// Nullopt when fewer than 20 samples exist (not even p50 has ten beyond).
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<double> values);

/// Facts that decide whether two results are comparable at all: results
/// from different hosts or builds are never compared.
struct HostInfo {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string simd_isa;
  std::string compiler;
  std::string build_type;
};

[[nodiscard]] HostInfo host_info();

/// Peak resident set (VmHWM) of a process in MiB; `pid` 0 is this process.
/// 0 when /proc does not report it.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// CPU seconds (user + system) this process has used so far.
[[nodiscard]] double process_cpu_seconds();

/// CPU seconds the calling thread has used so far.
[[nodiscard]] double thread_cpu_seconds();

/// User + system seconds of a getrusage/wait4 record.
[[nodiscard]] double cpu_seconds(const struct rusage& usage);

/// A number as JSON text with enough digits to round-trip.
[[nodiscard]] std::string json_number(double value);

/// One named metric of a result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line the benchmark prints last:
/// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
[[nodiscard]] std::string result_json(bool correct, std::size_t attempted,
                                      std::size_t failed,
                                      const std::vector<Metric>& metrics);

/// 64-bit FNV-1a over raw bytes, for bitwise output comparisons.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t hash = 0xcbf29ce484222325ULL);

}  // namespace perfbench
