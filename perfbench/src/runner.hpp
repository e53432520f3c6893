// The workload runners and what they hand back to main().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/job_manager.hpp"
#include "rebuild.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What one benchmark run found: the result line's fields plus the
/// human-readable report printed above it.
struct Report {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;     ///< the result line's metrics
  std::vector<std::string> lines;  ///< report lines, printed first

  /// Counts one attempt; a failed one also clears `correct` and is
  /// explained in the report.
  void attempt(bool ok, const std::string& what);
  /// Adds a metric to the result line and prints it.
  void metric(const std::string& name, double value, const std::string& unit);
  /// Prints a metric that is reported but not part of the result line.
  void note(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");
};

/// Prints `<name>_p50_ms` and `<name>_tail_ms` (the tail percentile and its
/// sample count) of a set of millisecond timings.
void note_timing(Report& report, const std::string& name,
                 const std::vector<double>& ms, const std::string& what);

/// Prints error_rate: failed attempts over attempts.
void note_error_rate(Report& report);

struct RunOptions {
  Workload workload = Workload::kPaperRow;
  std::uint64_t seed = 0;
  double seconds = 0.0;  ///< length of the timed window
  std::string work_dir;  ///< sockets, spill files and span dumps
};

/// One job through a JobManager, timed from submit: the outcome plus the
/// moments its state changed, as seen by the job's event hooks.
struct JobRun {
  sops::core::JobOutcome outcome;
  bool ok = false;
  std::string error;
  double latency_s = 0.0;       ///< submit → wait() returned the result
  double sim_s = 0.0;           ///< submit → simulation done
  double first_sample_s = 0.0;  ///< submit → first sample recorded
  double last_sample_s = 0.0;   ///< submit → last sample recorded
  double queue_wait_s = 0.0;    ///< submit → kRunning
  double run_s = 0.0;           ///< kRunning → simulation done
  double stream_tail_s = 0.0;   ///< simulation done → result
  double cpu_s = 0.0;           ///< process CPU seconds over the job
};

[[nodiscard]] JobRun run_managed_job(
    sops::core::JobManager& manager,
    const sops::core::ConfiguredExperiment& configured,
    sops::core::JobAnalysis analysis);

/// The per-layer figures of a traced run, averaged per traced job.
struct LayerFigures {
  std::map<std::string, double> self_s;  ///< span name → self seconds
  double sim_steps = 0.0;
  double geom_rebuilds = 0.0;
  double geom_skip_rate = 0.0;
  double cpu_util = 0.0;
  double threads = 0.0;
  double icp_calls = 0.0;
  double icp_iterations = 0.0;
  double cluster_calls = 0.0;
  double ksg_calls = 0.0;
  double tree_count = 0.0;
  double frame_s_p50 = 0.0;
  double analysis_tail_s = 0.0;
  double flush_s = 0.0;
  double queue_wait_ms_p50 = 0.0;
  double run_ms_p50 = 0.0;
  double stream_tail_ms_p50 = 0.0;
  double sample_csv_s = 0.0;
  double sample_csv_bytes = 0.0;
  double frames_received = 0.0;
  double frame_bytes_received = 0.0;
  double replay_frames = 0.0;
  double overhead = 0.0;           ///< traced ÷ untraced time − 1
  double unaccounted_share = 0.0;  ///< of the traced wall
};

/// The traced part shared by every workload: for one finished job, times
/// the library's own analyze_frame and step loop on the job's frames and
/// sample 0, runs the traced rebuilds of both, and checks that the rebuilds
/// reproduce the job's output bitwise. Adds the untraced and traced
/// seconds to the two accumulators.
void trace_job_layers(Tracer& tracer, LayerCounts& counts,
                      const sops::core::ConfiguredExperiment& configured,
                      const sops::core::JobOutcome& outcome,
                      std::vector<double>& frame_seconds,
                      double& untraced_s, double& traced_s, Report& report);

/// Turns the spans and counts of `passes` traced jobs into layer figures,
/// prints the wall accounting and writes the spans to `span_path`.
void finish_layers(const Tracer& tracer, const LayerCounts& counts,
                   std::size_t passes, double untraced_s, double traced_s,
                   const std::string& span_path, LayerFigures& figures,
                   Report& report);

/// Adds every per-layer metric (BENCHMARK.json's per_layer list) to the
/// result line; layers a workload bypasses report 0.
void emit_layer_metrics(const LayerFigures& figures, Report& report);

[[nodiscard]] Report run_batch(const RunOptions& options, bool traced);
[[nodiscard]] Report run_service(const RunOptions& options, bool traced);

}  // namespace perfbench
