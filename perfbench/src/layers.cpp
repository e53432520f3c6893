// Pieces every runner shares: the report, one timed job through a
// JobManager, and the traced run's layer rebuild and accounting.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>

#include "core/analyzer.hpp"
#include "geom/position_lanes.hpp"
#include "runner.hpp"
#include "sim/parallel_policy.hpp"
#include "support/executor.hpp"

namespace perfbench {

namespace core = sops::core;

void Report::attempt(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  lines.push_back("FAILED: " + what);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.push_back({name, value, unit});
  note(name, value, unit);
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  char buffer[160];
  std::snprintf(buffer, sizeof buffer, "%-28s %14.6g %-6s", name.c_str(),
                value, unit.c_str());
  lines.push_back(std::string(buffer) + (detail.empty() ? "" : "  " + detail));
}

void note_timing(Report& report, const std::string& name,
                 const std::vector<double>& ms, const std::string& what) {
  report.note(name + "_p50_ms", median(ms), "ms",
              "over " + std::to_string(ms.size()) + " " + what);
  if (const auto tail = tail_percentile(ms)) {
    report.note(name + "_tail_ms", tail->value, "ms",
                "p" + json_number(tail->percentile) + " of " +
                    std::to_string(tail->count) + " " + what);
  } else {
    report.lines.push_back(name + "_tail_ms: n/a (" + std::to_string(ms.size()) +
                           " " + what + "; a tail needs ten beyond p50)");
  }
}

void note_error_rate(Report& report) {
  report.note("error_rate",
              static_cast<double>(report.failed) /
                  static_cast<double>(std::max<std::size_t>(report.attempted, 1)),
              "ratio",
              std::to_string(report.failed) + " of " +
                  std::to_string(report.attempted) + " attempts");
}

JobRun run_managed_job(core::JobManager& manager,
                       const core::ConfiguredExperiment& configured,
                       core::JobAnalysis analysis) {
  // Shared with the event hooks: the manager may still deliver the
  // terminal state change after wait() has returned.
  struct Stamps {
    Clock::time_point start = Clock::now();
    std::atomic<double> running{-1.0};
    std::atomic<double> sim_done{-1.0};
    std::atomic<double> first_sample{-1.0};
    std::atomic<double> last_sample{-1.0};
    [[nodiscard]] double since_start() const {
      return seconds_between(start, Clock::now());
    }
  };
  const auto stamps = std::make_shared<Stamps>();
  core::JobOptions options;
  options.analysis = analysis;
  options.events.on_state_change = [stamps](const core::JobStatus& status) {
    if (status.state == core::JobState::kRunning) {
      stamps->running.store(stamps->since_start());
    } else if (status.state == core::JobState::kStreaming) {
      stamps->sim_done.store(stamps->since_start());
    }
  };
  options.events.on_sample_done = [stamps](const core::JobSampleEvent&) {
    const double t = stamps->since_start();
    double none = -1.0;
    stamps->first_sample.compare_exchange_strong(none, t);
    double last = stamps->last_sample.load();
    while (last < t && !stamps->last_sample.compare_exchange_weak(last, t)) {
    }
  };

  JobRun run;
  const double cpu_start = process_cpu_seconds();
  try {
    const std::uint64_t id = manager.submit(configured, options);
    run.outcome = manager.wait(id);
    run.ok = true;
  } catch (const std::exception& error) {
    run.error = error.what();
  }
  run.latency_s = stamps->since_start();
  run.cpu_s = process_cpu_seconds() - cpu_start;
  // Record-only jobs go from kRunning straight to kDone: their simulation
  // ends with the job.
  const double sim_done = stamps->sim_done.load();
  run.sim_s = sim_done >= 0.0 ? sim_done : run.latency_s;
  run.first_sample_s = std::max(stamps->first_sample.load(), 0.0);
  run.last_sample_s = std::max(stamps->last_sample.load(), 0.0);
  run.queue_wait_s = std::max(stamps->running.load(), 0.0);
  run.run_s = run.sim_s - run.queue_wait_s;
  run.stream_tail_s = run.latency_s - run.sim_s;
  return run;
}

namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_positions(std::span<const sops::geom::Vec2> a,
                    std::span<const sops::geom::Vec2> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

}  // namespace

void trace_job_layers(Tracer& tracer, LayerCounts& counts,
                      const core::ConfiguredExperiment& configured,
                      const core::JobOutcome& outcome,
                      std::vector<double>& frame_seconds, double& untraced_s,
                      double& traced_s, Report& report) {
  const core::EnsembleSeries& series = outcome.series;
  const core::AnalysisOptions& options = configured.analysis;

  if (outcome.analysis.has_value()) {
    // Frames one after another on one pool of the analysis width, each
    // frame's rows and KSG queries spread over it — the streaming
    // consumer's schedule. Estimates do not depend on the schedule.
    const bool coarse = series.particle_count() > options.coarse_grain_above;
    sops::support::TaskPool pool(options.threads);
    bool library_matches = true;
    bool rebuild_matches = true;
    const auto untraced_start = Clock::now();
    for (std::size_t f = 0; f < series.frame_count(); ++f) {
      const auto frame_start = Clock::now();
      const core::FrameAnalysis frame = core::analyze_frame(
          series.frames[f], series.types, series.frame_steps[f], f, coarse,
          options, pool.executor());
      frame_seconds.push_back(seconds_between(frame_start, Clock::now()));
      library_matches &= same_bits(frame.point.multi_information,
                                   outcome.analysis->points[f].multi_information);
    }
    const auto traced_start = Clock::now();
    untraced_s += seconds_between(untraced_start, traced_start);
    for (std::size_t f = 0; f < series.frame_count(); ++f) {
      const core::FrameAnalysis frame = traced_analyze_frame(
          tracer, counts, tracer.next_id(), series.frames[f], series.types,
          series.frame_steps[f], f, coarse, options, pool.executor());
      rebuild_matches &= same_bits(frame.point.multi_information,
                                   outcome.analysis->points[f].multi_information);
    }
    traced_s += seconds_between(traced_start, Clock::now());
    report.attempt(library_matches,
                   "analyze_frame on the job's frames differs from the job's I(t)");
    report.attempt(rebuild_matches,
                   "traced frame rebuild differs from analyze_frame bitwise");
  }

  // Sample 0's step loop at the intra-step width the job's split gave it.
  const core::ExperimentConfig& experiment = configured.experiment;
  const sops::sim::ThreadBudget budget = sops::sim::resolve_parallel_policy(
      experiment.parallel, series.particle_count(), experiment.samples,
      experiment.threads);
  sops::support::TaskPool step_pool(budget.step_threads);
  sops::sim::SimulationConfig sample = experiment.simulation;
  sample.stream = series.slot_begin;
  sample.threads = budget.step_threads;
  sample.parallel_policy = sops::sim::ParallelPolicy::kWithinStep;

  std::vector<std::vector<sops::geom::Vec2>> library_frames;
  sops::sim::SimulationWorkspace library_workspace;
  library_workspace.lend_executor(&step_pool.executor());
  const auto untraced_start = Clock::now();
  (void)sops::sim::run_simulation_streamed(
      sample, library_workspace,
      [&](std::size_t, std::size_t, sops::geom::PositionLanes positions) {
        sops::geom::interleave(positions, library_frames.emplace_back());
      });
  const auto traced_start = Clock::now();
  untraced_s += seconds_between(untraced_start, traced_start);
  sops::sim::SimulationWorkspace traced_workspace;
  traced_workspace.lend_executor(&step_pool.executor());
  const std::vector<std::vector<sops::geom::Vec2>> traced_frames =
      traced_run_sample(tracer, counts, tracer.next_id(), sample,
                        traced_workspace);
  traced_s += seconds_between(traced_start, Clock::now());

  bool steps_match = traced_frames.size() == series.frame_count() &&
                     library_frames.size() == series.frame_count();
  for (std::size_t f = 0; steps_match && f < series.frame_count(); ++f) {
    steps_match = same_positions(traced_frames[f], series.frames.sample(f, 0)) &&
                  same_positions(library_frames[f], series.frames.sample(f, 0));
  }
  report.attempt(steps_match,
                 "traced step loop differs from the job's recording bitwise");
}

void finish_layers(const Tracer& tracer, const LayerCounts& counts,
                   std::size_t passes, double untraced_s, double traced_s,
                   const std::string& span_path, LayerFigures& figures,
                   Report& report) {
  const double per_pass = 1.0 / static_cast<double>(std::max<std::size_t>(passes, 1));
  const std::vector<Span> spans = tracer.spans();
  for (const auto& [name, seconds] : self_times(spans)) {
    figures.self_s[name] = seconds * per_pass;
  }
  figures.sim_steps = static_cast<double>(counts.steps.load()) * per_pass;
  figures.icp_calls = static_cast<double>(counts.icp_calls.load()) * per_pass;
  figures.icp_iterations =
      static_cast<double>(counts.icp_iterations.load()) * per_pass;
  figures.cluster_calls =
      static_cast<double>(counts.coarse_grain_calls.load()) * per_pass;
  figures.ksg_calls = static_cast<double>(counts.ksg_calls.load()) * per_pass;
  figures.tree_count = static_cast<double>(counts.trees.load()) * per_pass;
  figures.overhead = untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0;

  const WallAccount account = account_wall(spans);
  figures.unaccounted_share =
      account.wall_s > 0.0 ? account.unaccounted_s / account.wall_s : 0.0;
  char buffer[160];
  std::snprintf(buffer, sizeof buffer,
                "traced wall %.4f s over %zu job(s); tracing overhead %+.2f%% "
                "against the same library calls untraced",
                account.wall_s, passes, 100.0 * figures.overhead);
  report.lines.emplace_back(buffer);
  for (const auto& [name, seconds] : account.share_s) {
    std::snprintf(buffer, sizeof buffer, "  wall share %-22s %6.2f%%  (self %.4f s)",
                  name.c_str(), 100.0 * seconds / account.wall_s,
                  figures.self_s[name]);
    report.lines.emplace_back(buffer);
  }
  std::snprintf(buffer, sizeof buffer, "  wall share %-22s %6.2f%%",
                "(unaccounted)", 100.0 * figures.unaccounted_share);
  report.lines.emplace_back(buffer);
  if (tracer.write_jsonl(span_path)) {
    report.lines.push_back("spans written to " + span_path);
  }
}

void emit_layer_metrics(const LayerFigures& figures, Report& report) {
  const auto self = [&](const char* name) {
    const auto it = figures.self_s.find(name);
    return it == figures.self_s.end() ? 0.0 : it->second;
  };
  report.metric("sim.prepare_s", self("sim.prepare"), "s");
  report.metric("sim.drift_s", self("sim.drift"), "s");
  report.metric("sim.integrate_s", self("sim.integrate"), "s");
  report.metric("sim.residual_s", self("sim.residual"), "s");
  report.metric("sim.record_s", self("sim.record"), "s");
  report.metric("sim.steps", figures.sim_steps, "count");
  report.metric("geom.rebuilds", figures.geom_rebuilds, "count");
  report.metric("geom.skip_rate", figures.geom_skip_rate, "ratio");
  report.metric("support.cpu_util", figures.cpu_util, "ratio");
  report.metric("support.threads", figures.threads, "count");
  report.metric("align.center_s", self("align.center"), "s");
  report.metric("align.icp_s", self("align.icp"), "s");
  report.metric("align.icp_calls", figures.icp_calls, "count");
  report.metric("align.icp_iterations", figures.icp_iterations, "count");
  report.metric("align.transform_s", self("align.transform"), "s");
  report.metric("align.match_s", self("align.match"), "s");
  report.metric("align.row_s", self("align.row"), "s");
  report.metric("cluster.coarse_grain_s", self("cluster.coarse_grain"), "s");
  report.metric("cluster.calls", figures.cluster_calls, "count");
  report.metric("info.ksg_tree_s", self("info.ksg_tree"), "s");
  report.metric("info.ksg_query_s", self("info.ksg_query"), "s");
  report.metric("info.ksg_calls", figures.ksg_calls, "count");
  report.metric("info.tree_count", figures.tree_count, "count");
  report.metric("core.frame_s_p50", figures.frame_s_p50, "s");
  report.metric("core.analysis_tail_s", figures.analysis_tail_s, "s");
  report.metric("core.flush_s", figures.flush_s, "s");
  report.metric("core.queue_wait_ms_p50", figures.queue_wait_ms_p50, "ms");
  report.metric("core.run_ms_p50", figures.run_ms_p50, "ms");
  report.metric("core.stream_tail_ms_p50", figures.stream_tail_ms_p50, "ms");
  report.metric("io.sample_csv_s", figures.sample_csv_s, "s");
  report.metric("io.sample_csv_bytes", figures.sample_csv_bytes, "bytes");
  report.metric("io.frames_received", figures.frames_received, "count");
  report.metric("io.frame_bytes_received", figures.frame_bytes_received,
                "bytes");
  report.metric("io.replay_frames", figures.replay_frames, "count");
  report.metric("trace.overhead", figures.overhead, "ratio");
  report.metric("trace.unaccounted_share", figures.unaccounted_share, "ratio");
}

}  // namespace perfbench
