// The batch workloads (paper-row, fig4-ensemble, large-collective): one job
// config repeated through a one-slot core::JobManager for the whole run,
// exactly the way `sops_run` executes a config file.
#include <memory>
#include <optional>

#include "core/config_builder.hpp"
#include "io/config.hpp"
#include "runner.hpp"
#include "sim/parallel_policy.hpp"
#include "yardstick.hpp"

namespace perfbench {

namespace core = sops::core;

namespace {

// Set-up is repeated this often before the first job and again after every
// job of the timed window; the median is reported. Creating threads costs
// the creator more or less depending on what the host's other vCPUs are
// doing at that moment, so the repetitions are spread over the whole run
// rather than taken in one burst.
constexpr int kSetupsBefore = 21;
constexpr int kSetupsPerJob = 8;
// Yardstick pieces timed after every job (see yardstick.hpp).
constexpr int kYardstickPieces = 5;

// What a user of `sops_run` pays before the first step: the config parsed
// and built into an experiment, and the one-slot manager with its pool.
std::unique_ptr<core::JobManager> set_up(const JobSpec& spec) {
  const core::ConfiguredExperiment configured =
      core::build_experiment(sops::io::Config::parse(spec.config_text));
  core::JobLimits limits;
  limits.job_slots = 1;
  limits.machine_threads = configured.experiment.threads;
  return std::make_unique<core::JobManager>(limits);
}

// The output a pass must repeat bit for bit: the I(t) curve of an analyzed
// job, or the recorded positions of a record-only one.
std::uint64_t output_fingerprint(const core::JobOutcome& outcome) {
  if (outcome.analysis.has_value()) {
    const std::vector<double> mi = outcome.analysis->mi_values();
    return fnv1a(mi.data(), mi.size() * sizeof(double));
  }
  const core::EnsembleSeries& series = outcome.series;
  std::uint64_t hash = fnv1a(nullptr, 0);
  for (std::size_t f = 0; f < series.frame_count(); ++f) {
    for (std::size_t s = 0; s < series.sample_count(); ++s) {
      const auto sample = series.frames.sample(f, s);
      hash = fnv1a(sample.data(), sample.size_bytes(), hash);
    }
  }
  return hash;
}

}  // namespace

Report run_batch(const RunOptions& options, bool traced) {
  Report report;
  std::vector<JobSpec> specs;
  for (std::uint64_t v = 0; v < kBatchVariants; ++v) {
    specs.push_back(batch_job(options.workload, options.seed, v));
  }
  const JobSpec& spec = specs.front();

  // Set-up cost is the CPU time of the thread that sets up: host load
  // inflates the wall time of spawning threads far more than the work, so
  // the wall figure is shown beside it only. The new pool threads' own
  // start-up is left out — whether they have run yet when set-up returns
  // is a race, not a cost. The jobs run on the first manager; the timed
  // repetitions set up and drop a spare one beside it, so the serving
  // threads, and the malloc arenas they hold, stay the same all run long
  // and the jobs' memory does not depend on how many set-ups came before.
  std::vector<double> setup_cpu_s, setup_wall_s;
  const auto timed_set_up = [&] {
    const double cpu_start = thread_cpu_seconds();
    const auto start = Clock::now();
    std::unique_ptr<core::JobManager> manager = set_up(spec);
    setup_wall_s.push_back(seconds_between(start, Clock::now()));
    setup_cpu_s.push_back(thread_cpu_seconds() - cpu_start);
    return manager;
  };
  const std::unique_ptr<core::JobManager> manager = timed_set_up();
  const auto set_up_again = [&](int times) {
    for (int i = 0; i < times; ++i) (void)timed_set_up();
  };
  set_up_again(kSetupsBefore);
  std::vector<core::ConfiguredExperiment> variants;
  for (const JobSpec& variant : specs) {
    variants.push_back(
        core::build_experiment(sops::io::Config::parse(variant.config_text)));
  }
  const double work = particle_steps(variants.front().experiment);

  // Each variant's first pass is the reference its later passes must
  // reproduce bitwise.
  std::vector<std::optional<std::uint64_t>> references(kBatchVariants);
  std::size_t next_pass = 0;
  const auto run_pass = [&](std::size_t& variant) {
    variant = next_pass++ % kBatchVariants;
    JobRun run = run_managed_job(*manager, variants[variant], spec.analysis);
    if (!run.ok) {
      report.attempt(false, "job failed: " + run.error);
      return run;
    }
    const std::uint64_t fingerprint = output_fingerprint(run.outcome);
    if (!references[variant]) references[variant] = fingerprint;
    bool ok = *references[variant] == fingerprint;
    if (!ok) report.lines.push_back("output differs from the variant's first pass");
    if (spec.kind == "fig4") {
      // The paper's verdict on its own Fig. 4 collective.
      const bool organizing = run.outcome.analysis->self_organizing();
      if (!organizing) report.lines.push_back("fig4 lost its self-organizing verdict");
      ok = ok && organizing;
    }
    report.attempt(ok, "output check failed");
    return run;
  };

  // A warm-up pass outside the timed window: first-touch page faults and
  // lazily built tables are paid here.
  std::size_t variant = 0;
  const JobRun warm = run_pass(variant);
  if (warm.ok && warm.outcome.analysis.has_value()) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "delta-I of the first variant: %.4f bits",
                  warm.outcome.analysis->delta_mi());
    report.lines.emplace_back(buffer);
  }

  const auto deadline = Clock::now() + std::chrono::duration<double>(options.seconds);
  if (!traced) {
    // The yardstick runs before the first job and after every job, so that
    // it sees the host the jobs saw. Set-up repeats after every job too.
    Yardstick yardstick;
    std::vector<JobRun> runs;
    yardstick.measure(kYardstickPieces);
    while (runs.size() < 2 * kBatchVariants || Clock::now() < deadline) {
      runs.push_back(run_pass(variant));
      runs.back().outcome = {};  // keep memory flat across passes
      yardstick.measure(kYardstickPieces);
      set_up_again(kSetupsPerJob);
    }
    std::vector<double> latency, latency_ms, first_sample_ms, tail, sim_rate, cpu;
    double busy_s = 0.0;  // the jobs' own time, without the measurements between
    for (const JobRun& run : runs) {
      busy_s += run.latency_s;
      latency.push_back(run.latency_s);
      latency_ms.push_back(1e3 * run.latency_s);
      first_sample_ms.push_back(1e3 * run.first_sample_s);
      tail.push_back(run.stream_tail_s);
      sim_rate.push_back(work / run.sim_s);
      cpu.push_back(run.cpu_s);
    }
    report.metric("setup_s", median(setup_cpu_s), "s");
    report.metric("pipeline_vs_yardstick", median(latency) / yardstick.wall_s(), "ratio");
    report.metric("pipeline_cpu_vs_yardstick", median(cpu) / yardstick.cpu_s(), "ratio");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("setup_wall_s", median(setup_wall_s), "s");
    report.note("pipeline_s", median(latency), "s");
    report.note("pipeline_cpu_s", median(cpu), "s");
    report.note("yardstick_s", yardstick.wall_s(), "s", "one piece");
    report.note("particle_steps_per_s", median(sim_rate), "1/s");
    report.note("jobs_per_s", static_cast<double>(runs.size()) / busy_s, "1/s");
    if (spec.analysis != core::JobAnalysis::kNone) {
      // Analyzed frames per second of analysis: the whole pipeline when
      // analysis streams beside the simulation, the tail after it when it
      // runs post hoc (what `sops_run` reports).
      const double frames = static_cast<double>(
          sops::sim::recording_steps(variants.front().experiment.simulation.steps,
                                     variants.front().experiment.simulation.record_stride)
              .size());
      const double analysis_s = spec.analysis == core::JobAnalysis::kStreamed
                                    ? median(latency)
                                    : median(tail);
      report.note("frames_per_s", frames / analysis_s, "1/s");
    }
    note_timing(report, "job_latency", latency_ms, "jobs");
    note_timing(report, "first_sample", first_sample_ms, "jobs");
    note_error_rate(report);
    return report;
  }

  // Traced: each pass runs the job untraced through the manager, then the
  // layer rebuilds on its output, until the run's time is up.
  Tracer tracer;
  LayerCounts counts;
  LayerFigures figures;
  std::vector<double> frame_seconds, tail_s, flush_s, queue_ms, run_ms,
      stream_ms, cpu_util;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::size_t passes = 0;
  const core::ExperimentConfig& experiment = variants.front().experiment;
  const sops::sim::ThreadBudget budget = sops::sim::resolve_parallel_policy(
      experiment.parallel, experiment.simulation.types.size(),
      experiment.samples, experiment.threads);
  const double threads = static_cast<double>(budget.sample_threads * budget.step_threads);
  while (passes == 0 || Clock::now() < deadline) {
    JobRun run = run_pass(variant);
    if (!run.ok) break;
    ++passes;
    queue_ms.push_back(1e3 * run.queue_wait_s);
    run_ms.push_back(1e3 * run.run_s);
    stream_ms.push_back(1e3 * run.stream_tail_s);
    tail_s.push_back(run.latency_s - run.last_sample_s);
    cpu_util.push_back(run.cpu_s / (run.latency_s * threads));
    core::EnsembleSeries& series = run.outcome.series;
    const auto flush_start = Clock::now();
    series.frames.flush_samples(0, series.sample_count());
    flush_s.push_back(seconds_between(flush_start, Clock::now()));
    figures.geom_rebuilds = static_cast<double>(series.rebuild_stats.rebuilds);
    figures.geom_skip_rate = series.rebuild_stats.skip_rate();
    trace_job_layers(tracer, counts, variants[variant], run.outcome, frame_seconds,
                     untraced_s, traced_s, report);
  }
  figures.threads = threads;
  figures.cpu_util = median(cpu_util);
  figures.frame_s_p50 = median(frame_seconds);
  figures.analysis_tail_s = median(tail_s);
  figures.flush_s = median(flush_s);
  figures.queue_wait_ms_p50 = median(queue_ms);
  figures.run_ms_p50 = median(run_ms);
  figures.stream_tail_ms_p50 = median(stream_ms);
  finish_layers(tracer, counts, passes, untraced_s, traced_s,
                options.work_dir + "/spans-" + workload_name(options.workload) +
                    "-" + std::to_string(options.seed) + ".jsonl",
                figures, report);
  emit_layer_metrics(figures, report);
  note_error_rate(report);
  return report;
}

}  // namespace perfbench
