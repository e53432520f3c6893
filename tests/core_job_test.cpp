// Job layer tests: the JobManager must be a pure scheduler — whatever mix
// of concurrent jobs, admission stalls, shared-pool slices, and cancels it
// runs under, every job that completes must hand back the exact bits a solo
// batch run of the same config produces. Cancellation must reclaim
// everything it touched (spill files, pool slices, budget charges) and
// leave durable shards resumable.
//
// Named core_job_* so the CI TSan leg picks the whole suite up (see
// .github/workflows/ci.yml): the manager's driver threads, sample workers,
// and event callbacks are exactly the kind of concurrency TSan exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/job_manager.hpp"
#include "core/presets.hpp"
#include "sim/parallel_policy.hpp"
#include "support/cancel.hpp"

namespace {

using sops::CancelledError;
using sops::Error;
using sops::core::AnalysisResult;
using sops::core::analyze_self_organization;
using sops::core::ConfiguredExperiment;
using sops::core::EnsembleSeries;
using sops::core::ExperimentConfig;
using sops::core::JobAnalysis;
using sops::core::JobLimits;
using sops::core::JobManager;
using sops::core::JobOptions;
using sops::core::JobOutcome;
using sops::core::JobState;
using sops::core::JobStatus;
using sops::core::run_experiment;
using sops::core::StorageMode;

ConfiguredExperiment small_job(std::uint64_t seed, std::size_t samples = 8,
                               std::size_t steps = 20) {
  sops::sim::SimulationConfig simulation =
      sops::core::presets::fig4_three_type_collective();
  simulation.steps = steps;
  simulation.record_stride = steps / 2;
  simulation.seed = seed;
  ConfiguredExperiment configured{ExperimentConfig(simulation), {}};
  configured.experiment.samples = samples;
  return configured;
}

bool stores_bitwise_equal(const EnsembleSeries& a, const EnsembleSeries& b) {
  if (a.frame_count() != b.frame_count() ||
      a.sample_count() != b.sample_count() ||
      a.particle_count() != b.particle_count()) {
    return false;
  }
  for (std::size_t f = 0; f < a.frame_count(); ++f) {
    for (std::size_t s = 0; s < a.sample_count(); ++s) {
      const auto lhs = a.frames.sample(f, s);
      const auto rhs = b.frames.sample(f, s);
      if (std::memcmp(lhs.data(), rhs.data(), lhs.size_bytes()) != 0) {
        return false;
      }
    }
  }
  return true;
}

std::size_t spill_files_in(const std::string& dir) {
  std::size_t count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".spill") ++count;
  }
  return count;
}

// ---------------------------------------------------------------- policy

TEST(CoreJobPolicy, JobThreadSharesPartitionTheMachine) {
  // The shares must tile the machine budget exactly (modulo the floor at
  // one thread per job) and every slot must get at least one runner.
  EXPECT_EQ(sops::sim::resolve_job_threads(0, 2, 8), 4u);
  EXPECT_EQ(sops::sim::resolve_job_threads(1, 2, 8), 4u);
  EXPECT_EQ(sops::sim::resolve_job_threads(0, 3, 8), 3u);
  EXPECT_EQ(sops::sim::resolve_job_threads(1, 3, 8), 3u);
  EXPECT_EQ(sops::sim::resolve_job_threads(2, 3, 8), 2u);
  // More slots than threads: the floor keeps every slot runnable.
  EXPECT_EQ(sops::sim::resolve_job_threads(0, 2, 1), 1u);
  EXPECT_EQ(sops::sim::resolve_job_threads(1, 2, 1), 1u);
  EXPECT_EQ(sops::sim::resolve_job_threads(3, 4, 2), 1u);
}

// ---------------------------------------------------------- single job

TEST(CoreJobManager, SingleJobMatchesDirectRun) {
  const ConfiguredExperiment reference_config = small_job(1234);
  const EnsembleSeries reference =
      run_experiment(reference_config.experiment);
  const AnalysisResult reference_analysis =
      analyze_self_organization(reference, reference_config.analysis);

  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
  JobOptions options;
  options.analysis = JobAnalysis::kPostHoc;
  const std::uint64_t id = manager.submit(small_job(1234), options);
  const JobOutcome outcome = manager.wait(id);

  EXPECT_TRUE(stores_bitwise_equal(reference, outcome.series));
  ASSERT_TRUE(outcome.analysis.has_value());
  ASSERT_EQ(outcome.analysis->points.size(), reference_analysis.points.size());
  for (std::size_t f = 0; f < reference_analysis.points.size(); ++f) {
    EXPECT_EQ(outcome.analysis->points[f].multi_information,
              reference_analysis.points[f].multi_information);
  }

  const JobStatus status = manager.status(id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.samples_done, status.samples_total);
  EXPECT_TRUE(status.analyzed);
  EXPECT_EQ(status.delta_mi, reference_analysis.delta_mi());
}

TEST(CoreJobManager, StreamedAnalysisMatchesPostHoc) {
  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
  JobOptions post_hoc;
  post_hoc.analysis = JobAnalysis::kPostHoc;
  JobOptions streamed;
  streamed.analysis = JobAnalysis::kStreamed;
  const std::uint64_t a = manager.submit(small_job(77, 12), post_hoc);
  const JobOutcome post = manager.wait(a);
  const std::uint64_t b = manager.submit(small_job(77, 12), streamed);
  const JobOutcome live = manager.wait(b);
  ASSERT_TRUE(post.analysis.has_value());
  ASSERT_TRUE(live.analysis.has_value());
  ASSERT_EQ(post.analysis->points.size(), live.analysis->points.size());
  for (std::size_t f = 0; f < post.analysis->points.size(); ++f) {
    EXPECT_EQ(post.analysis->points[f].multi_information,
              live.analysis->points[f].multi_information);
  }
}

TEST(CoreJobManager, PerSampleEventsCoverEverySample) {
  JobManager manager(JobLimits{.machine_threads = 4, .job_slots = 1});
  std::atomic<std::size_t> samples_seen{0};
  std::atomic<std::size_t> last_done{0};
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  options.events.on_sample_done =
      [&](const sops::core::JobSampleEvent& event) {
        ++samples_seen;
        last_done.store(event.samples_done);
        // The announced sample's slots are final: reading them here, off a
        // worker thread mid-run, is part of the contract.
        EXPECT_EQ(event.series->frames.sample(0, event.local_sample).size(),
                  event.series->particle_count());
      };
  const std::uint64_t id = manager.submit(small_job(5, 10), options);
  (void)manager.wait(id);
  EXPECT_EQ(samples_seen.load(), 10u);
  EXPECT_EQ(last_done.load(), 10u);
}

// ------------------------------------------------- concurrent bit parity

TEST(CoreJobManager, TwoConcurrentJobsMatchSequentialBatchRuns) {
  // The satellite acceptance test: two jobs sharing one machine pool under
  // admission control must produce recordings and curves bitwise-identical
  // to running each config alone, sequentially, in batch.
  const ConfiguredExperiment config_a = small_job(100, 10);
  const ConfiguredExperiment config_b = small_job(200, 6, 30);
  const EnsembleSeries solo_a = run_experiment(config_a.experiment);
  const EnsembleSeries solo_b = run_experiment(config_b.experiment);
  const AnalysisResult solo_a_analysis =
      analyze_self_organization(solo_a, config_a.analysis);

  JobManager manager(JobLimits{.machine_threads = 4, .job_slots = 2});
  JobOptions streamed;
  streamed.analysis = JobAnalysis::kStreamed;
  JobOptions record_only;
  record_only.analysis = JobAnalysis::kNone;
  const std::uint64_t a = manager.submit(config_a, streamed);
  const std::uint64_t b = manager.submit(config_b, record_only);
  JobOutcome outcome_b = manager.wait(b);
  JobOutcome outcome_a = manager.wait(a);

  EXPECT_TRUE(stores_bitwise_equal(solo_a, outcome_a.series));
  EXPECT_TRUE(stores_bitwise_equal(solo_b, outcome_b.series));
  EXPECT_EQ(solo_a.equilibrium_steps, outcome_a.series.equilibrium_steps);
  ASSERT_TRUE(outcome_a.analysis.has_value());
  ASSERT_EQ(outcome_a.analysis->points.size(), solo_a_analysis.points.size());
  for (std::size_t f = 0; f < solo_a_analysis.points.size(); ++f) {
    EXPECT_EQ(outcome_a.analysis->points[f].multi_information,
              solo_a_analysis.points[f].multi_information);
  }
}

// ------------------------------------------------------------- admission

TEST(CoreJobManager, RejectsJobWhoseResidentFootprintExceedsBudget) {
  JobLimits limits;
  limits.machine_threads = 1;
  limits.job_slots = 1;
  limits.memory_budget_bytes = 1024;  // way below any heap recording
  JobManager manager(limits);

  EXPECT_THROW((void)manager.submit(small_job(1)), Error);

  // The same payload spilled to a mapped store projects to ~zero resident
  // bytes and must be admitted.
  ConfiguredExperiment mapped = small_job(1);
  mapped.experiment.storage.mode = StorageMode::kMapped;
  mapped.experiment.storage.spill_dir = ::testing::TempDir();
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  const std::uint64_t id = manager.submit(mapped, options);
  const JobOutcome outcome = manager.wait(id);
  EXPECT_EQ(outcome.series.sample_count(), 8u);
}

TEST(CoreJobManager, QueuesJobsUntilResidentBudgetFrees) {
  const ConfiguredExperiment config = small_job(9, 6);
  const std::size_t resident =
      JobManager::projected_resident_bytes(config.experiment);
  ASSERT_GT(resident, 0u);

  // Two slots but a budget that fits exactly one job: they must run one
  // after the other, and both must still complete.
  JobLimits limits;
  limits.machine_threads = 2;
  limits.job_slots = 2;
  limits.memory_budget_bytes = resident;
  JobManager manager(limits);
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  const std::uint64_t a = manager.submit(config, options);
  const std::uint64_t b = manager.submit(small_job(9, 6), options);
  const JobOutcome outcome_a = manager.wait(a);
  const JobOutcome outcome_b = manager.wait(b);
  EXPECT_TRUE(stores_bitwise_equal(outcome_a.series, outcome_b.series));
}

// ---------------------------------------------------------- cancellation

TEST(CoreJobManager, CancelQueuedJobTerminatesImmediately) {
  const ConfiguredExperiment config = small_job(3, 6);
  const std::size_t resident =
      JobManager::projected_resident_bytes(config.experiment);
  JobLimits limits;
  limits.machine_threads = 1;
  limits.job_slots = 1;
  limits.memory_budget_bytes = resident;  // second job must queue
  JobManager manager(limits);
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  const std::uint64_t running = manager.submit(config, options);
  const std::uint64_t queued = manager.submit(small_job(4, 6), options);
  EXPECT_TRUE(manager.cancel(queued));
  EXPECT_THROW((void)manager.wait(queued), CancelledError);
  EXPECT_EQ(manager.status(queued).state, JobState::kCancelled);
  (void)manager.wait(running);
  EXPECT_FALSE(manager.cancel(queued));  // already terminal
  EXPECT_FALSE(manager.cancel(999));     // unknown id
}

TEST(CoreJobManager, CancellationFuzzReclaimsEverything) {
  // Cancel at staggered points across storage modes × thread counts. At
  // every cut point: the spill directory ends empty (scratch files
  // unlinked during unwind), the manager keeps serving (slices returned),
  // and a follow-up job on the same manager still matches a solo run
  // bitwise — cancellation must never bleed into later jobs.
  const std::string spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "job_fuzz_spill")
          .string();
  std::filesystem::create_directories(spill_dir);
  const EnsembleSeries reference =
      run_experiment(small_job(42, 6).experiment);

  const std::vector<StorageMode> modes{StorageMode::kHeap,
                                       StorageMode::kMapped,
                                       StorageMode::kAuto};
  const std::vector<std::size_t> thread_counts{1, 4};
  std::size_t cut = 0;
  for (const StorageMode mode : modes) {
    for (const std::size_t threads : thread_counts) {
      JobManager manager(
          JobLimits{.machine_threads = threads, .job_slots = 2});
      // A long job: enough steps that every staggered cancel lands mid-run.
      ConfiguredExperiment victim = small_job(7, 8, 4000);
      victim.experiment.storage.mode = mode;
      victim.experiment.storage.spill_dir = spill_dir;
      victim.experiment.storage.auto_spill_bytes = 1;  // kAuto: force spill
      JobOptions options;
      options.analysis = JobAnalysis::kNone;
      const std::uint64_t id = manager.submit(victim, options);
      std::this_thread::sleep_for(std::chrono::milliseconds(1 + 7 * cut));
      ++cut;
      manager.cancel(id);
      try {
        (void)manager.wait(id);
        // The job may legitimately win the race and complete.
        EXPECT_EQ(manager.status(id).state, JobState::kDone);
      } catch (const CancelledError&) {
        EXPECT_EQ(manager.status(id).state, JobState::kCancelled);
      }
      EXPECT_EQ(spill_files_in(spill_dir), 0u)
          << "leaked spill file after cancel (mode " << static_cast<int>(mode)
          << ", threads " << threads << ")";

      // The same manager must still run a clean job to the exact
      // reference bits.
      const std::uint64_t follow_up = manager.submit(small_job(42, 6), options);
      const JobOutcome outcome = manager.wait(follow_up);
      EXPECT_TRUE(stores_bitwise_equal(reference, outcome.series));
    }
  }
  std::filesystem::remove_all(spill_dir);
}

TEST(CoreJobManager, CancelledShardKeepsValidManifestAndResumes) {
  const std::string shard_path =
      (std::filesystem::path(::testing::TempDir()) / "job_cancel.shard")
          .string();
  std::filesystem::remove(shard_path);
  std::filesystem::remove(shard_path + ".manifest");

  ConfiguredExperiment sharded = small_job(11, 10, 400);
  sharded.experiment.shard.path = shard_path;
  JobOptions options;
  options.analysis = JobAnalysis::kNone;

  {
    JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
    const std::uint64_t id = manager.submit(sharded, options);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    manager.cancel(id);
    try {
      (void)manager.wait(id);
    } catch (const CancelledError&) {
    }
  }

  // Whatever the cancel left behind, a resume must complete the shard and
  // match an uninterrupted run bitwise — the manifest only ever marks
  // samples whose bytes reached disk.
  ConfiguredExperiment resumed_config = sharded;
  resumed_config.experiment.shard.resume = true;
  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
  const std::uint64_t id = manager.submit(resumed_config, options);
  const JobOutcome resumed = manager.wait(id);

  ConfiguredExperiment reference_config = small_job(11, 10, 400);
  const EnsembleSeries reference =
      run_experiment(reference_config.experiment);
  EXPECT_TRUE(stores_bitwise_equal(reference, resumed.series));

  std::filesystem::remove(shard_path);
  std::filesystem::remove(shard_path + ".manifest");
}

TEST(CoreJobManager, ShutdownTokenCancelsRunningJobs) {
  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 2});
  JobOptions options;
  options.analysis = JobAnalysis::kNone;
  const std::uint64_t id = manager.submit(small_job(2, 8, 4000), options);
  manager.shutdown_token().request();  // what a SIGINT handler does
  EXPECT_THROW((void)manager.wait(id), CancelledError);
}

// ---------------------------------------------- terminal-event contract

// What each job's terminal on_state_change got back when it called wait()
// on its own job: "outcome", "cancelled: <why>" or "error: <why>".
struct TerminalWaits {
  std::mutex mutex;
  std::condition_variable cv;
  std::map<std::uint64_t, std::string> seen;
};

JobOptions wait_in_terminal_event(JobManager* manager, TerminalWaits* waits) {
  JobOptions options;
  options.analysis = JobAnalysis::kPostHoc;
  options.events.on_state_change = [manager, waits](const JobStatus& status) {
    if (!sops::core::is_terminal(status.state)) return;
    std::string result;
    try {
      const JobOutcome outcome = manager->wait(status.id);
      result = outcome.analysis.has_value() ? "outcome" : "outcome (none)";
    } catch (const CancelledError& cancelled) {
      result = std::string("cancelled: ") + cancelled.what();
    } catch (const Error& error) {
      result = std::string("error: ") + error.what();
    }
    {
      const std::lock_guard<std::mutex> lock(waits->mutex);
      waits->seen[status.id] = result;
    }
    waits->cv.notify_all();
  };
  return options;
}

// The result job `id`'s terminal event recorded; "<none>" if it never did
// within a minute (a deadlocked wait()).
std::string terminal_wait_of(TerminalWaits& waits, std::uint64_t id) {
  std::unique_lock<std::mutex> lock(waits.mutex);
  waits.cv.wait_for(lock, std::chrono::seconds(60),
                    [&] { return waits.seen.count(id) > 0; });
  return waits.seen.count(id) > 0 ? waits.seen[id] : "<none>";
}

TEST(CoreJobManager, TerminalEventMayWaitOnItsOwnJob) {
  TerminalWaits waits;
  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
  const JobOptions options = wait_in_terminal_event(&manager, &waits);

  // Done: the terminal event takes the outcome, so it is gone afterwards.
  const std::uint64_t done = manager.submit(small_job(5), options);
  EXPECT_EQ(terminal_wait_of(waits, done), "outcome");
  EXPECT_THROW((void)manager.wait(done), Error);

  // Failed: the job's named error.
  const std::uint64_t failed = manager.submit(small_job(5, 0), options);
  const std::string failure = terminal_wait_of(waits, failed);
  EXPECT_EQ(failure.rfind("error: ", 0), 0u) << failure;
  EXPECT_NE(failure.find("at least 1 sample"), std::string::npos) << failure;

  // Cancelled while queued behind a long job: the event fires on the
  // cancelling thread, inside cancel().
  const std::uint64_t running = manager.submit(small_job(7, 8, 4000), options);
  const std::uint64_t queued = manager.submit(small_job(6, 4), options);
  EXPECT_TRUE(manager.cancel(queued));
  EXPECT_EQ(terminal_wait_of(waits, queued),
            "cancelled: job cancelled while queued");
  manager.cancel(running);
  const std::string stopped = terminal_wait_of(waits, running);
  EXPECT_TRUE(stopped.rfind("cancelled: ", 0) == 0 || stopped == "outcome")
      << stopped;
}

TEST(CoreJobManager, TerminalEventMayWaitDuringManagerDestruction) {
  TerminalWaits waits;  // outlives the manager and its last callbacks
  std::uint64_t running = 0;
  std::uint64_t queued = 0;
  {
    JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
    const JobOptions options = wait_in_terminal_event(&manager, &waits);
    running = manager.submit(small_job(7, 8, 4000), options);
    queued = manager.submit(small_job(6, 4), options);
  }
  EXPECT_EQ(terminal_wait_of(waits, queued),
            "cancelled: job cancelled: manager shutting down");
  const std::string stopped = terminal_wait_of(waits, running);
  EXPECT_TRUE(stopped.rfind("cancelled: ", 0) == 0 || stopped == "outcome")
      << stopped;
}

// --------------------------------------------------------- serialization

TEST(CoreJobSerialization, SampleCsvIsTheExactRecordedGrid) {
  const EnsembleSeries series = run_experiment(small_job(8, 4).experiment);
  const std::string csv = sops::core::sample_recording_csv(series, 2);
  // Header plus one row per (frame, particle).
  const std::size_t rows =
      static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
  EXPECT_EQ(rows, 1 + series.frame_count() * series.particle_count());
  EXPECT_EQ(csv.rfind("frame,step,particle,x,y\n", 0), 0u);
  // Spot-check the first data row against the store, max precision.
  char expected[128];
  const auto positions = series.frames.sample(0, 2);
  std::snprintf(expected, sizeof expected, "%zu,%zu,%zu,%.17g,%.17g\n",
                std::size_t{0}, series.frame_steps[0], std::size_t{0},
                positions[0].x, positions[0].y);
  EXPECT_NE(csv.find(expected), std::string::npos);
}

TEST(CoreJobSerialization, StatusJsonEscapesAndRoundsTrip) {
  JobStatus status;
  status.id = 7;
  status.state = JobState::kFailed;
  status.samples_done = 3;
  status.samples_total = 9;
  status.error = "bad \"path\"\nline2";
  const std::string json = sops::core::job_status_json(status);
  EXPECT_NE(json.find("\"id\":7"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"failed\""), std::string::npos);
  EXPECT_NE(json.find("\\\"path\\\""), std::string::npos);
  EXPECT_NE(json.find("\\n"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos) << "must stay one line";
}

TEST(CoreJobSerialization, FootprintProjection) {
  const ConfiguredExperiment config = small_job(1, 8, 20);
  const std::size_t n = config.experiment.simulation.types.size();
  // steps=20, stride=10 → frames {0, 10, 20} = 3 recorded frames.
  const std::size_t expected = 3 * 8 * n * sizeof(sops::geom::Vec2);
  EXPECT_EQ(JobManager::projected_payload_bytes(config.experiment), expected);
  EXPECT_EQ(JobManager::projected_resident_bytes(config.experiment), expected);

  ConfiguredExperiment mapped = config;
  mapped.experiment.storage.mode = StorageMode::kMapped;
  EXPECT_EQ(JobManager::projected_resident_bytes(mapped.experiment), 0u);

  ConfiguredExperiment sharded = config;
  sharded.experiment.shard.path = "x.shard";
  sharded.experiment.shard.index = 1;
  sharded.experiment.shard.count = 3;
  // Shard: slots chunk_range(1, 8, 3) → 3 samples, resident-free.
  EXPECT_EQ(JobManager::projected_payload_bytes(sharded.experiment),
            3 * 3 * n * sizeof(sops::geom::Vec2));
  EXPECT_EQ(JobManager::projected_resident_bytes(sharded.experiment), 0u);
}

}  // namespace
