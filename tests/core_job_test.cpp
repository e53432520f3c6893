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
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
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

// ------------------------------------------------- reading while recording

// A streaming reader of one job, shaped like sopsd's log: each announced
// sample is queued by index, with a shared handle on the recording taken at
// the first announcement, and a reader thread encodes each sample as it
// arrives — off the sample workers, while later samples still record.
// `cancel_after` > 0 cancels the job once that many samples are encoded.
class SampleReader {
 public:
  SampleReader(JobManager* manager, std::size_t cancel_after)
      : manager_(manager), cancel_after_(cancel_after) {}
  ~SampleReader() { stop(); }

  JobOptions options() {
    JobOptions options;
    options.analysis = JobAnalysis::kNone;
    options.events.on_sample_done =
        [this](const sops::core::JobSampleEvent& event) {
          {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (recording_.frames.empty()) {
              recording_.frame_steps = event.series->frame_steps;
              recording_.frames = event.series->frames.share();
            }
            announced_.push_back(event.local_sample);
          }
          cv_.notify_all();
        };
    return options;
  }

  void start(std::uint64_t id) {
    thread_ = std::thread([this, id] {
      for (std::size_t read = 0;; ++read) {
        std::size_t sample = 0;
        {
          std::unique_lock<std::mutex> lock(mutex_);
          cv_.wait(lock, [&] { return read < announced_.size() || stopped_; });
          if (read == announced_.size()) return;
          sample = announced_[read];
        }
        live_[sample] = sops::core::sample_recording_csv(recording_, sample);
        if (live_.size() == cancel_after_) manager_->cancel(id);
      }
    });
  }

  /// Joins the reader once every announced sample is encoded.
  void stop() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// After stop(): what the reader encoded live, by sample.
  const std::map<std::size_t, std::string>& live() const { return live_; }
  const EnsembleSeries& recording() const { return recording_; }

 private:
  JobManager* manager_;
  std::size_t cancel_after_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::size_t> announced_;  // guarded by mutex_
  EnsembleSeries recording_;  // set once, under mutex_, before announced_
  bool stopped_ = false;      // guarded by mutex_
  std::map<std::size_t, std::string> live_;  // reader thread's own
  std::thread thread_;
};

TEST(CoreJobManager, SamplesEncodeWhileRecordingAndAfterWait) {
  const ConfiguredExperiment config = small_job(404, 12, 200);
  const EnsembleSeries batch = run_experiment(config.experiment);

  JobManager manager(JobLimits{.machine_threads = 4, .job_slots = 1});
  SampleReader reader(&manager, 0);
  const std::uint64_t id = manager.submit(config, reader.options());
  reader.start(id);
  {
    const JobOutcome outcome = manager.wait(id);
    EXPECT_TRUE(stores_bitwise_equal(batch, outcome.series));
  }  // the job's own series is gone; the reader's handle is not
  reader.stop();

  ASSERT_EQ(reader.live().size(), batch.sample_count());
  for (const auto& [sample, csv] : reader.live()) {
    const std::string expected = sops::core::sample_recording_csv(batch, sample);
    EXPECT_EQ(csv, expected) << "sample " << sample << " while recording";
    EXPECT_EQ(sops::core::sample_recording_csv(reader.recording(), sample),
              expected)
        << "sample " << sample << " after wait()";
  }
}

TEST(CoreJobManager, CancelledJobsAnnouncedSamplesStayReadable) {
  // Cancelled once two samples are encoded: the run unwinds and drops its
  // series, and the samples it announced still encode to the batch bytes.
  const ConfiguredExperiment config = small_job(405, 16, 2000);
  const EnsembleSeries batch = run_experiment(config.experiment);

  JobManager manager(JobLimits{.machine_threads = 2, .job_slots = 1});
  SampleReader reader(&manager, 2);
  const std::uint64_t id = manager.submit(config, reader.options());
  reader.start(id);
  try {
    (void)manager.wait(id);
  } catch (const CancelledError&) {
  }
  reader.stop();

  EXPECT_EQ(manager.status(id).state, JobState::kCancelled);
  EXPECT_GE(reader.live().size(), 2u);
  EXPECT_LT(reader.live().size(), batch.sample_count());
  for (const auto& [sample, csv] : reader.live()) {
    const std::string expected = sops::core::sample_recording_csv(batch, sample);
    EXPECT_EQ(csv, expected) << "sample " << sample << " while recording";
    EXPECT_EQ(sops::core::sample_recording_csv(reader.recording(), sample),
              expected)
        << "sample " << sample << " after the job ended";
  }
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

// The encoder as it stood before std::to_chars, frozen: every sample CSV
// ever streamed or saved was written with these bytes.
std::string snprintf_sample_csv(const EnsembleSeries& series,
                                std::size_t local_sample) {
  std::string out = "frame,step,particle,x,y\n";
  char row[128];
  for (std::size_t f = 0; f < series.frame_count(); ++f) {
    const auto positions = series.frames.sample(f, local_sample);
    for (std::size_t p = 0; p < positions.size(); ++p) {
      std::snprintf(row, sizeof row, "%zu,%zu,%zu,%.17g,%.17g\n", f,
                    series.frame_steps[f], p, positions[p].x, positions[p].y);
      out += row;
    }
  }
  return out;
}

TEST(CoreJobSerialization, SampleCsvMatchesFrozenSnprintfEncoder) {
  using Limits = std::numeric_limits<double>;
  std::vector<double> values{
      0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 1e-4, 1e-5,
      9.9999999999999995e-5, 123456.789, 1e15, 1e16, -1e16,
      std::nextafter(1e16, 0.0), std::nextafter(1e16, 1e17), 1e17, -1e17,
      std::nextafter(1e17, 0.0), std::nextafter(1e17, 1e18),
      9007199254740993.0, 12345678901234567.0, 1e300, 1e-300,
      Limits::denorm_min(), -Limits::denorm_min(), Limits::min(),
      std::nextafter(Limits::min(), 0.0), Limits::max(), -Limits::max(),
      Limits::epsilon(), Limits::infinity(), -Limits::infinity(),
      Limits::quiet_NaN(), -Limits::quiet_NaN(), Limits::signaling_NaN()};
  // Random bit patterns: every exponent, both signs, NaN payloads.
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 20000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    double value = 0.0;
    std::memcpy(&value, &state, sizeof value);
    values.push_back(value);
  }
  // Positions of the magnitude recordings hold.
  for (int i = 0; i < 2000; ++i) {
    values.push_back(60.0 * (static_cast<double>(i) / 2000.0) - 30.0 +
                     1e-9 * static_cast<double>(i % 7));
  }

  constexpr std::size_t kFrames = 3;
  constexpr std::size_t kSamples = 2;
  const std::size_t particles = (values.size() + 1) / 2;
  EnsembleSeries series;
  series.types.assign(particles, 0);
  series.frame_steps = {0, 7, std::numeric_limits<std::size_t>::max()};
  series.frames = sops::core::FrameStore(kFrames, kSamples, particles);
  for (std::size_t f = 0; f < kFrames; ++f) {
    for (std::size_t s = 0; s < kSamples; ++s) {
      const auto slot = series.frames.sample_slot(f, s);
      for (std::size_t p = 0; p < particles; ++p) {
        // Rotate the values through frames and samples, so each lands in
        // both columns.
        const std::size_t k = (2 * p + f + 3 * s) % values.size();
        slot[p] = {values[k], values[(k + 1) % values.size()]};
      }
    }
  }
  for (std::size_t s = 0; s < kSamples; ++s) {
    const std::string encoded = sops::core::sample_recording_csv(series, s);
    const std::string frozen = snprintf_sample_csv(series, s);
    // Byte equality, reported by its first differing line (the texts run
    // to megabytes).
    const auto [lhs, rhs] = std::mismatch(encoded.begin(), encoded.end(),
                                          frozen.begin(), frozen.end());
    const auto line_of = [](const std::string& text, auto at) {
      const std::size_t pos = static_cast<std::size_t>(at - text.begin());
      const std::size_t begin = text.rfind('\n', pos == 0 ? 0 : pos - 1);
      const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
      return text.substr(from, text.find('\n', pos) - from);
    };
    EXPECT_TRUE(encoded == frozen)
        << "sample " << s << ": to_chars wrote '" << line_of(encoded, lhs)
        << "', snprintf wrote '" << line_of(frozen, rhs) << "'";
  }
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
