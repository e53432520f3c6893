#include "core/job_manager.hpp"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <span>
#include <utility>

#include "sim/parallel_policy.hpp"
#include "support/error.hpp"

namespace sops::core {
namespace {

/// Forwarding observer the job driver installs on every run: passes the
/// frame-level stream through to the job's analyzer (when one is attached)
/// and turns the per-sample boundary into the manager's progress/streaming
/// event, with the live series in hand.
class JobRunObserver final : public RecordingObserver {
 public:
  JobRunObserver(RecordingObserver* inner,
                 std::function<void(const EnsembleSeries&)> on_start,
                 std::function<void(std::size_t, const EnsembleSeries&)>
                     on_sample)
      : inner_(inner),
        on_start_(std::move(on_start)),
        on_sample_(std::move(on_sample)) {}

  void on_recording_started(const EnsembleSeries& series) override {
    series_ = &series;
    if (on_start_) on_start_(series);
    if (inner_ != nullptr) inner_->on_recording_started(series);
  }

  void on_frames_recorded(std::size_t begin_frame, std::size_t end_frame,
                          std::size_t local_sample) override {
    if (inner_ != nullptr) {
      inner_->on_frames_recorded(begin_frame, end_frame, local_sample);
    }
  }

  void on_sample_recorded(std::size_t local_sample) override {
    if (inner_ != nullptr) inner_->on_sample_recorded(local_sample);
    if (on_sample_) on_sample_(local_sample, *series_);
  }

 private:
  RecordingObserver* inner_;
  const EnsembleSeries* series_ = nullptr;
  std::function<void(const EnsembleSeries&)> on_start_;
  std::function<void(std::size_t, const EnsembleSeries&)> on_sample_;
};

/// Local sample-slot count of a config: the shard's slice when sharding is
/// on, the whole ensemble otherwise — mirrors run_experiment's slot math.
std::size_t local_samples(const ExperimentConfig& config) {
  if (config.shard.path.empty()) return config.samples;
  const support::ChunkRange slots = support::chunk_range(
      config.shard.index, config.samples, config.shard.count);
  return slots.end - slots.begin;
}

void append_json_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Writes `value` (std::to_chars, `format` forwarded) and then `separator`
/// at `it`, inside a buffer ending at `end`; returns the next free byte.
template <typename T, typename... Format>
char* put_field(char* it, char* end, char separator, T value,
                Format... format) {
  char* const value_end = std::to_chars(it, end - 1, value, format...).ptr;
  *value_end = separator;
  return value_end + 1;
}

}  // namespace

const char* to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kAdmitted: return "admitted";
    case JobState::kRunning: return "running";
    case JobState::kStreaming: return "streaming";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

/// Everything the manager tracks per job. Entries are append-only and live
/// until the manager is destroyed, so driver/observer threads may hold
/// plain pointers across unlocked sections.
struct JobManager::Job {
  Job(std::uint64_t id_, ConfiguredExperiment configured_, JobOptions options_,
      const support::CancelToken* root)
      : id(id_),
        configured(std::move(configured_)),
        options(std::move(options_)),
        token(root) {}

  const std::uint64_t id;
  ConfiguredExperiment configured;
  JobOptions options;
  support::CancelToken token;  // chained to the manager's shutdown root

  // Guarded by JobManager::mutex_.
  JobState state = JobState::kQueued;
  std::size_t samples_done = 0;
  std::size_t samples_total = 0;
  std::size_t payload_bytes = 0;
  std::size_t resident_bytes = 0;
  bool resident_charged = false;
  std::string error;
  std::string flush_error;
  bool analyzed = false;
  double delta_mi = 0.0;
  bool outcome_taken = false;
  std::optional<JobOutcome> outcome;
};

JobManager::JobManager(JobLimits limits) : limits_(limits) {
  if (limits_.machine_threads == 0) {
    limits_.machine_threads = support::default_thread_count();
  }
  if (limits_.job_slots == 0) limits_.job_slots = 1;

  // Carve the machine budget once: slot j's share is resolve_job_threads,
  // of which one runner is the slot's driver thread — so the pool only
  // needs the shares' worker remainders, and the slices are disjoint by
  // the same prefix-sum arithmetic run_partitioned uses inside a job.
  std::vector<std::size_t> shares(limits_.job_slots);
  std::size_t workers_total = 0;
  for (std::size_t j = 0; j < limits_.job_slots; ++j) {
    shares[j] = sim::resolve_job_threads(j, limits_.job_slots,
                                         limits_.machine_threads);
    workers_total += shares[j] - 1;
  }
  pool_ = std::make_unique<support::TaskPool>(workers_total + 1);
  slices_.reserve(limits_.job_slots);
  std::size_t first = 0;
  for (std::size_t j = 0; j < limits_.job_slots; ++j) {
    slices_.push_back(support::slice_of(*pool_, first, shares[j] - 1));
    first += shares[j] - 1;
  }

  drivers_.reserve(limits_.job_slots);
  for (std::size_t j = 0; j < limits_.job_slots; ++j) {
    drivers_.emplace_back([this, j] { drive(j); });
  }
}

JobManager::~JobManager() {
  shutdown_.request();
  std::vector<Job*> queued;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
    for (const std::uint64_t id : queue_) {
      Job* job = find_locked(id);
      if (job != nullptr) {
        job->error = "job cancelled: manager shutting down";
        queued.push_back(job);
      }
    }
    queue_.clear();
  }
  for (Job* job : queued) set_state(*job, JobState::kCancelled);
  cv_.notify_all();
  for (std::thread& driver : drivers_) driver.join();
  // pool_ outlives the joined drivers (member order), so no slice is ever
  // dangling while a job could still dispatch on it.
}

std::uint64_t JobManager::submit(ConfiguredExperiment configured,
                                 JobOptions options) {
  const std::size_t payload = projected_payload_bytes(configured.experiment);
  const std::size_t resident = projected_resident_bytes(configured.experiment);
  if (resident > limits_.memory_budget_bytes) {
    throw Error("JobManager::submit: projected resident recording of " +
                std::to_string(resident) + " bytes exceeds the memory budget (" +
                std::to_string(limits_.memory_budget_bytes) +
                " bytes); spill it with frame_storage = mapped");
  }

  Job* job = nullptr;
  JobStatus snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      throw Error("JobManager::submit: manager is shutting down");
    }
    auto owned = std::make_unique<Job>(next_id_++, std::move(configured),
                                       std::move(options), &shutdown_);
    job = owned.get();
    job->samples_total = local_samples(job->configured.experiment);
    job->payload_bytes = payload;
    job->resident_bytes = resident;
    queue_.push_back(job->id);
    jobs_.push_back(std::move(owned));
    snapshot = snapshot_locked(*job);
  }
  cv_.notify_all();
  if (job->options.events.on_state_change) {
    job->options.events.on_state_change(snapshot);
  }
  return job->id;
}

bool JobManager::cancel(std::uint64_t id) {
  Job* job = nullptr;
  bool was_queued = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job = find_locked(id);
    if (job == nullptr || is_terminal(job->state)) return false;
    if (job->state == JobState::kQueued) {
      queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                   queue_.end());
      job->error = "job cancelled while queued";
      was_queued = true;
    }
    job->token.request();
  }
  // A queued job has no driver to transition it; a running one drains at
  // its next poll point and its driver records the terminal state.
  if (was_queued) set_state(*job, JobState::kCancelled);
  return true;
}

JobStatus JobManager::status(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const Job* job = find_locked(id);
  if (job == nullptr) {
    throw Error("JobManager::status: unknown job id " + std::to_string(id));
  }
  return snapshot_locked(*job);
}

std::vector<JobStatus> JobManager::statuses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<JobStatus> out;
  out.reserve(jobs_.size());
  for (const auto& job : jobs_) out.push_back(snapshot_locked(*job));
  return out;
}

JobOutcome JobManager::wait(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  Job* job = find_locked(id);
  if (job == nullptr) {
    throw Error("JobManager::wait: unknown job id " + std::to_string(id));
  }
  cv_.wait(lock, [&] { return is_terminal(job->state); });
  if (job->state == JobState::kCancelled) {
    throw CancelledError(job->error.empty() ? "job cancelled" : job->error);
  }
  if (job->state == JobState::kFailed) throw Error(job->error);
  if (job->outcome_taken || !job->outcome.has_value()) {
    throw Error("JobManager::wait: outcome of job " + std::to_string(id) +
                " was already taken");
  }
  job->outcome_taken = true;
  JobOutcome outcome = std::move(*job->outcome);
  job->outcome.reset();
  return outcome;
}

std::size_t JobManager::projected_payload_bytes(const ExperimentConfig& config) {
  const std::size_t frames =
      sim::recording_steps(config.simulation.steps,
                           config.simulation.record_stride)
          .size();
  return frames * local_samples(config) * config.simulation.types.size() *
         sizeof(geom::Vec2);
}

std::size_t JobManager::projected_resident_bytes(
    const ExperimentConfig& config) {
  // Shard recordings are always mapped to their durable file; a mapped (or
  // auto-spilling) scratch store drops finished extents from the resident
  // set as it goes. Only a heap-resident recording holds its payload in
  // RAM for the whole run.
  if (!config.shard.path.empty()) return 0;
  const std::size_t payload = projected_payload_bytes(config);
  switch (config.storage.mode) {
    case StorageMode::kMapped: return 0;
    case StorageMode::kAuto:
      return payload >= config.storage.auto_spill_bytes ? 0 : payload;
    case StorageMode::kHeap: break;
  }
  return payload;
}

void JobManager::drive(std::size_t slot) {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        // FIFO-with-skip admission: the oldest queued job whose resident
        // charge fits under the budget next to everything already running.
        for (std::size_t i = 0; i < queue_.size(); ++i) {
          Job* candidate = find_locked(queue_[i]);
          if (candidate == nullptr) continue;
          if (resident_bytes_ + candidate->resident_bytes <=
              limits_.memory_budget_bytes) {
            queue_.erase(queue_.begin() +
                         static_cast<std::ptrdiff_t>(i));
            job = candidate;
            break;
          }
        }
        if (job != nullptr) break;
        if (shutting_down_) return;
        // wait_for, not wait: a signal handler raising the shutdown token
        // cannot notify a condition variable, so drivers poll.
        cv_.wait_for(lock, std::chrono::milliseconds(100));
      }
      job->state = JobState::kAdmitted;
      job->resident_charged = true;
      resident_bytes_ += job->resident_bytes;
    }
    cv_.notify_all();
    {
      JobStatus snapshot;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        snapshot = snapshot_locked(*job);
      }
      if (job->options.events.on_state_change) {
        job->options.events.on_state_change(snapshot);
      }
    }
    run_job(*job, slot);
  }
}

void JobManager::run_job(Job& job, std::size_t slot) {
  set_state(job, JobState::kRunning);

  // Declaration order matters: `outcome` (owning the frame store) before
  // `analyzer`, so the analyzer — whose destructor joins a consumer that
  // reads views into that store — is destroyed first on every exit path.
  JobOutcome outcome;
  std::optional<StreamingAnalyzer> analyzer;
  if (job.options.analysis == JobAnalysis::kStreamed) {
    analyzer.emplace(job.configured.analysis, &job.token);
  }

  JobRunObserver observer(
      analyzer.has_value() ? &*analyzer : nullptr,
      [&](const EnsembleSeries& series) {
        // Resumed shard samples never replay on_sample_recorded; count
        // them up front so progress reflects the whole slot range.
        if (series.resumed_samples == 0) return;
        const std::lock_guard<std::mutex> lock(mutex_);
        job.samples_done = series.resumed_samples;
      },
      [&](std::size_t local_sample, const EnsembleSeries& series) {
        note_sample(job, local_sample, series);
      });

  ExperimentConfig config = job.configured.experiment;
  config.observer = &observer;
  config.cancel = &job.token;
  config.pool = &slices_[slot];

  try {
    outcome.series = run_experiment(config);
    const std::string flush_error = outcome.series.frames.flush_error();
    if (!flush_error.empty()) {
      // A failed spill flush means the recording on disk is not what the
      // run computed — that is a failed job, not a successful one with a
      // warning buried in a log line.
      throw Error("job " + std::to_string(job.id) +
                  ": recording flush failed: " + flush_error);
    }
    if (job.options.analysis == JobAnalysis::kStreamed) {
      set_state(job, JobState::kStreaming);
      outcome.analysis = analyzer->finish();
    } else if (job.options.analysis == JobAnalysis::kPostHoc) {
      set_state(job, JobState::kStreaming);
      support::CancelToken::check(&job.token,
                                  "job cancelled before analysis");
      outcome.analysis =
          analyze_self_organization(outcome.series, job.configured.analysis);
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (outcome.analysis.has_value()) {
        job.analyzed = true;
        job.delta_mi = outcome.analysis->delta_mi();
      }
      job.outcome.emplace(std::move(outcome));
    }
    set_state(job, JobState::kDone);
  } catch (const CancelledError& cancelled) {
    if (analyzer.has_value()) analyzer->abort();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.error = cancelled.what();
    }
    set_state(job, JobState::kCancelled);
  } catch (const std::exception& failure) {
    if (analyzer.has_value()) analyzer->abort();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.error = failure.what();
    }
    set_state(job, JobState::kFailed);
  }
}

void JobManager::set_state(Job& job, JobState state) {
  JobStatus snapshot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    job.state = state;
    if (is_terminal(state) && job.resident_charged) {
      resident_bytes_ -= job.resident_bytes;
      job.resident_charged = false;
    }
    snapshot = snapshot_locked(job);
  }
  cv_.notify_all();
  if (job.options.events.on_state_change) {
    job.options.events.on_state_change(snapshot);
  }
}

void JobManager::note_sample(Job& job, std::size_t local_sample,
                             const EnsembleSeries& series) {
  JobSampleEvent event;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++job.samples_done;
    const std::string flush_error = series.frames.flush_error();
    if (!flush_error.empty()) job.flush_error = flush_error;
    event.job = job.id;
    event.local_sample = local_sample;
    event.samples_done = job.samples_done;
    event.samples_total = job.samples_total;
    event.equilibrium_step = series.equilibrium_steps[local_sample];
    event.series = &series;
  }
  if (job.options.events.on_sample_done) {
    job.options.events.on_sample_done(event);
  }
}

JobStatus JobManager::snapshot_locked(const Job& job) const {
  JobStatus status;
  status.id = job.id;
  status.state = job.state;
  status.samples_done = job.samples_done;
  status.samples_total = job.samples_total;
  status.payload_bytes = job.payload_bytes;
  status.resident_bytes = job.resident_bytes;
  status.error = job.error;
  status.flush_error = job.flush_error;
  status.analyzed = job.analyzed;
  status.delta_mi = job.delta_mi;
  return status;
}

JobManager::Job* JobManager::find_locked(std::uint64_t id) noexcept {
  // Ids are assigned 1, 2, … in submission order, so the append-only list
  // is indexable directly.
  if (id == 0 || id > jobs_.size()) return nullptr;
  return jobs_[id - 1].get();
}

const JobManager::Job* JobManager::find_locked(std::uint64_t id) const noexcept {
  if (id == 0 || id > jobs_.size()) return nullptr;
  return jobs_[id - 1].get();
}

std::string sample_recording_csv(const EnsembleSeries& series,
                                 std::size_t local_sample) {
  std::string out;
  append_sample_recording_csv(out, series, local_sample);
  return out;
}

void append_sample_recording_csv(std::string& out, const EnsembleSeries& series,
                                 std::size_t local_sample) {
  support::expect(local_sample < series.sample_count(),
                  "sample_recording_csv: sample out of range");
  out += "frame,step,particle,x,y\n";
  // std::to_chars with chars_format::general and precision 17 is printf's
  // "%.17g" (the standard defines it so), inf and nan spellings included —
  // the bytes every earlier recording was written with — at a fraction of
  // snprintf's cost.
  char row[128];  // three 20-digit indices, two 24-char doubles, separators
  char* const end = row + sizeof row;
  for (std::size_t f = 0; f < series.frame_count(); ++f) {
    const std::span<const geom::Vec2> positions =
        series.frames.sample(f, local_sample);
    char* const prefix_end =
        put_field(put_field(row, end, ',', f), end, ',', series.frame_steps[f]);
    for (std::size_t p = 0; p < positions.size(); ++p) {
      char* it = put_field(prefix_end, end, ',', p);
      it = put_field(it, end, ',', positions[p].x, std::chars_format::general,
                     17);
      it = put_field(it, end, '\n', positions[p].y,
                     std::chars_format::general, 17);
      out.append(row, it);
    }
  }
}

io::CsvTable analysis_csv_table(const AnalysisResult& result,
                                bool with_entropies) {
  io::CsvTable table;
  table.header = {"t", "multi_information_bits"};
  if (with_entropies) {
    table.header.push_back("joint_entropy_bits");
    table.header.push_back("marginal_entropy_sum_bits");
  }
  for (const TimePoint& point : result.points) {
    std::vector<double> row{static_cast<double>(point.step),
                            point.multi_information};
    if (with_entropies) {
      row.push_back(point.joint_entropy);
      row.push_back(point.marginal_entropy_sum);
    }
    table.add_row(std::move(row));
  }
  return table;
}

std::string job_status_json(const JobStatus& status) {
  char buffer[256];
  std::string out = "{\"id\":";
  out += std::to_string(status.id);
  out += ",\"state\":\"";
  out += to_string(status.state);
  out += "\",\"samples_done\":";
  out += std::to_string(status.samples_done);
  out += ",\"samples_total\":";
  out += std::to_string(status.samples_total);
  out += ",\"payload_bytes\":";
  out += std::to_string(status.payload_bytes);
  out += ",\"resident_bytes\":";
  out += std::to_string(status.resident_bytes);
  out += ",\"analyzed\":";
  out += status.analyzed ? "true" : "false";
  if (status.analyzed) {
    std::snprintf(buffer, sizeof buffer, ",\"delta_mi_bits\":%.17g",
                  status.delta_mi);
    out += buffer;
  }
  out += ",\"error\":";
  append_json_string(out, status.error);
  out += ",\"flush_error\":";
  append_json_string(out, status.flush_error);
  out += "}";
  return out;
}

}  // namespace sops::core
