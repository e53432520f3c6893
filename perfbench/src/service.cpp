// The service-mix workload: a spawned `sopsd --threads 4 --slots 2` driven
// over its unix socket by a closed loop of two clients. Each client submits
// a job, watches it to job_done, then submits the next; jobs alternate
// between small spring collectives and fig4 ensembles. After every fourth
// job a third connection late-watches that finished job, so the daemon's
// replay path runs beside live streaming. This is the only workload that
// loads the `core` job manager's multi-slot scheduling, the `io` frame and
// CSV path, and the daemon's memory growth with job history.
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/config_builder.hpp"
#include "io/config.hpp"
#include "io/csv.hpp"
#include "io/frame_protocol.hpp"
#include "runner.hpp"
#include "support/error.hpp"
#include "yardstick.hpp"

extern char** environ;

namespace perfbench {

namespace core = sops::core;
namespace io = sops::io;

namespace {

// The run is cut into rounds of closed-loop traffic. Between rounds, with
// the daemon idle, the yardstick runs and set-up is timed again, so both
// see the host as it was across the whole run, not only at its start.
constexpr std::size_t kRounds = 8;
constexpr int kYardstickPiecesPerGap = 9;
constexpr int kSetupsPerGap = 2;
constexpr std::size_t kThreads = 4;
constexpr std::size_t kSlots = 2;
constexpr std::size_t kClients = 2;
constexpr std::uint64_t kReplayEvery = 4;
// The daemon keeps every job's frames for late watchers, so its memory
// grows with the jobs it has served; its peak is read once this many jobs
// are done, which every run reaches, so that run speed does not decide it.
constexpr std::size_t kRssAfterJobs = 16;

/// One running `sopsd`. Stopping sends SIGTERM — the daemon drains and
/// exits — and waits for it.
class Daemon {
 public:
  Daemon(const std::string& socket_path, const std::string& spill_dir) {
    std::filesystem::remove(socket_path);
    const std::string threads = std::to_string(kThreads);
    const std::string slots = std::to_string(kSlots);
    const char* argv[] = {PERFBENCH_SOPSD, "--socket", socket_path.c_str(),
                          "--threads", threads.c_str(), "--slots", slots.c_str(),
                          "--spill-dir", spill_dir.c_str(), nullptr};
    // The daemon's log goes to stderr: stdout ends with the result line.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int error = posix_spawn(&pid_, PERFBENCH_SOPSD, &actions, nullptr,
                                  const_cast<char* const*>(argv), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (error != 0) throw sops::Error("cannot spawn sopsd");
    // Ready once a connection is accepted (the probe sends nothing; the
    // daemon closes it on EOF).
    const auto give_up = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      try {
        ::close(io::connect_unix(socket_path));
        return;
      } catch (const sops::Error&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw sops::Error("sopsd exited before accepting connections");
        }
        if (Clock::now() > give_up) {
          stop();
          throw sops::Error("sopsd did not accept connections within 20 s");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] int pid() const noexcept { return pid_; }

  /// Stops the daemon; returns the CPU seconds it used over its lifetime
  /// (0 when it had already gone).
  double stop() noexcept {
    if (pid_ <= 0) return 0.0;
    ::kill(pid_, SIGTERM);
    int status = 0;
    rusage usage{};
    while (::wait4(pid_, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    pid_ = -1;
    return cpu_seconds(usage);
  }

 private:
  pid_t pid_ = -1;
};

struct Connection {
  explicit Connection(const std::string& socket_path)
      : fd(io::connect_unix(socket_path)) {
    // A daemon that stops answering fails the job instead of hanging the run.
    const timeval timeout{60, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  }
  ~Connection() { ::close(fd); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  const int fd;
};

std::uint64_t submit(const std::string& socket_path, const std::string& text) {
  const Connection connection(socket_path);
  io::write_frame(connection.fd, io::FrameType::kSubmit, text);
  const auto reply = io::read_frame(connection.fd);
  if (!reply.has_value() || reply->type != io::FrameType::kSubmitted) {
    throw sops::Error("submit refused: " + (reply ? reply->payload : "closed"));
  }
  return std::stoull(reply->payload);
}

/// Everything one watch stream delivered, stamped against `start`.
struct Watched {
  bool done = false;  ///< terminal state "done"
  double running_s = -1.0;
  double streaming_s = -1.0;
  double first_sample_s = -1.0;
  double done_s = -1.0;
  std::size_t frames = 0;
  std::size_t bytes = 0;
  std::uint64_t hash = fnv1a(nullptr, 0);  ///< over every frame, in order
  std::map<std::size_t, std::string> samples;  ///< kept only on request
  std::string curve;
};

Watched watch(const std::string& socket_path, std::uint64_t id,
              Clock::time_point start, bool keep_payloads) {
  Watched out;
  const Connection connection(socket_path);
  io::write_frame(connection.fd, io::FrameType::kWatch, std::to_string(id));
  const auto since_start = [&] { return seconds_between(start, Clock::now()); };
  for (;;) {
    const std::optional<io::Frame> frame = io::read_frame(connection.fd);
    if (!frame.has_value()) throw sops::Error("stream ended before job_done");
    ++out.frames;
    out.bytes += frame->payload.size();
    const auto type = static_cast<unsigned char>(frame->type);
    out.hash = fnv1a(&type, 1, out.hash);
    out.hash = fnv1a(frame->payload.data(), frame->payload.size(), out.hash);
    switch (frame->type) {
      case io::FrameType::kJobEvent:
        if (out.running_s < 0.0 &&
            frame->payload.find("\"state\":\"running\"") != std::string::npos) {
          out.running_s = since_start();
        }
        if (out.streaming_s < 0.0 &&
            frame->payload.find("\"state\":\"streaming\"") != std::string::npos) {
          out.streaming_s = since_start();
        }
        break;
      case io::FrameType::kSampleCsv: {
        if (out.first_sample_s < 0.0) out.first_sample_s = since_start();
        if (keep_payloads) {
          // "job=N sample=K done=D total=T\n" + the sample's CSV.
          const std::size_t newline = frame->payload.find('\n');
          const std::size_t key = frame->payload.find("sample=");
          out.samples[std::stoul(frame->payload.substr(key + 7))] =
              frame->payload.substr(newline + 1);
        }
        break;
      }
      case io::FrameType::kCurveCsv:
        if (keep_payloads) out.curve = frame->payload;
        break;
      case io::FrameType::kJobDone:
        out.done_s = since_start();
        out.done = frame->payload.find("\"state\":\"done\"") != std::string::npos;
        return out;
      case io::FrameType::kError:
        throw sops::Error("daemon error: " + frame->payload);
      default:
        throw sops::Error(std::string("unexpected frame ") + io::to_string(frame->type));
    }
  }
}

struct ClientJob {
  std::uint64_t sequence = 0;
  std::string kind;
  bool ok = false;
  std::string error;
  Watched watched;
};

struct ReplayRequest {
  std::uint64_t id = 0;
  std::size_t frames = 0;
  std::uint64_t hash = 0;
};

double mean_of_kind_medians(const std::map<std::string, std::vector<double>>& by_kind) {
  double sum = 0.0;
  for (const auto& [kind, values] : by_kind) sum += median(values);
  return by_kind.empty() ? 0.0 : sum / static_cast<double>(by_kind.size());
}

}  // namespace

Report run_service(const RunOptions& options, bool traced) {
  Report report;
  const std::string socket_path = options.work_dir + "/sopsd.sock";
  const std::string spill_dir = options.work_dir + "/spill";
  std::filesystem::create_directories(spill_dir);

  // Set-up: a daemon spawned until its socket accepts, then stopped. Its
  // cost is the CPU the daemon spends over that life — start-up plus an
  // idle drain — which host load does not inflate the way it inflates the
  // wall time to the first accept (shown beside it). The probes use their
  // own socket and spill directory, next to the serving daemon.
  const std::string probe_socket = options.work_dir + "/probe.sock";
  const std::string probe_spill = options.work_dir + "/probe-spill";
  std::filesystem::create_directories(probe_spill);
  std::vector<double> setup_cpu_s, setup_wall_s;
  Yardstick yardstick;
  const auto measure_gap = [&] {
    yardstick.measure(kYardstickPiecesPerGap);
    for (int i = 0; i < kSetupsPerGap; ++i) {
      const auto start = Clock::now();
      Daemon probe(probe_socket, probe_spill);
      setup_wall_s.push_back(seconds_between(start, Clock::now()));
      setup_cpu_s.push_back(probe.stop());
    }
  };
  Daemon daemon(socket_path, spill_dir);

  // n · m · steps of each job kind, for the simulation rate.
  std::map<std::string, double> kind_work;
  for (std::uint64_t seq = 0; seq < 2; ++seq) {
    const JobSpec spec = service_job(options.seed, seq);
    kind_work[spec.kind] = particle_steps(
        core::build_experiment(io::Config::parse(spec.config_text)).experiment);
  }

  std::mutex mutex;  // guards jobs, replays, replay_queue, clients_done
  std::condition_variable replay_cv;
  std::vector<ClientJob> jobs;
  std::vector<double> replay_ms;
  std::size_t replay_frames = 0;
  std::deque<ReplayRequest> replay_queue;
  bool clients_done = false;
  std::size_t replay_failures = 0;
  std::size_t replays_pending = 0;  // queued or in flight
  std::atomic<std::uint64_t> next_sequence{0};
  const int daemon_pid = daemon.pid();
  double rss_after_jobs_mb = 0.0;

  Clock::time_point deadline;
  const auto client = [&] {
    while (Clock::now() < deadline) {
      ClientJob job;
      job.sequence = next_sequence.fetch_add(1);
      const JobSpec spec = service_job(options.seed, job.sequence);
      job.kind = spec.kind;
      std::uint64_t id = 0;
      const auto start = Clock::now();
      try {
        id = submit(socket_path, spec.config_text);
        // The first job of each kind keeps its streamed bytes for the
        // parity check against an in-process run.
        job.watched = watch(socket_path, id, start, job.sequence < 2);
        job.ok = job.watched.done;
        if (!job.ok) job.error = "job did not finish in state done";
      } catch (const std::exception& error) {
        job.error = error.what();
      }
      const std::lock_guard<std::mutex> lock(mutex);
      if (jobs.size() + 1 == kRssAfterJobs) rss_after_jobs_mb = peak_rss_mb(daemon_pid);
      if (job.ok && job.sequence % kReplayEvery == kReplayEvery - 1) {
        ++replays_pending;
        replay_queue.push_back({id, job.watched.frames, job.watched.hash});
        replay_cv.notify_all();
      }
      jobs.push_back(std::move(job));
    }
  };
  const auto replayer = [&] {
    for (;;) {
      ReplayRequest request;
      {
        std::unique_lock<std::mutex> lock(mutex);
        replay_cv.wait(lock, [&] { return !replay_queue.empty() || clients_done; });
        if (replay_queue.empty()) return;
        request = replay_queue.front();
        replay_queue.pop_front();
      }
      bool ok = false;
      double elapsed_ms = 0.0;
      std::size_t frames = 0;
      try {
        const auto start = Clock::now();
        const Watched replay = watch(socket_path, request.id, start, false);
        elapsed_ms = 1e3 * replay.done_s;
        frames = replay.frames;
        // A late watcher must see exactly the stream the live one saw.
        ok = replay.frames == request.frames && replay.hash == request.hash;
      } catch (const std::exception&) {
      }
      const std::lock_guard<std::mutex> lock(mutex);
      if (ok) {
        replay_ms.push_back(elapsed_ms);
        replay_frames += frames;
      } else {
        ++replay_failures;
      }
      --replays_pending;
      replay_cv.notify_all();
    }
  };
  std::thread replay_thread(replayer);
  // Each round ends once both clients have seen their last job through and
  // every late watch it queued has finished; only then does the gap start.
  double busy_s = 0.0;
  const double round_s = options.seconds / static_cast<double>(kRounds);
  measure_gap();
  for (std::size_t round = 0; round < kRounds; ++round) {
    const auto round_start = Clock::now();
    deadline = round_start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(round_s));
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client);
    for (std::thread& thread : clients) thread.join();
    {
      std::unique_lock<std::mutex> lock(mutex);
      replay_cv.wait(lock, [&] { return replays_pending == 0; });
    }
    busy_s += seconds_between(round_start, Clock::now());
    measure_gap();
  }
  {
    const std::lock_guard<std::mutex> lock(mutex);
    clients_done = true;
  }
  replay_cv.notify_all();
  replay_thread.join();
  const double daemon_peak_mb = peak_rss_mb(daemon_pid);
  const double daemon_cpu_s = daemon.stop();  // its whole life: all the jobs

  // Outcomes, by kind.
  std::sort(jobs.begin(), jobs.end(), [](const ClientJob& a, const ClientJob& b) {
    return a.sequence < b.sequence;
  });
  std::map<std::string, std::vector<double>> latency_ms, first_sample_ms,
      sim_rate;
  std::vector<double> all_latency_ms, all_first_ms, queue_ms, run_ms, stream_ms;
  std::size_t frames = 0;
  std::size_t bytes = 0;
  for (const ClientJob& job : jobs) {
    report.attempt(job.ok, job.kind + " job " + std::to_string(job.sequence) +
                               ": " + job.error);
    if (!job.ok) continue;
    const Watched& w = job.watched;
    latency_ms[job.kind].push_back(1e3 * w.done_s);
    first_sample_ms[job.kind].push_back(1e3 * w.first_sample_s);
    all_latency_ms.push_back(1e3 * w.done_s);
    all_first_ms.push_back(1e3 * w.first_sample_s);
    queue_ms.push_back(1e3 * w.running_s);
    run_ms.push_back(1e3 * (w.streaming_s - w.running_s));
    stream_ms.push_back(1e3 * (w.done_s - w.streaming_s));
    sim_rate[job.kind].push_back(kind_work[job.kind] / w.streaming_s);
    frames += w.frames;
    bytes += w.bytes;
  }
  for (std::size_t i = 0; i < replay_ms.size() + replay_failures; ++i) {
    report.attempt(i < replay_ms.size(), "late watch replayed a different stream");
  }

  // Parity: the first job of each kind, run in-process through a one-slot
  // manager, must serialize to the very bytes the daemon streamed.
  Tracer tracer;
  LayerCounts counts;
  LayerFigures figures;
  std::vector<double> frame_seconds, csv_seconds;
  double untraced_s = 0.0;
  double traced_s = 0.0;
  double csv_bytes = 0.0;
  std::size_t passes = 0;
  core::JobLimits limits;
  limits.job_slots = 1;
  core::JobManager manager(limits);
  for (const ClientJob& job : jobs) {
    if (job.sequence >= 2 || !job.ok) continue;
    const JobSpec spec = service_job(options.seed, job.sequence);
    const core::ConfiguredExperiment configured =
        core::build_experiment(io::Config::parse(spec.config_text));
    JobRun run = run_managed_job(manager, configured, spec.analysis);
    bool ok = run.ok && run.outcome.analysis.has_value() &&
              job.watched.samples.size() == run.outcome.series.sample_count();
    for (std::size_t s = 0; ok && s < run.outcome.series.sample_count(); ++s) {
      const auto start = Clock::now();
      const std::string csv = core::sample_recording_csv(run.outcome.series, s);
      csv_seconds.push_back(seconds_between(start, Clock::now()));
      csv_bytes += static_cast<double>(csv.size());
      const auto streamed = job.watched.samples.find(s);
      ok = streamed != job.watched.samples.end() && streamed->second == csv;
    }
    if (ok) {
      std::ostringstream curve;
      io::write_csv(curve, core::analysis_csv_table(
                               *run.outcome.analysis,
                               configured.analysis.compute_entropies));
      ok = curve.str() == job.watched.curve;
    }
    report.attempt(ok, job.kind + " job " + std::to_string(job.sequence) +
                           ": streamed CSV differs from the in-process run");
    if (traced && run.ok) {
      ++passes;
      figures.geom_rebuilds = static_cast<double>(run.outcome.series.rebuild_stats.rebuilds);
      figures.geom_skip_rate = run.outcome.series.rebuild_stats.skip_rate();
      trace_job_layers(tracer, counts, configured, run.outcome, frame_seconds,
                       untraced_s, traced_s, report);
    }
  }

  const std::size_t done = all_latency_ms.size();
  if (!traced) {
    // Jobs alternate between two kinds whose latencies differ; a median over
    // both would jump between the two modes from run to run, so the mix's
    // figure is the mean of the per-kind medians.
    const double pipeline_s = 1e-3 * mean_of_kind_medians(latency_ms);
    const double pipeline_cpu_s = daemon_cpu_s / static_cast<double>(done);
    report.metric("setup_s", median(setup_cpu_s), "s");
    report.metric("pipeline_vs_yardstick", pipeline_s / yardstick.wall_s(), "ratio");
    report.metric("pipeline_cpu_vs_yardstick", pipeline_cpu_s / yardstick.cpu_s(),
                  "ratio");
    report.metric("peak_rss_mb",
                  rss_after_jobs_mb > 0.0 ? rss_after_jobs_mb : daemon_peak_mb, "MB");
    report.note("setup_wall_s", median(setup_wall_s), "s", "spawn until accept");
    report.note("pipeline_s", pipeline_s, "s");
    report.note("pipeline_cpu_s", pipeline_cpu_s, "s", "daemon CPU per job");
    report.note("yardstick_s", yardstick.wall_s(), "s", "one piece");
    report.note("particle_steps_per_s", mean_of_kind_medians(sim_rate), "1/s");
    report.note("peak_rss_end_mb", daemon_peak_mb, "MB",
                "after all " + std::to_string(done) + " jobs");
    report.note("jobs_per_s", static_cast<double>(done) / busy_s, "1/s");
    report.note("first_sample_ms", mean_of_kind_medians(first_sample_ms), "ms");
    for (const auto& [kind, values] : latency_ms) {
      note_timing(report, "job_latency[" + kind + "]", values, "jobs");
    }
    note_timing(report, "job_latency", all_latency_ms, "jobs");
    note_timing(report, "first_sample", all_first_ms, "jobs");
    note_timing(report, "replay", replay_ms, "late watches");
    note_error_rate(report);
    return report;
  }

  figures.threads = static_cast<double>(kThreads);
  figures.cpu_util = daemon_cpu_s / (busy_s * static_cast<double>(kThreads));
  figures.frame_s_p50 = median(frame_seconds);
  figures.queue_wait_ms_p50 = median(queue_ms);
  figures.run_ms_p50 = median(run_ms);
  figures.stream_tail_ms_p50 = median(stream_ms);
  figures.analysis_tail_s = 1e-3 * figures.stream_tail_ms_p50;
  figures.sample_csv_s = median(csv_seconds);
  figures.sample_csv_bytes = csv_seconds.empty() ? 0.0 : csv_bytes / static_cast<double>(csv_seconds.size());
  const double per_job = done > 0 ? 1.0 / static_cast<double>(done) : 0.0;
  figures.frames_received = static_cast<double>(frames) * per_job;
  figures.frame_bytes_received = static_cast<double>(bytes) * per_job;
  figures.replay_frames =
      replay_ms.empty() ? 0.0
                        : static_cast<double>(replay_frames) / static_cast<double>(replay_ms.size());
  report.lines.push_back("io figures are per job (frames, bytes) and per late "
                         "watch (replay frames); sample_csv per sample");
  finish_layers(tracer, counts, passes, untraced_s, traced_s,
                options.work_dir + "/spans-service-mix-" +
                    std::to_string(options.seed) + ".jsonl",
                figures, report);
  emit_layer_metrics(figures, report);
  note_error_rate(report);
  return report;
}

}  // namespace perfbench
