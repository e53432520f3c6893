// sopsd — the streaming experiment daemon.
//
// One process owns a core::JobManager (one machine-wide TaskPool, carved
// into per-job slices under admission control) and serves the frame
// protocol (io/frame_protocol.hpp) on a local unix socket:
//
//   sopsd [--socket <path>] [--slots N] [--threads N] [--mem-mb N]
//         [--spill-dir <dir>]
//
// --mem-mb caps the resident recordings of running jobs (admission
// control, core::JobLimits::memory_budget_bytes); without it the budget
// is unlimited.
//
// Clients (`sops_run submit/status/cancel/watch`) submit the same key=value
// config text the batch CLI reads; jobs run with a streaming analyzer
// attached and every finished sample is pushed to watchers as the exact CSV
// bytes the batch path would write — streamed output is byte-identical to a
// batch run of the same config, because both go through
// core::sample_recording_csv / core::analysis_csv_table.
//
// Each job has one append-only frame log — state events, sample frames, the
// analysis curve, then job_done, in emission order — and a watcher reads it
// by cursor from the start, so a late watcher gets the same bytes in the
// same order as a live one. A sample frame is kept as a reference into the
// job's binary recording, which the log holds on to past the job's end
// (done, failed or cancelled), and is encoded to CSV as it is read. The
// job's terminal state callback pushes its curve and job_done; each
// connection runs on a detached, counted thread.
//
// SIGINT/SIGTERM raise the manager's shutdown token (async-signal-safe) and
// poke a self-pipe to wake the accept loop; every job drains at its next
// poll point, durable shard manifests stay valid (sync-before-bit-flip plus
// RAII sync on destruction), scratch spill files are unlinked, and watchers
// receive a terminal job_done frame before their connections close.
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <deque>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>

#include "core/config_builder.hpp"
#include "core/job_manager.hpp"
#include "core/sops.hpp"
#include "io/frame_protocol.hpp"

namespace {

using namespace sops;

constexpr const char* kDefaultSocket = "sopsd.sock";

// Signal plumbing: the handler may only touch async-signal-safe state — it
// raises the shutdown token and writes one byte into the self-pipe so the
// poll()-based accept loop wakes immediately.
std::atomic<support::CancelToken*> g_shutdown_token{nullptr};
int g_wake_pipe[2] = {-1, -1};

void handle_signal(int /*signum*/) {
  support::CancelToken* token = g_shutdown_token.load(std::memory_order_acquire);
  if (token != nullptr) token->request();
  const char byte = 1;
  [[maybe_unused]] const ssize_t wrote = ::write(g_wake_pipe[1], &byte, 1);
}

void install_signal_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_signal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocked syscalls return EINTR
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);  // a vanished client must not kill the daemon
}

/// Per-job append-only frame logs. Everything a job emits is appended to
/// its log exactly once; a watcher — live or attached late — holds only a
/// cursor into the log and reads it frame by frame, so replay and live
/// delivery are the same loop. A sample frame is logged as a reference —
/// its header line and sample index — into the job's recording, which the
/// log keeps a shared handle on, and its CSV is encoded when a watcher
/// reads it. So a served job costs its binary recording plus O(m) header
/// bytes, whatever becomes of the job's own series, and a watcher costs
/// one sample's CSV. std::deque::push_back never moves existing elements,
/// so an entry looked up under the lock stays valid while it is encoded
/// and written out unlocked.
class Broadcast {
 public:
  void push(std::uint64_t job, io::FrameType type, std::string payload) {
    append(job, {type, std::move(payload), 0}, nullptr);
  }

  /// Logs sample `event.local_sample` by reference. The first sample of a
  /// job takes the log's handle on its recording.
  void push_sample(const core::JobSampleEvent& event) {
    std::string header = "job=" + std::to_string(event.job) +
                         " sample=" + std::to_string(event.local_sample) +
                         " done=" + std::to_string(event.samples_done) +
                         " total=" + std::to_string(event.samples_total) +
                         "\n";
    append(event.job,
           {io::FrameType::kSampleCsv, std::move(header), event.local_sample},
           event.series);
  }

  /// Writes frame `index` of the job's log to `fd`, blocking until it has
  /// been pushed; returns its type. A sample frame is encoded into
  /// `buffer`, which one watcher reuses for all of its frames.
  io::FrameType write(std::uint64_t job, std::size_t index, int fd,
                      std::string& buffer) {
    Log* log = nullptr;
    const Entry* entry = nullptr;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      log = &logs_[job];
      log->appended.wait(lock, [&] { return index < log->entries.size(); });
      entry = &log->entries[index];
    }
    if (entry->type != io::FrameType::kSampleCsv) {
      io::write_frame(fd, entry->type, entry->payload);
    } else {
      // The recording was set before this entry was appended and never
      // changes after, so it is read unlocked like the entry.
      buffer = entry->payload;
      core::append_sample_recording_csv(buffer, log->recording, entry->sample);
      io::write_frame(fd, entry->type, buffer);
    }
    return entry->type;
  }

 private:
  struct Entry {
    io::FrameType type;
    std::string payload;     // a sample frame's header line only
    std::size_t sample = 0;  // kSampleCsv: local sample in `recording`
  };
  struct Log {
    std::deque<Entry> entries;
    // frame_steps and a shared handle on the frames: all the CSV reads.
    core::EnsembleSeries recording;
    std::condition_variable appended;
  };

  void append(std::uint64_t job, Entry entry,
              const core::EnsembleSeries* series) {
    Log* log = nullptr;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      log = &logs_[job];
      if (series != nullptr && log->recording.frames.empty()) {
        log->recording.frame_steps = series->frame_steps;
        log->recording.frames = series->frames.share();
      }
      log->entries.push_back(std::move(entry));
    }
    log->appended.notify_all();
  }

  std::mutex mutex_;
  std::map<std::uint64_t, Log> logs_;  // nodes never move or go away
};

struct DaemonOptions {
  std::string socket_path = kDefaultSocket;
  std::string spill_dir = ".";
  core::JobLimits limits{};
};

/// Applies one `--flag value` pair; false on an unknown flag or on a
/// numeric value that is not a plain decimal that fits (--mem-mb: once
/// scaled to bytes).
bool apply_flag(std::string_view flag, std::string_view value,
                DaemonOptions* options) {
  if (flag == "--socket") {
    options->socket_path = value;
  } else if (flag == "--spill-dir") {
    options->spill_dir = value;
  } else {
    std::size_t n = 0;
    const char* last = value.data() + value.size();
    const auto [end, error] = std::from_chars(value.data(), last, n);
    if (error != std::errc{} || end != last) return false;
    if (flag == "--slots") {
      options->limits.job_slots = n;
    } else if (flag == "--threads") {
      options->limits.machine_threads = n;
    } else if (flag == "--mem-mb" && n <= (SIZE_MAX >> 20)) {
      options->limits.memory_budget_bytes = n << 20;
    } else {
      return false;
    }
  }
  return true;
}

class Daemon {
 public:
  explicit Daemon(const DaemonOptions& options)
      : options_(options), manager_(options.limits) {}

  core::JobManager& manager() { return manager_; }

  std::uint64_t submit(const std::string& config_text) {
    core::ConfiguredExperiment configured =
        core::build_experiment(io::Config::parse(config_text));
    configured.experiment.storage.spill_dir = options_.spill_dir;
    const bool with_entropies = configured.analysis.compute_entropies;

    core::JobOptions job_options;
    job_options.analysis = core::JobAnalysis::kStreamed;
    job_options.events.on_state_change =
        [this, with_entropies](const core::JobStatus& status) {
          if (core::is_terminal(status.state)) {
            finish_job(status, with_entropies);
          } else {
            broadcast_.push(status.id, io::FrameType::kJobEvent,
                            core::job_status_json(status));
          }
        };
    job_options.events.on_sample_done = [this](const core::JobSampleEvent& e) {
      broadcast_.push_sample(e);
    };
    return manager_.submit(std::move(configured), job_options);
  }

  void serve(int listen_fd) {
    for (;;) {
      pollfd fds[2] = {{listen_fd, POLLIN, 0}, {g_wake_pipe[0], POLLIN, 0}};
      const int ready = ::poll(fds, 2, -1);
      if (ready < 0) {
        if (errno == EINTR) {
          if (manager_.shutdown_token().requested()) break;
          continue;
        }
        std::cerr << "sopsd: poll failed: " << std::strerror(errno) << "\n";
        break;
      }
      if ((fds[1].revents & POLLIN) != 0 ||
          manager_.shutdown_token().requested()) {
        break;
      }
      if ((fds[0].revents & POLLIN) == 0) continue;
      const int client = ::accept(listen_fd, nullptr, nullptr);
      if (client < 0) {
        if (errno == EINTR) continue;
        std::cerr << "sopsd: accept failed: " << std::strerror(errno) << "\n";
        break;
      }
      spawn_handler(client);
    }
    std::cout << "sopsd: shutting down, draining jobs...\n";
    // Cancel everything so every job drains and every watch stream ends
    // with its terminal frame, then wait for the last handler. Jobs still
    // draining finish in ~JobManager, whose terminal callbacks append to
    // broadcast_ — declared first, so it outlives them.
    manager_.shutdown_token().request();
    std::unique_lock<std::mutex> lock(handlers_mutex_);
    handlers_idle_.wait(lock, [this] { return handlers_ == 0; });
  }

 private:
  /// One detached thread per connection, counted so shutdown can wait for
  /// the last one; its stack is freed the moment it returns.
  void spawn_handler(int client) {
    {
      const std::lock_guard<std::mutex> lock(handlers_mutex_);
      ++handlers_;
    }
    std::thread([this, client] {
      handle(client);
      // Notify under the lock: serve() may return, and the Daemon die, as
      // soon as it sees the count reach zero.
      const std::lock_guard<std::mutex> lock(handlers_mutex_);
      if (--handlers_ == 0) handlers_idle_.notify_all();
    }).detach();
  }

  /// Terminal state hook — the only writer of a job's job_done frame. The
  /// job is already terminal, so wait() returns at once: the outcome, whose
  /// analysis curve goes out first, or the job's error, whose detail rides
  /// in the terminal status. The outcome's series is dropped here; the
  /// log's shared handle keeps the streamed samples readable.
  void finish_job(const core::JobStatus& status, bool with_entropies) {
    try {
      const core::JobOutcome outcome = manager_.wait(status.id);
      if (outcome.analysis.has_value()) {
        std::ostringstream curve;
        io::write_csv(curve,
                      core::analysis_csv_table(*outcome.analysis, with_entropies));
        broadcast_.push(status.id, io::FrameType::kCurveCsv, curve.str());
      }
    } catch (const std::exception&) {
      // Failure/cancellation detail rides in the terminal status below.
    }
    broadcast_.push(status.id, io::FrameType::kJobDone,
                    core::job_status_json(status));
  }

  void handle(int client) {
    // A connected-but-silent client must not pin the handler (and the
    // daemon's shutdown wait) forever: bound the wait for its request.
    const timeval timeout{30, 0};
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    try {
      const std::optional<io::Frame> request = io::read_frame(client);
      if (!request.has_value()) {
        ::close(client);
        return;
      }
      switch (request->type) {
        case io::FrameType::kSubmit: {
          try {
            const std::uint64_t id = submit(request->payload);
            io::write_frame(client, io::FrameType::kSubmitted,
                            std::to_string(id));
          } catch (const Error& error) {
            io::write_frame(client, io::FrameType::kError, error.what());
          }
          break;
        }
        case io::FrameType::kStatus: {
          std::string report;
          if (request->payload.empty()) {
            for (const core::JobStatus& status : manager_.statuses()) {
              report += core::job_status_json(status);
              report += "\n";
            }
          } else {
            report =
                core::job_status_json(manager_.status(parse_id(request->payload)));
          }
          io::write_frame(client, io::FrameType::kStatusReport, report);
          break;
        }
        case io::FrameType::kCancel: {
          const std::uint64_t id = parse_id(request->payload);
          manager_.cancel(id);
          io::write_frame(client, io::FrameType::kStatusReport,
                          core::job_status_json(manager_.status(id)));
          break;
        }
        case io::FrameType::kWatch: {
          watch(client, parse_id(request->payload));
          break;
        }
        default:
          io::write_frame(client, io::FrameType::kError,
                          std::string("unexpected frame type: ") +
                              io::to_string(request->type));
      }
    } catch (const std::exception& error) {
      try {
        io::write_frame(client, io::FrameType::kError, error.what());
      } catch (...) {
        // The client is gone; nothing left to tell it.
      }
    }
    ::close(client);
  }

  /// Writes the job's log from the start — replay and live delivery in
  /// one loop — until its job_done frame.
  void watch(int client, std::uint64_t id) {
    (void)manager_.status(id);  // throws on an unknown id
    std::string buffer;
    for (std::size_t cursor = 0;; ++cursor) {
      if (broadcast_.write(id, cursor, client, buffer) ==
          io::FrameType::kJobDone) {
        return;
      }
    }
  }

  static std::uint64_t parse_id(const std::string& text) {
    try {
      std::size_t end = 0;
      const unsigned long long id = std::stoull(text, &end);
      if (end != text.size() || id == 0) throw std::invalid_argument(text);
      return id;
    } catch (const std::exception&) {
      throw Error("expected a job id, got '" + text + "'");
    }
  }

  DaemonOptions options_;
  Broadcast broadcast_;  // before manager_: outlives its job callbacks
  core::JobManager manager_;
  std::mutex handlers_mutex_;
  std::condition_variable handlers_idle_;
  std::size_t handlers_ = 0;  // connection handlers still running
};

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions options;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 == argc || !apply_flag(argv[i], argv[i + 1], &options)) {
      std::cerr << "usage: sopsd [--socket <path>] [--slots N] [--threads N] "
                   "[--mem-mb N] [--spill-dir <dir>]\n"
                   "  --mem-mb N  cap running jobs' resident recordings at "
                   "N MiB (default: unlimited)\n";
      return 2;
    }
  }

  try {
    // Reclaim spill files a crashed predecessor leaked before any new job
    // creates its own.
    sops::core::sweep_stale_spill_files(options.spill_dir);

    if (::pipe(g_wake_pipe) != 0) {
      std::cerr << "sopsd: pipe failed: " << std::strerror(errno) << "\n";
      return 1;
    }

    Daemon daemon(options);
    g_shutdown_token.store(&daemon.manager().shutdown_token(),
                           std::memory_order_release);
    install_signal_handlers();

    const int listen_fd = sops::io::listen_unix(options.socket_path);
    std::cout << "sopsd: listening on " << options.socket_path << " ("
              << daemon.manager().limits().job_slots << " job slots, "
              << daemon.manager().limits().machine_threads
              << " threads)\n";
    daemon.serve(listen_fd);

    g_shutdown_token.store(nullptr, std::memory_order_release);
    ::close(listen_fd);
    ::unlink(options.socket_path.c_str());
    std::cout << "sopsd: stopped\n";
    return 0;
  } catch (const sops::Error& error) {
    std::cerr << "sopsd: " << error.what() << "\n";
    return 1;
  }
}
