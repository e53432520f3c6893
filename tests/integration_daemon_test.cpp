// End-to-end daemon smoke test: spawn the real `sopsd` binary, talk the
// real wire protocol, and hold it to the layer's core promise — a job
// streamed out of the daemon is byte-identical to the same config run in
// batch, a cancelled neighbor job doesn't perturb it, a late watcher
// replays the identical frame sequence (of a cancelled job too), the
// daemon's memory stays flat across many jobs and holds no sample CSV,
// malformed numeric flags are refused with exit 2, and the client turns a
// malformed sample frame into a named error.
//
// The `integration_` prefix keeps this out of the CI TSan regex: the test
// forks+execs a child process, which TSan interceptors do not survive.
// test_core_job and test_io_frame_protocol cover the in-process pieces
// under TSan; this test covers the process seam.
#include <gtest/gtest.h>

#if defined(__unix__) || defined(__APPLE__)

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/job_manager.hpp"
#include "core/config_builder.hpp"
#include "io/config.hpp"
#include "io/csv.hpp"
#include "io/frame_protocol.hpp"
#include "support/error.hpp"

namespace {

#if defined(__SANITIZE_ADDRESS__)
constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
constexpr bool kAddressSanitizer = true;
#else
constexpr bool kAddressSanitizer = false;
#endif
#else
constexpr bool kAddressSanitizer = false;
#endif

using sops::io::Frame;
using sops::io::FrameType;

// Small enough to finish in seconds on one core; big enough that several
// sample frames actually stream.
constexpr const char kSmallConfig[] =
    "preset = fig4\n"
    "steps = 20\n"
    "stride = 10\n"
    "samples = 6\n"
    "seed = 99\n";

// Long enough that a cancel lands mid-run even on a fast machine.
constexpr const char kLongConfig[] =
    "preset = fig4\n"
    "steps = 200000\n"
    "stride = 1000\n"
    "samples = 8\n"
    "seed = 7\n";

std::string temp_path(const char* name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// One request/reply exchange on a fresh connection (the protocol's shape).
Frame exchange(const std::string& socket_path, FrameType type,
               const std::string& payload) {
  const int fd = sops::io::connect_unix(socket_path);
  sops::io::write_frame(fd, type, payload);
  const auto reply = sops::io::read_frame(fd);
  ::close(fd);
  if (!reply.has_value()) {
    throw sops::Error("daemon closed the connection without replying");
  }
  return *reply;
}

// Forks and execs `binary` (a tool built next to this test; ctest runs
// from the build root) with `args`. The argv array is built before fork,
// so the child only calls async-signal-safe functions; _exit on failure —
// never return into gtest.
pid_t spawn_tool(const char* binary, const std::vector<std::string>& args) {
  std::vector<char*> argv{const_cast<char*>(binary)};
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(binary, argv.data());
    ::_exit(127);
  }
  return pid;
}

// Starts sopsd on a fresh socket and spill directory with `extra_args` and
// waits up to 30 s for it to listen. Returns its pid, or -1 — the child
// killed and reaped — when it never came up.
pid_t start_daemon(const std::string& socket_path, const std::string& spill_dir,
                   std::vector<std::string> extra_args) {
  std::filesystem::create_directories(spill_dir);
  std::filesystem::remove(socket_path);
  extra_args.insert(extra_args.begin(),
                    {"--socket", socket_path, "--spill-dir", spill_dir});
  const pid_t daemon = spawn_tool("./sopsd", extra_args);
  if (daemon <= 0) return -1;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(daemon, &status, WNOHANG) != 0) return -1;  // died
    try {
      ::close(sops::io::connect_unix(socket_path));
      return daemon;
    } catch (const sops::Error&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  ::kill(daemon, SIGKILL);
  ::waitpid(daemon, nullptr, 0);
  return -1;
}

std::uint64_t parse_submitted_id(const Frame& reply) {
  EXPECT_EQ(reply.type, FrameType::kSubmitted) << reply.payload;
  return std::stoull(reply.payload);
}

// Watches a job to its job_done frame and returns every frame in order,
// calling `on_frame` on each as it arrives; the server must close the
// connection right after job_done.
std::vector<Frame> watch_frames(
    const std::string& socket_path, std::uint64_t id,
    const std::function<void(const Frame&)>& on_frame = {}) {
  std::vector<Frame> frames;
  const int fd = sops::io::connect_unix(socket_path);
  sops::io::write_frame(fd, FrameType::kWatch, std::to_string(id));
  for (;;) {
    auto frame = sops::io::read_frame(fd);
    if (!frame.has_value()) {
      ADD_FAILURE() << "watch stream ended before job_done";
      break;
    }
    if (on_frame) on_frame(*frame);
    frames.push_back(std::move(*frame));
    if (frames.back().type == FrameType::kJobDone) {
      EXPECT_FALSE(sops::io::read_frame(fd).has_value())
          << "job_done must end the stream";
      break;
    }
  }
  ::close(fd);
  return frames;
}

// The sample index in a sample_csv frame's "job=N sample=K ..." header.
std::size_t sample_index(const Frame& frame) {
  const std::size_t pos = frame.payload.find("sample=");
  if (pos == std::string::npos) throw sops::Error("no sample= in header");
  return std::stoul(frame.payload.substr(pos + 7));
}

// The CSV part of a sample_csv frame (what follows the header line).
std::string sample_csv_of(const Frame& frame) {
  return frame.payload.substr(frame.payload.find('\n') + 1);
}

TEST(IntegrationDaemon, StreamedJobMatchesBatchWhileNeighborIsCancelled) {
  const std::string socket_path = temp_path("sopsd_itest.sock");
  const std::string spill_dir = temp_path("sopsd_itest_spill");

  // Fork while this process is still single-threaded.
  const pid_t daemon = start_daemon(socket_path, spill_dir, {"--slots", "2"});
  ASSERT_GT(daemon, 0) << "sopsd did not come up (is ./sopsd next to the "
                          "test cwd?)";

  // Submit the long job first so it occupies a slot, then the small one.
  const std::uint64_t long_id = parse_submitted_id(
      exchange(socket_path, FrameType::kSubmit, kLongConfig));
  const std::uint64_t small_id = parse_submitted_id(
      exchange(socket_path, FrameType::kSubmit, kSmallConfig));
  EXPECT_NE(long_id, small_id);

  // Cancel the long job mid-run.
  const Frame cancel_reply = exchange(socket_path, FrameType::kCancel,
                                      std::to_string(long_id));
  EXPECT_EQ(cancel_reply.type, FrameType::kStatusReport) << cancel_reply.payload;

  // Watch the small job to completion, collecting the streamed bytes.
  const std::vector<Frame> live = watch_frames(socket_path, small_id);
  std::map<std::size_t, std::string> sample_csv;  // sample index → bytes
  std::string curve_csv;
  std::string final_status;
  std::size_t events_seen = 0;
  for (const Frame& frame : live) {
    if (frame.type == FrameType::kJobEvent) {
      ++events_seen;
    } else if (frame.type == FrameType::kSampleCsv) {
      // Payload: "job=N sample=K done=D total=T\n" + CSV bytes.
      const std::size_t eol = frame.payload.find('\n');
      ASSERT_NE(eol, std::string::npos);
      const std::string meta = frame.payload.substr(0, eol);
      const std::size_t pos = meta.find("sample=");
      ASSERT_NE(pos, std::string::npos) << meta;
      const std::size_t sample = std::stoul(meta.substr(pos + 7));
      EXPECT_EQ(sample_csv.count(sample), 0u)
          << "sample " << sample << " streamed twice";
      sample_csv[sample] = frame.payload.substr(eol + 1);
    } else if (frame.type == FrameType::kCurveCsv) {
      EXPECT_TRUE(curve_csv.empty());
      curve_csv = frame.payload;
    } else if (frame.type == FrameType::kJobDone) {
      final_status = frame.payload;
    } else {
      FAIL() << "unexpected frame type " << sops::io::to_string(frame.type)
             << ": " << frame.payload;
    }
  }
  EXPECT_NE(final_status.find("\"state\":\"done\""), std::string::npos)
      << final_status;
  EXPECT_GT(events_seen, 0u);
  EXPECT_FALSE(curve_csv.empty()) << "curve frame must precede job_done";

  // A watcher attaching after job_done replays the identical sequence.
  const std::vector<Frame> replay = watch_frames(socket_path, small_id);
  ASSERT_EQ(replay.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(replay[i].type, live[i].type) << "frame " << i;
    EXPECT_EQ(replay[i].payload, live[i].payload) << "frame " << i;
  }

  // The cancelled neighbor must report a terminal cancelled state.
  const auto cancel_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::string long_status;
  for (;;) {
    long_status = exchange(socket_path, FrameType::kStatus,
                           std::to_string(long_id))
                      .payload;
    if (long_status.find("\"state\":\"cancelled\"") != std::string::npos) break;
    ASSERT_LT(std::chrono::steady_clock::now(), cancel_deadline)
        << "long job never reached cancelled: " << long_status;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  // --- byte parity: the streamed frames vs an in-process batch run of the
  // identical config text, serialized through the same functions.
  const sops::core::ConfiguredExperiment configured =
      sops::core::build_experiment(sops::io::Config::parse(kSmallConfig));
  const sops::core::EnsembleSeries reference =
      sops::core::run_experiment(configured.experiment);
  ASSERT_EQ(sample_csv.size(), reference.sample_count());
  for (std::size_t s = 0; s < reference.sample_count(); ++s) {
    ASSERT_TRUE(sample_csv.count(s)) << "sample " << s << " never streamed";
    EXPECT_EQ(sample_csv[s], sops::core::sample_recording_csv(reference, s))
        << "streamed sample " << s << " differs from batch bytes";
  }
  const sops::core::AnalysisResult analysis =
      sops::core::analyze_self_organization(reference, configured.analysis);
  std::ostringstream batch_curve;
  sops::io::write_csv(batch_curve,
                      sops::core::analysis_csv_table(
                          analysis, configured.analysis.compute_entropies));
  EXPECT_EQ(curve_csv, batch_curve.str())
      << "streamed curve differs from batch bytes";

  // --- clean shutdown: SIGTERM → drain → exit 0, socket unlinked.
  ASSERT_EQ(::kill(daemon, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_FALSE(std::filesystem::exists(socket_path))
      << "daemon must unlink its socket on exit";

  // No scratch spill files may survive the cancelled job.
  for (const auto& entry : std::filesystem::directory_iterator(spill_dir)) {
    EXPECT_NE(entry.path().extension(), ".spill")
        << "leaked spill file: " << entry.path();
  }
  std::filesystem::remove_all(spill_dir);
}

// A job cancelled mid-run, after some samples streamed: its recording
// goes with the run, but the daemon keeps the samples it announced, so a
// watcher attaching after the cancel replays the live stream byte for
// byte, and those samples are still the batch bytes.
TEST(IntegrationDaemon, LateWatcherReplaysCancelledJob) {
  const std::string socket_path = temp_path("sopsd_cancel.sock");
  const std::string spill_dir = temp_path("sopsd_cancel_spill");
  const pid_t daemon = start_daemon(socket_path, spill_dir,
                                    {"--threads", "2", "--slots", "1"});
  ASSERT_GT(daemon, 0) << "sopsd did not come up";

  // Many short samples: some finish well before the run would.
  const std::string config =
      "preset = fig4\nsteps = 600\nstride = 300\nsamples = 64\nseed = 11\n";
  const std::uint64_t id =
      parse_submitted_id(exchange(socket_path, FrameType::kSubmit, config));
  std::size_t samples_seen = 0;
  const std::vector<Frame> live =
      watch_frames(socket_path, id, [&](const Frame& frame) {
        if (frame.type == FrameType::kSampleCsv && ++samples_seen == 2) {
          const Frame reply =
              exchange(socket_path, FrameType::kCancel, std::to_string(id));
          EXPECT_EQ(reply.type, FrameType::kStatusReport) << reply.payload;
        }
      });
  ASSERT_FALSE(live.empty());
  EXPECT_NE(live.back().payload.find("\"state\":\"cancelled\""),
            std::string::npos)
      << live.back().payload;

  std::map<std::size_t, std::string> streamed;  // sample index → CSV
  for (const Frame& frame : live) {
    if (frame.type == FrameType::kSampleCsv) {
      streamed[sample_index(frame)] = sample_csv_of(frame);
    }
  }
  ASSERT_GE(streamed.size(), 2u);
  EXPECT_LT(streamed.size(), 64u) << "the cancel landed after the last sample";

  const std::vector<Frame> replay = watch_frames(socket_path, id);
  ASSERT_EQ(replay.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(replay[i].type, live[i].type) << "frame " << i;
    EXPECT_EQ(replay[i].payload, live[i].payload) << "frame " << i;
  }

  // A sample's trajectory depends only on its index, so a batch run of
  // the first max_index + 1 samples reproduces every streamed one.
  sops::core::ConfiguredExperiment configured =
      sops::core::build_experiment(sops::io::Config::parse(config));
  configured.experiment.samples = streamed.rbegin()->first + 1;
  const sops::core::EnsembleSeries reference =
      sops::core::run_experiment(configured.experiment);
  for (const auto& [sample, csv] : streamed) {
    EXPECT_EQ(csv, sops::core::sample_recording_csv(reference, sample))
        << "streamed sample " << sample << " differs from batch bytes";
  }

  ASSERT_EQ(::kill(daemon, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(daemon, &status, 0), daemon);
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::filesystem::remove_all(spill_dir);
}

// Waits up to `seconds` for the child to exit; SIGKILLs it past that.
// Returns the waitpid status, or -1 if it had to be killed.
int wait_exit(pid_t pid, int seconds) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return status;
}

TEST(IntegrationDaemon, MalformedNumericFlagsExitWithUsage) {
  const std::string socket_path = temp_path("sopsd_flags.sock");
  std::filesystem::remove(socket_path);
  const std::vector<std::vector<std::string>> bad_flags{
      {"--slots", "abc"},
      {"--threads", "-1"},
      {"--slots", "4x"},
      {"--mem-mb", "99999999999999999999"},  // past 64 bits
      {"--mem-mb", "17592186044416"},        // 2^44: wraps once << 20
      {"--slots"},                           // value missing
  };
  for (std::vector<std::string> args : bad_flags) {
    args.insert(args.begin(), {"--socket", socket_path});
    const pid_t daemon = spawn_tool("./sopsd", args);
    ASSERT_GT(daemon, 0);
    const int status = wait_exit(daemon, 10);
    ASSERT_NE(status, -1) << "sopsd started with " << args[2];
    EXPECT_TRUE(WIFEXITED(status)) << args[2] << ": killed by a signal";
    EXPECT_EQ(WEXITSTATUS(status), 2) << args[2];
  }
  EXPECT_FALSE(std::filesystem::exists(socket_path));
}

// `sops_run watch --save` against a peer that streams a sample_csv frame
// whose header has no parsable sample index: a named error and exit 1,
// not std::terminate.
TEST(IntegrationDaemon, ClientRejectsMalformedSampleFrame) {
  const std::string socket_path = temp_path("sopsd_fake.sock");
  const std::string save_dir = temp_path("sopsd_fake_save");
  std::filesystem::create_directories(save_dir);
  std::filesystem::remove(socket_path);
  const int listen_fd = sops::io::listen_unix(socket_path);
  const pid_t client = spawn_tool(
      "./sops_run",
      {"watch", "1", "--socket", socket_path, "--save", save_dir});
  ASSERT_GT(client, 0);
  pollfd ready{listen_fd, POLLIN, 0};
  ASSERT_EQ(::poll(&ready, 1, 30000), 1) << "sops_run never connected";
  const int peer = ::accept(listen_fd, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  const auto request = sops::io::read_frame(peer);
  ASSERT_TRUE(request.has_value());
  EXPECT_EQ(request->type, FrameType::kWatch);
  sops::io::write_frame(peer, FrameType::kSampleCsv,
                        "job=1 sample=x done=1 total=1\nframe,step\n");
  const int status = wait_exit(client, 30);
  ::close(peer);
  ::close(listen_fd);
  std::filesystem::remove(socket_path);
  std::filesystem::remove_all(save_dir);
  ASSERT_NE(status, -1) << "sops_run hung on a malformed frame";
  EXPECT_TRUE(WIFEXITED(status)) << "sops_run killed by a signal";
  EXPECT_EQ(WEXITSTATUS(status), 1);
}

std::size_t count_lines(const std::string& path) {
  std::ifstream in(path);
  std::size_t lines = 0;
  for (std::string line; std::getline(in, line);) ++lines;
  return lines;
}

// One "<field>: <n> kB" line of /proc/<pid>/status, in kB (0 if absent).
std::size_t status_kb(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stoul(line.substr(field.size() + 1));
    }
  }
  return 0;
}

// Every finished job must hand back its threads' stacks: after a warm-up
// (malloc arenas, the stack cache and the pool settle), 30 more submit +
// watch jobs may not grow the daemon's mappings or address space. A
// leaked joinable thread costs ~2 mappings and 8 MiB of stack apiece.
// What the daemon keeps of a job's samples is its binary recording, not
// the CSV it streamed (~3x larger), so its resident set grows by less than
// half the sample CSV bytes those jobs streamed. Every served job also
// keeps its job-table entry and state-event frames (~5 KB for these jobs;
// evicting terminal jobs is a separate item), which a fixed allowance per
// job covers. A daemon that kept each sample's CSV grew by ~1.1x it.
TEST(IntegrationDaemon, MemoryStaysFlatAcrossManyJobs) {
  const std::string socket_path = temp_path("sopsd_flat.sock");
  const std::string spill_dir = temp_path("sopsd_flat_spill");
  const pid_t daemon = start_daemon(socket_path, spill_dir,
                                    {"--threads", "4", "--slots", "2"});
  ASSERT_GT(daemon, 0) << "sopsd did not come up";
  const std::string maps = "/proc/" + std::to_string(daemon) + "/maps";
  if (count_lines(maps) == 0) {
    ::kill(daemon, SIGKILL);
    ::waitpid(daemon, nullptr, 0);
    GTEST_SKIP() << "no readable " << maps;
  }

  std::size_t sample_csv_bytes = 0;
  const auto run_jobs = [&](std::size_t count) {
    for (std::size_t j = 0; j < count; ++j) {
      const std::uint64_t id = parse_submitted_id(
          exchange(socket_path, FrameType::kSubmit, kSmallConfig));
      const std::vector<Frame> frames = watch_frames(socket_path, id);
      ASSERT_FALSE(frames.empty());
      EXPECT_NE(frames.back().payload.find("\"state\":\"done\""),
                std::string::npos)
          << frames.back().payload;
      for (const Frame& frame : frames) {
        if (frame.type == FrameType::kSampleCsv) {
          sample_csv_bytes += frame.payload.size();
        }
      }
    }
  };
  run_jobs(20);
  const std::size_t maps_before = count_lines(maps);
  const std::size_t vm_before_kb = status_kb(daemon, "VmSize");
  const std::size_t rss_before_kb = status_kb(daemon, "VmRSS");
  sample_csv_bytes = 0;
  constexpr std::size_t kJobs = 30;
  run_jobs(kJobs);
  const std::size_t maps_after = count_lines(maps);
  const std::size_t vm_after_kb = status_kb(daemon, "VmSize");
  const std::size_t rss_after_kb = status_kb(daemon, "VmRSS");

  EXPECT_LT(maps_after, maps_before + kJobs)
      << "mappings grew from " << maps_before << " to " << maps_after
      << " over " << kJobs << " jobs";
  EXPECT_LT(vm_after_kb, vm_before_kb + 256 * 1024)
      << "VmSize grew from " << vm_before_kb << " kB to " << vm_after_kb
      << " kB over " << kJobs << " jobs";
  ASSERT_GT(rss_before_kb, 0u);
  const std::size_t rss_growth_bytes =
      rss_after_kb > rss_before_kb ? (rss_after_kb - rss_before_kb) * 1024 : 0;
  constexpr std::size_t kJobEntryBytes = 6 << 10;
  // AddressSanitizer keeps freed blocks resident in its quarantine (tens
  // of MB over these jobs), so there the resident set does not show what
  // the daemon keeps.
  if (!kAddressSanitizer) {
    EXPECT_LT(rss_growth_bytes, sample_csv_bytes / 2 + kJobs * kJobEntryBytes)
        << "VmRSS grew from " << rss_before_kb << " kB to " << rss_after_kb
        << " kB over " << kJobs << " jobs that streamed " << sample_csv_bytes
        << " bytes of sample CSV";
  }

  ASSERT_EQ(::kill(daemon, SIGTERM), 0);
  const int status = wait_exit(daemon, 120);
  ASSERT_NE(status, -1) << "sopsd did not drain on SIGTERM";
  EXPECT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::filesystem::remove_all(spill_dir);
}

}  // namespace

#else  // !(__unix__ || __APPLE__)

TEST(IntegrationDaemon, SkippedOnThisPlatform) {
  GTEST_SKIP() << "daemon integration test requires POSIX fork/exec";
}

#endif
