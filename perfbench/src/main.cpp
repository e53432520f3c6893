// perfbench — end-to-end benchmark of the sops pipeline. Usually started
// through perfbench/run.py, which builds it first:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Prints the host the numbers belong to, a readable report with every
// metric and its unit, and, as the last line, the JSON result.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "runner.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload paper-row|fig4-ensemble|"
               "large-collective|service-mix --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::optional<perfbench::Workload> workload;
  std::optional<std::uint64_t> seed;
  std::optional<double> seconds;
  std::optional<bool> traced;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        workload = perfbench::parse_workload(value);
        if (!workload) return usage();
      } else if (key == "--seed") {
        seed = std::stoull(value);
      } else if (key == "--seconds") {
        seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") return usage();
        traced = value == "1";
      } else if (key == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!workload || !seed || !seconds || !traced || options.work_dir.empty() ||
      argc % 2 == 0) {
    return usage();
  }
  options.workload = *workload;
  options.seed = *seed;
  options.seconds = *seconds;

  const perfbench::HostInfo host = perfbench::host_info();
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
              perfbench::workload_name(options.workload),
              static_cast<unsigned long long>(options.seed), options.seconds,
              *traced ? 1 : 0);
  std::printf("host: nproc=%u cpu=\"%s\" simd=%s compiler=\"%s\" build=%s\n",
              host.nproc, host.cpu_model.c_str(), host.simd_isa.c_str(),
              host.compiler.c_str(), host.build_type.c_str());
  try {
    std::filesystem::create_directories(options.work_dir);
    const perfbench::Report report =
        options.workload == perfbench::Workload::kServiceMix
            ? perfbench::run_service(options, *traced)
            : perfbench::run_batch(options, *traced);
    for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
    std::printf("%s\n", perfbench::result_json(report.correct, report.attempted,
                                               report.failed, report.metrics)
                            .c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
