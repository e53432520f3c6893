#include "workloads.hpp"

#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

// The paper row's collective: three types under the spring law with one
// (k, r) for every pair, cut off at r_c = 3.
std::string spring_collective(std::size_t particles, double init_radius,
                              std::size_t samples, std::uint64_t seed) {
  return "types = 3\nforce = spring\nk = 1\nr = 2\nrc = 3\n"
         "particles = " + std::to_string(particles) +
         "\ninit_radius = " + std::to_string(init_radius) +
         "\nsteps = 40\nstride = 8\nsamples = " + std::to_string(samples) +
         "\nseed = " + std::to_string(seed) + "\n";
}

std::string fig4(std::size_t samples, std::uint64_t seed) {
  return "preset = fig4\nstride = 25\nsamples = " + std::to_string(samples) +
         "\nseed = " + std::to_string(seed) + "\n";
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kPaperRow, Workload::kFig4Ensemble,
                           Workload::kLargeCollective, Workload::kServiceMix}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) noexcept {
  switch (workload) {
    case Workload::kPaperRow: return "paper-row";
    case Workload::kFig4Ensemble: return "fig4-ensemble";
    case Workload::kLargeCollective: return "large-collective";
    case Workload::kServiceMix: return "service-mix";
  }
  return "?";
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) noexcept {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  // 53 bits, so the seed survives the config reader's double parse.
  return (z ^ (z >> 31)) >> 11;
}

JobSpec batch_job(Workload workload, std::uint64_t seed, std::uint64_t variant) {
  const std::uint64_t job_seed = derive_seed(seed, variant);
  switch (workload) {
    case Workload::kPaperRow:
      // ROADMAP's headline row (n = 1024, 3 types, spring law, r_c = 3,
      // 6 frames, coarse-grained because n > 60), analysis streamed beside
      // the simulation. On a 4-vCPU Xeon (2.1 GHz) ICP is ~99% of every
      // frame at m = 100 and the whole simulation ~1.5% of the pipeline;
      // the traced run puts align.icp at ~96% of the wall at m = 9. So
      // this is the workload an alignment change moves nearly one for one;
      // KSG (9 rows) and k-means are noise here. m = 9 keeps a job near
      // 1.2 s on that host, so a run times enough jobs for a steady
      // median, and splits the 8 aligned rows evenly over 4 threads.
      return {"paper-row", spring_collective(1024, 48.0, 9, job_seed),
              sops::core::JobAnalysis::kStreamed};
    case Workload::kFig4Ensemble:
      // The paper's own Fig. 4 experiment (n = 50, 3 types, 250 steps,
      // 11 frames, m = 500), post-hoc analysis as `sops_run` runs it by
      // default. Serial split on the same host about sim 28%, ICP 36%,
      // KSG 33%: the only workload where `info` (KSG trees and queries at
      // m = 500) does real work, and ICP runs at small n over many samples
      // — the same layer used the other way round from paper-row.
      return {"fig4", fig4(500, job_seed), sops::core::JobAnalysis::kPostHoc};
    case Workload::kLargeCollective: {
      // One huge collective, record-only (like a shard run): double-
      // Gaussian law, n = 16384 at the paper's density (init radius
      // 1.5·√n), m = 2 < threads, so kAuto moves the budget inside each
      // step — the intra-step path ROADMAP calls mis-tuned on real cores
      // (4.1 M particle-steps/s at m = 2 against 5.9 M at m = 4 on the
      // same host).
      // The simulation (neighbour refresh, drift, integrate, record) does
      // all the work; align, cluster and info are bypassed entirely.
      const std::size_t n = 16384;
      return {"large",
              "types = 3\nforce = double_gaussian\nrc = 3\nparticles = " +
                  std::to_string(n) + "\ninit_radius = " +
                  std::to_string(1.5 * std::sqrt(static_cast<double>(n))) +
                  "\nsteps = 60\nstride = 20\nsamples = 2\nneighbor = auto\n"
                  "seed = " + std::to_string(job_seed) + "\n",
              sops::core::JobAnalysis::kNone};
    }
    case Workload::kServiceMix:
      break;
  }
  throw std::invalid_argument("batch_job: service-mix is not a batch workload");
}

JobSpec service_job(std::uint64_t seed, std::uint64_t sequence) {
  const std::uint64_t job_seed = derive_seed(seed, sequence);
  if (sequence % 2 == 0) {
    return {"small", spring_collective(256, 24.0, 32, job_seed),
            sops::core::JobAnalysis::kStreamed};
  }
  return {"fig4", fig4(100, job_seed), sops::core::JobAnalysis::kStreamed};
}

double particle_steps(const sops::core::ExperimentConfig& config) {
  return static_cast<double>(config.simulation.types.size()) *
         static_cast<double>(config.samples) *
         static_cast<double>(config.simulation.steps);
}

}  // namespace perfbench
