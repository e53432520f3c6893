// The benchmark's workloads and the inputs each one derives from its seed.
//
// Every job is described by the key=value config text `sops_run` reads and
// `sopsd` accepts, so the batch workloads and the service workload build
// their experiments through the same core::build_experiment call.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "core/job_manager.hpp"

namespace perfbench {

enum class Workload { kPaperRow, kFig4Ensemble, kLargeCollective, kServiceMix };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] const char* workload_name(Workload workload) noexcept;

/// One job: its config text and how its analysis runs.
struct JobSpec {
  std::string kind;  ///< "paper-row", "fig4", "large", "small"
  std::string config_text;
  sops::core::JobAnalysis analysis = sops::core::JobAnalysis::kPostHoc;
};

/// A batch run cycles through this many variants of its job — the same
/// collective and sizes, each with its own seed. One variant's cost depends
/// on its seed (every frame aligns to one random reference sample), so a
/// run's median over several variants moves less from seed to seed.
inline constexpr std::size_t kBatchVariants = 4;

/// Variant `variant` of the job a batch workload repeats.
[[nodiscard]] JobSpec batch_job(Workload workload, std::uint64_t seed,
                                std::uint64_t variant);

/// Job `sequence` of the service mix: even sequences are small jobs, odd
/// ones fig4 jobs, each with its own seed drawn from the workload seed.
[[nodiscard]] JobSpec service_job(std::uint64_t seed, std::uint64_t sequence);

/// splitmix64 of (seed, index), cut to 53 bits: independent per-job seeds
/// from one seed, exact in config text.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed,
                                        std::uint64_t index) noexcept;

/// n · m · steps of a built experiment.
[[nodiscard]] double particle_steps(const sops::core::ExperimentConfig& config);

}  // namespace perfbench
