// The traced run's rebuilds of the library's per-frame analysis and
// per-sample step loop, made from the same public calls in the same order,
// with a span around each call. A rebuild that does not reproduce the
// library's output bitwise describes a different program, so the traced
// run compares both against the library before reporting anything.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/analyzer.hpp"
#include "sim/simulation.hpp"
#include "trace.hpp"

namespace perfbench {

/// Work counts gathered at the traced call sites.
struct LayerCounts {
  std::atomic<std::size_t> icp_calls{0};
  std::atomic<std::size_t> icp_iterations{0};  ///< winning restarts only
  std::atomic<std::size_t> coarse_grain_calls{0};
  std::atomic<std::size_t> ksg_calls{0};
  std::atomic<std::size_t> trees{0};  ///< FrameNeighborCache::tree_count
  std::atomic<std::size_t> steps{0};  ///< drift evaluations of the step loop
};

/// core::analyze_frame, rebuilt: center, ICP, transform, re-center and
/// match every row on `executor`, coarse-grain, resolve the frame's KSG
/// trees, then estimate. Every span hangs below one root span
/// "trace.frame" in group `group`.
[[nodiscard]] sops::core::FrameAnalysis traced_analyze_frame(
    Tracer& tracer, LayerCounts& counts, std::uint64_t group,
    sops::geom::FrameView frame, const std::vector<sops::sim::TypeId>& types,
    std::size_t step, std::size_t frame_index, bool coarse,
    const sops::core::AnalysisOptions& options,
    sops::support::Executor& executor);

/// sim::run_simulation_streamed's step loop for a fixed recording grid,
/// rebuilt: prepare, then per step drift, residual, record (on the grid)
/// and integrate, below one root span "trace.sample". Returns the recorded
/// frames.
[[nodiscard]] std::vector<std::vector<sops::geom::Vec2>> traced_run_sample(
    Tracer& tracer, LayerCounts& counts, std::uint64_t group,
    const sops::sim::SimulationConfig& config,
    sops::sim::SimulationWorkspace& workspace);

}  // namespace perfbench
