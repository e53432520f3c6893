#include "rebuild.hpp"

#include <optional>

#include "align/ensemble.hpp"
#include "geom/rigid_transform.hpp"
#include "info/neighbor_cache.hpp"
#include "sim/detectors.hpp"
#include "sim/forces.hpp"
#include "sim/integrator.hpp"
#include "support/error.hpp"
#include "support/parallel_for.hpp"

namespace perfbench {

namespace geom = sops::geom;
namespace sim = sops::sim;

sops::core::FrameAnalysis traced_analyze_frame(
    Tracer& tracer, LayerCounts& counts, std::uint64_t group,
    geom::FrameView frame, const std::vector<sim::TypeId>& types,
    std::size_t step, std::size_t frame_index, bool coarse,
    const sops::core::AnalysisOptions& options,
    sops::support::Executor& executor) {
  sops::support::expect(
      !options.compute_entropies && !options.compute_decomposition,
      "traced_analyze_frame: only the multi-information path is rebuilt");
  const ScopedSpan root(tracer, "trace.frame", 0, group);
  const sops::align::EnsembleOptions& ensemble = options.ensemble;

  // align::align_ensemble: row 0 is the centred reference; every other row
  // is centred, ICP-rotated, re-centred and permuted onto it.
  const std::size_t n = types.size();
  const std::size_t m = frame.size();
  sops::align::AlignedEnsemble aligned;
  aligned.samples = sops::info::SampleMatrix(m, 2 * n);
  aligned.blocks = sops::info::uniform_blocks(n, 2);
  aligned.block_types = types;
  const auto write_row = [&](std::size_t s, const std::vector<geom::Vec2>& points) {
    auto row = aligned.samples.row(s);
    for (std::size_t i = 0; i < n; ++i) {
      row[2 * i] = points[i].x;
      row[2 * i + 1] = points[i].y;
    }
  };
  std::vector<geom::Vec2> reference;
  {
    const ScopedSpan span(tracer, "align.center", root.id(), group);
    reference = geom::centered(frame[0]);
  }
  write_row(0, reference);

  const auto align_sample = [&](std::size_t s) {
    // The row's own self time is the permutation and the row write.
    const ScopedSpan row(tracer, "align.row", root.id(), group);
    std::vector<geom::Vec2> moved;
    {
      const ScopedSpan span(tracer, "align.center", row.id(), group);
      moved = geom::centered(frame[s]);
    }
    if (ensemble.rotations) {
      sops::align::IcpResult icp;
      {
        const ScopedSpan span(tracer, "align.icp", row.id(), group);
        icp = sops::align::align_icp(moved, types, reference, types,
                                     ensemble.icp);
      }
      counts.icp_calls.fetch_add(1, std::memory_order_relaxed);
      counts.icp_iterations.fetch_add(icp.iterations, std::memory_order_relaxed);
      {
        const ScopedSpan span(tracer, "align.transform", row.id(), group);
        moved = icp.transform.apply(moved);
      }
      {
        const ScopedSpan span(tracer, "align.center", row.id(), group);
        moved = geom::centered(moved);
      }
    }
    if (ensemble.permutations) {
      std::vector<std::size_t> match;
      {
        const ScopedSpan span(tracer, "align.match", row.id(), group);
        match = sops::align::match_by_type(moved, types, reference, types);
      }
      std::vector<geom::Vec2> permuted(n);
      for (std::size_t i = 0; i < n; ++i) permuted[match[i]] = moved[i];
      moved = std::move(permuted);
    }
    write_row(s, moved);
  };
  sops::support::parallel_for(executor, 1, m, align_sample);

  if (coarse) {
    const ScopedSpan span(tracer, "cluster.coarse_grain", root.id(), group);
    sops::rng::Xoshiro256 engine = sops::rng::make_stream(
        options.kmeans_seed, static_cast<std::uint64_t>(frame_index));
    aligned = sops::align::coarse_grain_ensemble(aligned, options.kmeans_per_type,
                                                 engine);
    counts.coarse_grain_calls.fetch_add(1, std::memory_order_relaxed);
  }

  sops::info::KsgOptions ksg = options.ksg;
  ksg.threads = 1;
  ksg.executor = &executor;
  std::optional<sops::info::FrameNeighborCache> cache;
  if (options.reuse_neighbor_cache &&
      ksg.search == sops::info::NeighborSearch::kBlockedTree) {
    // The estimator's marginal trees, resolved ahead of the call so their
    // build time is its own span; the estimator then finds them cached.
    const ScopedSpan span(tracer, "info.ksg_tree", root.id(), group);
    cache.emplace(aligned.samples);
    for (const sops::info::Block& block : aligned.blocks) {
      (void)cache->tree_for({&block, 1});
    }
    ksg.cache = &*cache;
    counts.trees.fetch_add(cache->tree_count(), std::memory_order_relaxed);
  }

  sops::core::FrameAnalysis out;
  out.observer_count = aligned.observer_count();
  out.point.step = step;
  {
    const ScopedSpan span(tracer, "info.ksg_query", root.id(), group);
    out.point.multi_information = sops::info::multi_information_ksg(
        aligned.samples, aligned.blocks, ksg);
  }
  counts.ksg_calls.fetch_add(1, std::memory_order_relaxed);
  return out;
}

std::vector<std::vector<geom::Vec2>> traced_run_sample(
    Tracer& tracer, LayerCounts& counts, std::uint64_t group,
    const sim::SimulationConfig& config, sim::SimulationWorkspace& workspace) {
  sops::support::expect(!config.stop_at_equilibrium,
                        "traced_run_sample: fixed recording grids only");
  const ScopedSpan root(tracer, "trace.sample", 0, group);

  std::optional<sim::ParticleSystem> system;
  {
    const ScopedSpan span(tracer, "sim.prepare", root.id(), group);
    workspace.prepare(config);
    workspace.engine() = sops::rng::make_stream(config.seed, config.stream);
    system.emplace(sim::sample_initial_disc(config.types.size(),
                                            config.init_disc_radius,
                                            workspace.engine()),
                   config.types);
  }
  sops::rng::Xoshiro256& engine = workspace.engine();
  std::vector<geom::Vec2>& drift = workspace.drift();
  geom::NeighborBackend& backend = workspace.backend();
  sops::support::Executor& step_executor = workspace.step_executor();
  sim::EquilibriumDetector equilibrium(config.equilibrium.threshold,
                                       config.equilibrium.hold_steps);
  const std::vector<std::size_t> grid =
      sim::recording_steps(config.steps, config.record_stride);
  std::size_t next_grid_index = 0;

  std::vector<std::vector<geom::Vec2>> frames;
  for (std::size_t t = 0;; ++t) {
    {
      const ScopedSpan span(tracer, "sim.drift", root.id(), group);
      sim::accumulate_drift(*system, workspace.scaling_table(),
                            config.cutoff_radius, drift, backend, step_executor);
    }
    counts.steps.fetch_add(1, std::memory_order_relaxed);
    const bool on_grid =
        next_grid_index < grid.size() && grid[next_grid_index] == t;
    if (on_grid) ++next_grid_index;
    double residual = 0.0;
    if (config.track_equilibrium || on_grid) {
      const ScopedSpan span(tracer, "sim.residual", root.id(), group);
      residual = sim::total_drift_norm(drift);
    }
    if (on_grid) {
      const ScopedSpan span(tracer, "sim.record", root.id(), group);
      geom::interleave(system->lanes(), frames.emplace_back());
    }
    if (t == config.steps) break;
    {
      const ScopedSpan span(tracer, "sim.integrate", root.id(), group);
      sim::apply_euler_maruyama_update(*system, drift, config.integrator,
                                       engine);
    }
    if (config.track_equilibrium) equilibrium.update(residual);
  }
  return frames;
}

}  // namespace perfbench
