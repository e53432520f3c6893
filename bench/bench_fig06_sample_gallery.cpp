// Fig. 6 — snapshots of different ensemble samples of the Fig. 4 system at
// t = 60 and t = 250.
//
// The paper's claim: final shapes show variety, but fall into a small
// number of visually distinct categories rather than being arbitrary —
// i.e. between-sample variation at t = 250 is much smaller than the
// variation of the initial condition, yet not zero.
#include "bench_common.hpp"
#include "support/executor.hpp"

int main(int argc, char** argv) {
  using namespace sops;
  const auto args = bench::parse_args(argc, argv);
  bench::print_header(
      "Fig. 6: ensemble sample gallery at t = 60 and t = 250",
      "final shapes vary but cluster into a few distinct categories", args);

  sim::SimulationConfig simulation = core::presets::fig4_three_type_collective();
  simulation.steps = args.steps(250, 250);
  simulation.record_stride = 10;

  core::ExperimentConfig experiment(simulation);
  experiment.samples = args.samples(40, 64);
  const core::EnsembleSeries series = core::run_experiment(experiment);

  // Frames nearest t = 0, 60, 250.
  auto frame_at = [&](std::size_t target) {
    std::size_t best = 0;
    for (std::size_t f = 0; f < series.frame_steps.size(); ++f) {
      if (series.frame_steps[f] <= target) best = f;
    }
    return best;
  };
  const std::size_t f0 = frame_at(0);
  const std::size_t f60 = frame_at(60);
  const std::size_t f250 = frame_at(simulation.steps);

  io::ScatterOptions scatter;
  scatter.width = 36;
  scatter.height = 15;
  for (std::size_t s = 0; s < 4; ++s) {
    std::cout << "sample " << s << " @ t=" << series.frame_steps[f60] << ":\n"
              << io::render_scatter(series.frames[f60][s], series.types, scatter)
              << "sample " << s << " @ t=" << series.frame_steps[f250] << ":\n"
              << io::render_scatter(series.frames[f250][s], series.types,
                                    scatter)
              << "\n";
    io::write_text_file(
        bench::out_path("fig06_sample" + std::to_string(s) + "_t250.svg"),
        io::render_svg(series.frames[f250][s], series.types));
  }
  std::cout << "SVG snapshots in bench_out/\n\n";

  // Quantify "variety but categories": align the ensemble at t=0 and t=250
  // and compare the mean pairwise distance between aligned samples,
  // normalized by the configuration scale (the collective physically
  // expands under the Fig. 4 forces, so absolute distances grow — what the
  // categories shrink is the *relative* between-sample variation).
  support::TaskPool pool(0);  // hardware width
  align::EnsembleOptions pooled;
  pooled.executor = &pool.executor();
  const align::AlignedEnsemble initial =
      align::align_ensemble(series.frames[f0], series.types, pooled);
  const align::AlignedEnsemble organized =
      align::align_ensemble(series.frames[f250], series.types, pooled);
  auto normalized_spread = [](const align::AlignedEnsemble& ensemble) {
    double rms_radius = 0.0;
    for (std::size_t s = 0; s < ensemble.sample_count(); ++s) {
      const auto row = ensemble.samples.row(s);
      for (const double v : row) rms_radius += v * v;
    }
    rms_radius = std::sqrt(
        rms_radius / static_cast<double>(ensemble.sample_count() *
                                         ensemble.samples.dim()));
    double total = 0.0;
    std::size_t count = 0;
    for (std::size_t a = 0; a < ensemble.sample_count(); ++a) {
      for (std::size_t b = a + 1; b < ensemble.sample_count(); ++b) {
        total += info::block_max_dist(ensemble.samples, a, b, ensemble.blocks);
        ++count;
      }
    }
    return total / static_cast<double>(count) / rms_radius;
  };
  const double spread_initial = normalized_spread(initial);
  const double spread_final = normalized_spread(organized);
  std::cout << "normalized aligned ensemble spread: t=0 " << spread_initial
            << ", t=" << simulation.steps << " " << spread_final << "\n";

  // "A few distinct categories": if final shapes cluster into categories,
  // the ensemble's variance concentrates along the category axis. Measure
  // the top-eigenvalue fraction of the aligned ensemble covariance by power
  // iteration and compare organized vs initial (isotropic noise).
  auto top_variance_fraction = [](const align::AlignedEnsemble& ensemble) {
    const std::size_t m = ensemble.sample_count();
    const std::size_t dim = ensemble.samples.dim();
    std::vector<double> mean(dim, 0.0);
    for (std::size_t s = 0; s < m; ++s) {
      const auto row = ensemble.samples.row(s);
      for (std::size_t d = 0; d < dim; ++d) mean[d] += row[d];
    }
    for (double& v : mean) v /= static_cast<double>(m);

    std::vector<double> direction(dim, 1.0 / std::sqrt(static_cast<double>(dim)));
    std::vector<double> next(dim);
    double top_eigenvalue = 0.0;
    for (int iter = 0; iter < 100; ++iter) {
      std::fill(next.begin(), next.end(), 0.0);
      for (std::size_t s = 0; s < m; ++s) {
        const auto row = ensemble.samples.row(s);
        double projection = 0.0;
        for (std::size_t d = 0; d < dim; ++d) {
          projection += (row[d] - mean[d]) * direction[d];
        }
        for (std::size_t d = 0; d < dim; ++d) {
          next[d] += projection * (row[d] - mean[d]);
        }
      }
      double norm = 0.0;
      for (const double v : next) norm += v * v;
      norm = std::sqrt(norm);
      top_eigenvalue = norm / static_cast<double>(m);
      for (std::size_t d = 0; d < dim; ++d) direction[d] = next[d] / norm;
    }
    double total_variance = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
      const auto row = ensemble.samples.row(s);
      for (std::size_t d = 0; d < dim; ++d) {
        total_variance += (row[d] - mean[d]) * (row[d] - mean[d]);
      }
    }
    total_variance /= static_cast<double>(m);
    return top_eigenvalue / total_variance;
  };
  const double concentration_initial = top_variance_fraction(initial);
  const double concentration_final = top_variance_fraction(organized);
  std::cout << "top-eigenvalue variance fraction: t=0 " << concentration_initial
            << ", t=" << simulation.steps << " " << concentration_final << "\n";

  bool all = true;
  all &= bench::check(concentration_final > 1.5 * concentration_initial,
                      "final ensemble variance concentrates along category "
                      "axes (shapes fall into a few categories)");
  all &= bench::check(spread_final > 0.05 * spread_initial,
                      "final shapes retain variety (not a single attractor)");

  std::cout << (all ? "RESULT: figure shape reproduced\n"
                    : "RESULT: MISMATCH against paper claim\n");
  return 0;
}
