// The Fig. 5/7 phenomenon, hands on: a single-type F¹ collective forms two
// concentric regular polygons, and the rotation of the inner polygon
// relative to the outer one is a free degree of freedom.
//
// This example measures that degree of freedom directly: it aligns the
// ensemble (which pins the outer ring), extracts each sample's inner-ring
// rotation angle, and prints the angle histogram — approximately uniform,
// the signature of a genuinely free (high-entropy) internal coordinate that
// nevertheless carries multi-information because all inner particles share
// it.
//
//   ./rings_degree_of_freedom [samples]
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <numbers>
#include "example_args.hpp"

#include "core/sops.hpp"
#include "support/executor.hpp"

int main(int argc, char** argv) {
  using namespace sops;
  const bool smoke = examples::smoke_mode(argc, argv);
  const std::size_t samples = smoke ? 12 : examples::arg_or(argc, argv, 1, 300);

  sim::SimulationConfig simulation = core::presets::fig5_single_type_rings();
  simulation.record_stride = simulation.steps;  // endpoints only

  core::ExperimentConfig experiment(simulation);
  experiment.samples = samples;
  const core::EnsembleSeries series = core::run_experiment(experiment);
  support::TaskPool pool(0);  // align on every hardware thread
  align::EnsembleOptions pooled;
  pooled.executor = &pool.executor();
  const align::AlignedEnsemble aligned =
      align::align_ensemble(series.frames.back(), series.types, pooled);

  const std::size_t n = aligned.observer_count();
  const std::size_t m = aligned.sample_count();

  // Split observers into inner/outer ring by mean radius.
  std::vector<double> mean_radius(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < m; ++s) {
      mean_radius[i] += std::hypot(aligned.samples(s, 2 * i),
                                   aligned.samples(s, 2 * i + 1)) /
                        static_cast<double>(m);
    }
  }
  std::vector<double> sorted = mean_radius;
  std::sort(sorted.begin(), sorted.end());
  const double split = sorted[n / 2];

  std::size_t inner_count = 0;
  for (std::size_t i = 0; i < n; ++i) inner_count += (mean_radius[i] < split);
  std::cout << "collective of " << n << " particles: " << inner_count
            << " inner-ring, " << n - inner_count << " outer-ring\n";

  // Inner-ring rotation of each sample: the polygon angle modulo its
  // rotational symmetry (2π / inner_count).
  const double sector = 2.0 * std::numbers::pi /
                        static_cast<double>(std::max<std::size_t>(inner_count, 1));
  std::vector<double> angles;
  for (std::size_t s = 0; s < m; ++s) {
    // Mean angle offset of inner particles within their symmetry sector,
    // via the circular mean of (inner_count × angle).
    double sum_sin = 0.0;
    double sum_cos = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (mean_radius[i] >= split) continue;
      const double a = std::atan2(aligned.samples(s, 2 * i + 1),
                                  aligned.samples(s, 2 * i));
      sum_sin += std::sin(a * static_cast<double>(inner_count));
      sum_cos += std::cos(a * static_cast<double>(inner_count));
    }
    const double folded = std::atan2(sum_sin, sum_cos) /
                          static_cast<double>(inner_count);
    angles.push_back(folded);  // ∈ (−sector/2, sector/2]
  }

  // Histogram over the symmetry sector.
  constexpr std::size_t kBins = 12;
  std::vector<std::size_t> histogram(kBins, 0);
  for (const double a : angles) {
    const double f = (a + sector / 2.0) / sector;  // ∈ [0, 1)
    const auto bin = std::min<std::size_t>(
        static_cast<std::size_t>(f * kBins), kBins - 1);
    ++histogram[bin];
  }
  std::cout << "\ninner-ring rotation within one symmetry sector ("
            << m << " samples, " << kBins << " bins):\n";
  for (std::size_t b = 0; b < kBins; ++b) {
    std::cout << "  [" << b << "] " << std::string(histogram[b], '#') << " "
              << histogram[b] << "\n";
  }

  // Uniformity: max/min bin ratio should be moderate for a free DOF.
  const auto [min_it, max_it] =
      std::minmax_element(histogram.begin(), histogram.end());
  std::cout << "\nmin/max bin occupancy: " << *min_it << "/" << *max_it << "\n";
  std::cout << "The rotation angle spreads across the whole sector: the\n"
               "inner-ring orientation is a free internal degree of freedom.\n"
               "All inner particles share it, which is exactly the cross-\n"
               "particle correlation the multi-information measure detects\n"
               "(paper Figs. 5 and 7).\n";
  return 0;
}
