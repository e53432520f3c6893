// Information dynamics within a collective — the paper's §7.3 outlook made
// concrete: who stores information, and who sends it to whom?
//
// Runs a small three-type collective once (long trajectory, identity
// preserved), then prints each particle's active information storage and
// the strongest transfer-entropy links. Note these are time-resolved
// statistics: they use the RAW trajectory, never the permutation-reduced
// shape space (paper §5.2).
//
//   ./information_dynamics [steps]
#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include "example_args.hpp"

#include "core/sops.hpp"
#include "support/executor.hpp"

int main(int argc, char** argv) {
  using namespace sops;
  const bool smoke = examples::smoke_mode(argc, argv);
  const std::size_t steps = smoke ? 60 : examples::arg_or(argc, argv, 1, 2500);

  // A small collective so the n² TE matrix stays readable.
  sim::SimulationConfig simulation = core::presets::fig4_three_type_collective();
  simulation.types = sim::evenly_distributed_types(9, 3);
  simulation.steps = steps;
  simulation.record_stride = 1;
  simulation.seed = 0x1D7;
  const sim::Trajectory trajectory = sim::run_simulation(simulation);
  const std::size_t n = trajectory.particle_count();

  std::cout << "collective of " << n << " particles, " << steps
            << " recorded steps\n\nfinal configuration:\n"
            << io::render_scatter(trajectory.frames.back(), trajectory.types)
            << "\n";

  // Every estimate below runs on one pool of hardware width.
  support::TaskPool pool(0);
  info::TransferEntropyOptions options;
  options.executor = &pool.executor();

  // Active information storage per particle.
  std::cout << "active information storage (bits):\n";
  for (std::size_t i = 0; i < n; ++i) {
    const double ais = info::particle_active_information_storage(
        trajectory.frames, i, options);
    std::cout << "  particle " << i << " (type " << trajectory.types[i]
              << "): " << std::fixed << std::setprecision(3) << ais << "\n";
  }

  // Transfer-entropy matrix; report the strongest directed links.
  const auto te = info::transfer_entropy_matrix(trajectory.frames, options);
  struct Link {
    std::size_t from;
    std::size_t to;
    double bits;
  };
  std::vector<Link> links;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      if (a != b) links.push_back({a, b, te[a][b]});
    }
  }
  std::sort(links.begin(), links.end(),
            [](const Link& x, const Link& y) { return x.bits > y.bits; });

  std::cout << "\nstrongest transfer-entropy links:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(links.size(), 8); ++i) {
    const Link& link = links[i];
    const double d = geom::dist(trajectory.frames.back()[link.from],
                                trajectory.frames.back()[link.to]);
    std::cout << "  " << link.from << " -> " << link.to << ": " << link.bits
              << " bits  (final distance " << std::setprecision(2) << d
              << ")\n";
  }

  // Do strong links coincide with spatial proximity?
  double near_te = 0.0;
  double far_te = 0.0;
  std::size_t near_count = 0;
  std::size_t far_count = 0;
  for (const Link& link : links) {
    const double d = geom::dist(trajectory.frames.back()[link.from],
                                trajectory.frames.back()[link.to]);
    if (d < simulation.cutoff_radius) {
      near_te += link.bits;
      ++near_count;
    } else {
      far_te += link.bits;
      ++far_count;
    }
  }
  const double near_mean = near_count ? near_te / near_count : 0.0;
  const double far_mean = far_count ? far_te / far_count : 0.0;
  std::cout << "\nmean TE within r_c: " << near_mean << " bits over "
            << near_count << " pairs\nmean TE beyond r_c: " << far_mean
            << " bits over " << far_count << " pairs\n\n";
  if (near_mean > far_mean) {
    std::cout << "Interacting neighbors exchange more information — the\n"
                 "spread of information through local interactions is the\n"
                 "mechanism the paper identifies as the enabler of\n"
                 "self-organization (par. 6.1 / Steudel & Ay).\n";
  } else {
    std::cout << "At this trajectory length the near/far TE means are not\n"
                 "separated — the KSG conditional estimator needs longer\n"
                 "series (rerun with more steps; the paper itself calls\n"
                 "these measurements 'inconclusive' at par. 7.3).\n";
  }
  return 0;
}
