// The yardstick: a fixed piece of work, defined here and nowhere in the
// library, timed in the same run as the workload and interleaved with it.
//
// The host this benchmark runs on changes speed while it runs — hypervisor
// steal takes slices of its vCPUs, and neighbours on the same cores slow
// every instruction, in phases from a fraction of a second to minutes — so
// a job's seconds move with the host as much as with the code. The
// yardstick moves with the host only. A run divides its median job time by
// the median yardstick time it measured between its jobs: the wall ratio
// is what users wait for (a change that loses parallelism raises it, one
// that spends CPU to finish sooner lowers it), the CPU ratio is the work
// done (a change that adds work raises it).
//
// The work is cut into pieces of about 5 ms and every statistic is a median
// over pieces, so a burst of steal that lands on one piece does not move
// it. Pairing each job with the pieces next to it was tried and was less
// steady than the run's medians: the bursts that hit a job are not the ones
// that hit its neighbouring pieces.
//
// It runs on the calling thread alone. A parallel yardstick would measure
// how fast idle vCPUs wake up and how a barrier fares against time-slicing
// as much as how fast they compute; on a 4-vCPU Xeon its median moved
// about 12% between runs against about 2% for the single thread.
#pragma once

#include <vector>

namespace perfbench {

class Yardstick {
 public:
  Yardstick();

  /// Runs `pieces` pieces of the work on the calling thread, timing each.
  void measure(int pieces);

  /// Median wall and CPU seconds of one piece, over every piece so far.
  [[nodiscard]] double wall_s() const;
  [[nodiscard]] double cpu_s() const;

 private:
  std::vector<double> buffer_;
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
  double sink_ = 0.0;  // keeps the work observable
};

}  // namespace perfbench
