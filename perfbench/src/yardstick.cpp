#include "yardstick.hpp"

#include <cmath>

#include "stats.hpp"

namespace perfbench {

namespace {

// 64 Ki doubles (512 KiB): well past L1, so the work pays for cache
// traffic as the analysis kernels do, not for arithmetic alone.
constexpr std::size_t kElements = std::size_t{1} << 16;
constexpr std::size_t kPasses = 32;  // one piece: about 5 ms

// A fixed mix of dependent floating point and scattered loads: every pass
// reads each element once in an odd-stride order (a permutation, since the
// stride is odd and the length a power of two).
double work(std::vector<double>& x) {
  for (std::size_t i = 0; i < kElements; ++i) {
    x[i] = 1.0 + static_cast<double>(i % 97) * 1e-2;
  }
  double acc = 0.0;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    const std::size_t stride = 2 * (pass * 7919 % kElements) + 40503;
    for (std::size_t i = 0; i < kElements; ++i) {
      const std::size_t j = (i * stride) & (kElements - 1);
      x[i] = 0.999 * x[i] + 1e-3 * std::sqrt(x[j]);
      acc += x[j];
    }
  }
  return acc;
}

}  // namespace

Yardstick::Yardstick() : buffer_(kElements) {}

void Yardstick::measure(int pieces) {
  for (int i = 0; i < pieces; ++i) {
    const double cpu_start = thread_cpu_seconds();
    const auto start = Clock::now();
    sink_ += work(buffer_);
    wall_s_.push_back(seconds_between(start, Clock::now()));
    cpu_s_.push_back(thread_cpu_seconds() - cpu_start);
  }
}

double Yardstick::wall_s() const { return median(wall_s_); }
double Yardstick::cpu_s() const { return median(cpu_s_); }

}  // namespace perfbench
