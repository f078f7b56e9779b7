#include "host_speed.hpp"

#include <time.h>

#include <cmath>
#include <vector>

namespace bench {

namespace {

constexpr std::size_t kLength = 4096;
constexpr std::size_t kTaps = 16;
/// Typical kernel time on a shared 4-vCPU Xeon (Sapphire Rapids) KVM
/// guest, GCC 12: the speed every timed metric is reported at.
constexpr double kReferenceS = 72e-6;

const std::vector<double>& signal() {
  thread_local const std::vector<double> x = [] {
    std::vector<double> v(kLength + kTaps);
    for (std::size_t i = 0; i < v.size(); ++i) {
      v[i] = std::sin(0.001 * static_cast<double>(i));
    }
    return v;
  }();
  return x;
}

/// A 16-tap FIR over the signal, twice: scalar dependent adds, a cache-
/// resident working set, no calls into the program under test.
double kernel(const std::vector<double>& x) {
  double acc = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t i = 0; i < kLength; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < kTaps; ++j) s += x[i + j] * x[j];
      acc += s;
    }
  }
  return acc;
}

}  // namespace

double thread_cpu_s() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void HostSpeed::sample() {
  const std::vector<double>& x = signal();
  const double t0 = thread_cpu_s();
  volatile double sink = kernel(x);
  (void)sink;
  cpu_s_ += thread_cpu_s() - t0;
  ++samples_;
}

double HostSpeed::slowdown() const {
  if (samples_ == 0) return 1.0;
  return cpu_s_ / static_cast<double>(samples_) / kReferenceS;
}

}  // namespace bench
