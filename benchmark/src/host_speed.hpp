// Host-speed index.  The benchmark host is a shared VM whose speed drifts by
// 10-20 % over tens of seconds as co-tenants come and go; that moves every
// timing by as much as a real regression would, and no run length averages
// it away.  A fixed scalar kernel, timed in thread CPU time on the load
// generator's own threads through set-up and the measured phase, slows down
// with the host.  Each timed end-to-end metric is reported at the kernel's
// reference speed: raw time / slowdown, raw rate x slowdown.  The kernel is
// built apart from the repository's code and flags, so no change to the
// program under test moves it.
#ifndef BENCH_E2E_HOST_SPEED_HPP
#define BENCH_E2E_HOST_SPEED_HPP

#include <cstddef>

namespace bench {

/// CPU time of the calling thread, in seconds.
[[nodiscard]] double thread_cpu_s();

/// Accumulates kernel timings taken on one thread.
class HostSpeed {
 public:
  /// Runs the kernel once (~0.1 ms of one core) on the calling thread.
  void sample();
  /// Mean kernel time over the samples / the reference time: above 1 when
  /// the host ran slower than the reference.  1 without samples.
  [[nodiscard]] double slowdown() const;
  [[nodiscard]] std::size_t samples() const { return samples_; }

 private:
  double cpu_s_ = 0.0;
  std::size_t samples_ = 0;
};

}  // namespace bench

#endif  // BENCH_E2E_HOST_SPEED_HPP
