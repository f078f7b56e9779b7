// Deterministic random-number source.  Every stochastic component of the
// simulator (time noise, sensor noise, DAQ frame drops) draws from an Rng
// that is explicitly seeded, so whole experiments are reproducible from a
// single seed.
#ifndef NSYNC_SIGNAL_RNG_HPP
#define NSYNC_SIGNAL_RNG_HPP

#include <cstdint>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>

namespace nsync::signal {

/// Thin, copyable wrapper over std::mt19937_64 with convenience draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Normal draw with the given mean and standard deviation.
  double normal(double mu = 0.0, double sigma = 1.0) {
    return std::normal_distribution<double>(mu, sigma)(engine_);
  }

  /// Exponential draw with the given rate.
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli draw with probability p of true.
  bool bernoulli(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Derives an independent child stream (for per-sensor / per-run seeding).
  [[nodiscard]] Rng fork() {
    return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL);
  }

  /// Serializes the full engine state (the standard textual mt19937_64
  /// representation) so a checkpointed stochastic component resumes its
  /// stream exactly where it left off.
  [[nodiscard]] std::string save_state() const {
    std::ostringstream out;
    out << engine_;
    return out.str();
  }

  /// Restores a state produced by save_state().  The subsequent draw
  /// sequence is identical to the uninterrupted one.  Throws
  /// std::invalid_argument on a malformed blob (state unchanged).
  void restore_state(const std::string& state) {
    std::istringstream in(state);
    std::mt19937_64 engine;
    in >> engine;
    if (!in) {
      throw std::invalid_argument("Rng::restore_state: malformed state");
    }
    engine_ = engine;
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace nsync::signal

#endif  // NSYNC_SIGNAL_RNG_HPP
