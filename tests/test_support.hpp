// Test-only fixtures and oracles that no production binary needs: a
// circle outline for small fast parts, polygon and sample measures,
// appending a view to a signal, a noise-free print simulation, every
// session's snapshot of an engine, and the whole-array channel score.
#ifndef NSYNC_TESTS_TEST_SUPPORT_HPP
#define NSYNC_TESTS_TEST_SUPPORT_HPP

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "engine/monitor_engine.hpp"
#include "gcode/geometry.hpp"
#include "gcode/program.hpp"
#include "printer/simulator.hpp"
#include "signal/rng.hpp"
#include "signal/signal.hpp"

namespace nsync::test_support {

/// Regular polygon approximating a circle of `radius` around the origin.
inline gcode::Polygon circle_outline(double radius, std::size_t points = 64) {
  if (radius <= 0.0 || points < 3) {
    throw std::invalid_argument("circle_outline: invalid parameters");
  }
  std::vector<gcode::Point2> v(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double a = 2.0 * std::numbers::pi * static_cast<double>(i) /
                     static_cast<double>(points);
    v[i] = {radius * std::cos(a), radius * std::sin(a)};
  }
  return gcode::Polygon(std::move(v));
}

/// Shoelace area, either winding.
inline double area(const gcode::Polygon& poly) {
  const auto& v = poly.vertices();
  if (v.size() < 3) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto& p = v[i];
    const auto& q = v[(i + 1) % v.size()];
    acc += p.x * q.y - q.x * p.y;
  }
  return 0.5 * std::abs(acc);
}

inline double perimeter(const gcode::Polygon& poly) {
  const auto& v = poly.vertices();
  if (v.size() < 2) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const auto& p = v[i];
    const auto& q = v[(i + 1) % v.size()];
    acc += std::hypot(q.x - p.x, q.y - p.y);
  }
  return acc;
}

/// Even-odd point-in-polygon test.
inline bool contains(const gcode::Polygon& poly, gcode::Point2 p) {
  const auto& v = poly.vertices();
  bool inside = false;
  const std::size_t n = v.size();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    const auto& a = v[i];
    const auto& b = v[j];
    if ((a.y > p.y) != (b.y > p.y)) {
      const double xint = (b.x - a.x) * (p.y - a.y) / (b.y - a.y) + a.x;
      if (p.x < xint) inside = !inside;
    }
  }
  return inside;
}

/// Root mean square of `v` (0 when empty).
inline double rms(std::span<const double> v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (const double x : v) acc += x * x;
  return std::sqrt(acc / static_cast<double>(v.size()));
}

/// Population standard deviation of `v` (0 for fewer than 2 samples).
inline double stddev(std::span<const double> v) {
  if (v.size() < 2) return 0.0;
  double mu = 0.0;
  for (const double x : v) mu += x;
  mu /= static_cast<double>(v.size());
  double acc = 0.0;
  for (const double x : v) acc += (x - mu) * (x - mu);
  return std::sqrt(acc / static_cast<double>(v.size()));
}

/// Appends every frame of `src` to `dst`; channel counts must match.
inline void append(signal::Signal& dst, const signal::SignalView& src) {
  for (std::size_t n = 0; n < src.frames(); ++n) {
    dst.append_frame(src.frame(n));
  }
}

/// A time-noise model with every source switched off.
inline printer::TimeNoiseConfig no_time_noise() {
  printer::TimeNoiseConfig c;
  c.duration_jitter_std = 0.0;
  c.gap_probability = 0.0;
  c.gap_mean = 0.0;
  c.start_offset_std = 0.0;
  c.drift_amplitude = 0.0;
  return c;
}

/// Noise-free execution of `program`: the reference run "by simulating a
/// process with its G-code file" (Section IV).
inline printer::MotionTrace simulate_print_noiseless(
    const gcode::Program& program, const printer::MachineConfig& m,
    const printer::ExecutorConfig& cfg) {
  printer::MachineConfig quiet = m;
  quiet.time_noise = no_time_noise();
  const printer::MotionPlan plan = printer::plan_program(program, quiet);
  signal::Rng rng(0);
  return printer::execute_plan(plan, quiet, cfg, rng);
}

/// snapshot(i) of every session the engine holds, in id order.
inline std::vector<engine::SessionSnapshot> snapshots(
    const engine::MonitorEngine& eng) {
  std::vector<engine::SessionSnapshot> out;
  out.reserve(eng.sessions());
  for (std::size_t i = 0; i < eng.sessions(); ++i) {
    out.push_back(eng.snapshot(i));
  }
  return out;
}

/// The channel score as a rescan of every window: the largest
/// threshold_ratio over each feature array, folded from 0 in array order.
/// Oracle for core::channel_score, which reads only the feature maxima.
inline double rescan_channel_score(const core::DetectionFeatures& f,
                                   const core::Thresholds& t) {
  double peak = 0.0;
  for (const double v : f.c_disp) {
    peak = std::max(peak, core::threshold_ratio(v, t.c_c));
  }
  for (const double v : f.h_dist_f) {
    peak = std::max(peak, core::threshold_ratio(v, t.h_c));
  }
  for (const double v : f.v_dist_f) {
    peak = std::max(peak, core::threshold_ratio(v, t.v_c));
  }
  return peak;
}

/// Bitwise equality of two doubles (tells -0.0 from 0.0, NaN == NaN).
inline bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace nsync::test_support

#endif  // NSYNC_TESTS_TEST_SUPPORT_HPP
