#include "core/distance.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "signal/stats.hpp"

namespace nsync::core {

using nsync::signal::SignalView;

std::string distance_metric_name(DistanceMetric m) {
  switch (m) {
    case DistanceMetric::kCorrelation: return "correlation";
    case DistanceMetric::kCosine: return "cosine";
    case DistanceMetric::kEuclidean: return "euclidean";
    case DistanceMetric::kManhattan: return "manhattan";
    case DistanceMetric::kMae: return "mae";
  }
  return "unknown";
}

double vector_distance(std::span<const double> u, std::span<const double> v,
                       DistanceMetric metric) {
  if (u.size() != v.size()) {
    throw std::invalid_argument("vector_distance: length mismatch");
  }
  if (u.empty()) return 0.0;
  switch (metric) {
    case DistanceMetric::kCorrelation:
      return 1.0 - nsync::signal::pearson(u, v);
    case DistanceMetric::kCosine: {
      double dot = 0.0, nu = 0.0, nv = 0.0;
      for (std::size_t i = 0; i < u.size(); ++i) {
        dot += u[i] * v[i];
        nu += u[i] * u[i];
        nv += v[i] * v[i];
      }
      const double denom = std::sqrt(nu) * std::sqrt(nv);
      if (denom <= 0.0) return 1.0;
      return 1.0 - dot / denom;
    }
    case DistanceMetric::kEuclidean: {
      double acc = 0.0;
      for (std::size_t i = 0; i < u.size(); ++i) {
        const double d = u[i] - v[i];
        acc += d * d;
      }
      return std::sqrt(acc);
    }
    case DistanceMetric::kManhattan: {
      double acc = 0.0;
      for (std::size_t i = 0; i < u.size(); ++i) acc += std::abs(u[i] - v[i]);
      return acc;
    }
    case DistanceMetric::kMae: {
      double acc = 0.0;
      for (std::size_t i = 0; i < u.size(); ++i) acc += std::abs(u[i] - v[i]);
      return acc / static_cast<double>(u.size());
    }
  }
  throw std::invalid_argument("vector_distance: unknown metric");
}

double frame_distance(const SignalView& a, std::size_t i, const SignalView& b,
                      std::size_t j, DistanceMetric metric) {
  return vector_distance(a.frame(i), b.frame(j), metric);
}

double window_distance(const SignalView& u, const SignalView& v,
                       DistanceMetric metric) {
  DistanceWorkspace ws;
  return window_distance(u, v, metric, ws);
}

double window_distance(const SignalView& u, const SignalView& v,
                       DistanceMetric metric, DistanceWorkspace& ws) {
  if (u.frames() != v.frames() || u.channels() != v.channels()) {
    throw std::invalid_argument("window_distance: shape mismatch");
  }
  if (u.channels() == 0 || u.frames() == 0) return 0.0;
  double acc = 0.0;
  ws.u.resize(u.frames());
  ws.v.resize(v.frames());
  for (std::size_t c = 0; c < u.channels(); ++c) {
    for (std::size_t n = 0; n < u.frames(); ++n) {
      ws.u[n] = u(n, c);
      ws.v[n] = v(n, c);
    }
    acc += vector_distance(ws.u, ws.v, metric);
  }
  return acc / static_cast<double>(u.channels());
}

}  // namespace nsync::core
