#include "dsp/windows.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <utility>

namespace nsync::dsp {

namespace {
constexpr double kPi = std::numbers::pi;
}

std::vector<double> make_window(WindowType type, std::size_t n) {
  std::vector<double> w(n, 1.0);
  if (n <= 1) return w;
  const double denom = static_cast<double>(n - 1);
  switch (type) {
    case WindowType::kBoxcar:
      break;
    case WindowType::kHann:
      for (std::size_t i = 0; i < n; ++i) {
        w[i] = 0.5 - 0.5 * std::cos(2.0 * kPi * static_cast<double>(i) / denom);
      }
      break;
    case WindowType::kBlackmanHarris: {
      constexpr double a0 = 0.35875, a1 = 0.48829, a2 = 0.14128, a3 = 0.01168;
      for (std::size_t i = 0; i < n; ++i) {
        const double x = 2.0 * kPi * static_cast<double>(i) / denom;
        w[i] = a0 - a1 * std::cos(x) + a2 * std::cos(2.0 * x) -
               a3 * std::cos(3.0 * x);
      }
      break;
    }
    case WindowType::kGaussian:
      return gaussian_window(n, static_cast<double>(n) / 6.0);
  }
  return w;
}

std::shared_ptr<const std::vector<double>> cached_window(WindowType type,
                                                         std::size_t n) {
  using Key = std::pair<WindowType, std::size_t>;
  static std::mutex mu;
  static std::map<Key, std::shared_ptr<const std::vector<double>>> cache;
  const Key key{type, n};
  {
    std::lock_guard<std::mutex> lock(mu);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  auto w = std::make_shared<const std::vector<double>>(make_window(type, n));
  std::lock_guard<std::mutex> lock(mu);
  return cache.emplace(key, std::move(w)).first->second;
}

std::vector<double> gaussian_window(std::size_t n, double sigma) {
  if (sigma <= 0.0) {
    throw std::invalid_argument("gaussian_window: sigma must be positive");
  }
  std::vector<double> w(n, 1.0);
  if (n <= 1) return w;
  const double center = static_cast<double>(n - 1) / 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (static_cast<double>(i) - center) / sigma;
    w[i] = std::exp(-0.5 * d * d);
  }
  return w;
}

}  // namespace nsync::dsp
