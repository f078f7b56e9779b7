#include "signal/filters.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <stdexcept>

namespace nsync::signal {

namespace {

void check_window(std::size_t window, const char* who) {
  if (window == 0) {
    throw std::invalid_argument(std::string(who) + ": window must be >= 1");
  }
}

}  // namespace

std::vector<double> min_filter(std::span<const double> v, std::size_t window) {
  check_window(window, "min_filter");
  // Sliding minimum via a monotonic deque (O(n) total).
  std::vector<double> out(v.size());
  std::deque<std::size_t> dq;  // indexes, minimum at front
  for (std::size_t i = 0; i < v.size(); ++i) {
    while (!dq.empty() && !(v[dq.back()] < v[i])) dq.pop_back();
    dq.push_back(i);
    if (dq.front() + window <= i) dq.pop_front();
    out[i] = v[dq.front()];
  }
  return out;
}

std::vector<double> moving_average(std::span<const double> v,
                                   std::size_t window) {
  check_window(window, "moving_average");
  std::vector<double> out(v.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc += v[i];
    if (i >= window) acc -= v[i - window];
    const std::size_t n = std::min(i + 1, window);
    out[i] = acc / static_cast<double>(n);
  }
  return out;
}

std::vector<double> median_filter(std::span<const double> v,
                                  std::size_t window) {
  check_window(window, "median_filter");
  if (window % 2 == 0) {
    throw std::invalid_argument("median_filter: window must be odd");
  }
  std::vector<double> out(v.size());
  const std::ptrdiff_t half = static_cast<std::ptrdiff_t>(window / 2);
  std::vector<double> buf;
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(v.size()); ++i) {
    const std::ptrdiff_t lo = std::max<std::ptrdiff_t>(0, i - half);
    const std::ptrdiff_t hi =
        std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(v.size()),
                                 i + half + 1);
    buf.assign(v.begin() + lo, v.begin() + hi);
    auto mid = buf.begin() + (buf.size() / 2);
    std::nth_element(buf.begin(), mid, buf.end());
    out[static_cast<std::size_t>(i)] = *mid;
  }
  return out;
}

std::vector<double> cumulative_abs_diff(std::span<const double> v,
                                        double initial) {
  std::vector<double> out(v.size());
  double acc = 0.0;
  double prev = initial;
  for (std::size_t i = 0; i < v.size(); ++i) {
    acc += std::abs(v[i] - prev);
    prev = v[i];
    out[i] = acc;
  }
  return out;
}

}  // namespace nsync::signal
