#include "core/tde.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/simd/simd.hpp"

namespace nsync::core {

using nsync::signal::SignalView;

namespace simd = nsync::dsp::simd;

namespace {

void check_shapes(const SignalView& x, const SignalView& y) {
  if (x.channels() != y.channels()) {
    throw std::invalid_argument("similarity_scores: channel mismatch");
  }
  if (y.frames() < 2 || x.frames() < y.frames()) {
    throw std::invalid_argument(
        "similarity_scores: need x.frames() >= y.frames() >= 2");
  }
}

/// Channel c of `s` as a contiguous span: single-channel signals are
/// already contiguous and need no copy; otherwise a strided copy lands in
/// `buf` (resized, no allocation once at capacity).
std::span<const double> channel_span(const SignalView& s, std::size_t c,
                                     std::vector<double>& buf) {
  if (s.channels() == 1) {
    return {s.data(), s.frames()};
  }
  buf.resize(s.frames());
  s.channel_into(c, buf);
  return buf;
}

}  // namespace

std::span<const double> similarity_scores_into(const SignalView& x,
                                               const SignalView& y,
                                               const TdeOptions& opts,
                                               TdeWorkspace& ws) {
  check_shapes(x, y);
  const std::size_t n_out = x.frames() - y.frames() + 1;
  ws.scores.assign(n_out, 0.0);
  ws.chan_scores.resize(n_out);
  for (std::size_t c = 0; c < x.channels(); ++c) {
    const auto xc = channel_span(x, c, ws.x_chan);
    const auto yc = channel_span(y, c, ws.y_chan);
    if (opts.use_fft) {
      nsync::dsp::sliding_pearson_fft_into(xc, yc, ws.chan_scores, ws.pearson);
    } else {
      nsync::dsp::sliding_pearson_naive_into(xc, yc, ws.chan_scores);
    }
    for (std::size_t n = 0; n < n_out; ++n) ws.scores[n] += ws.chan_scores[n];
  }
  const double inv_c = 1.0 / static_cast<double>(x.channels());
  for (auto& v : ws.scores) v *= inv_c;
  return ws.scores;
}

void TdeWorkspace::reserve(std::size_t nx, std::size_t ny,
                           std::size_t channels, const TdeOptions& opts) {
  const std::size_t n_out = nx - ny + 1;
  scores.reserve(n_out);
  chan_scores.reserve(n_out);
  bias_w.reserve(n_out);
  if (channels > 1) {
    x_chan.reserve(nx);
    y_chan.reserve(ny);
  }
  if (opts.use_fft) pearson.reserve(nx, ny);
}

std::vector<double> bias_scores(std::vector<double> scores, double center,
                                double sigma_samples) {
  if (sigma_samples <= 0.0) {
    throw std::invalid_argument("bias_scores: sigma must be positive");
  }
  for (std::size_t j = 0; j < scores.size(); ++j) {
    const double d = (static_cast<double>(j) - center) / sigma_samples;
    scores[j] *= std::exp(-0.5 * d * d);
  }
  return scores;
}

std::size_t estimate_delay_biased(const SignalView& x, const SignalView& y,
                                  double center, double sigma_samples,
                                  const TdeOptions& opts) {
  thread_local TdeWorkspace ws;
  return estimate_delay_biased(x, y, center, sigma_samples, opts, ws);
}

std::size_t estimate_delay_biased(const SignalView& x, const SignalView& y,
                                  double center, double sigma_samples,
                                  const TdeOptions& opts, TdeWorkspace& ws) {
  if (sigma_samples <= 0.0) {
    throw std::invalid_argument("bias_scores: sigma must be positive");
  }
  const auto scores = similarity_scores_into(x, y, opts, ws);
  // Fused epilogue: clamp + Gaussian bias + argmax through the
  // dispatched kernel.
  //
  // Multiplying a negative score by a small Gaussian weight would *raise*
  // it toward zero, perversely rewarding far-from-center anti-correlated
  // placements.  A negative correlation is never a candidate match, so
  // the kernel clamps to zero before applying the bias.  The per-element
  // arithmetic (max, then exp-weight multiply) matches the allocating
  // bias_scores path exactly, and the argmax keeps std::max_element's
  // first-occurrence semantics, so the result is bitwise identical.
  //
  // The exp() weights are the expensive part and depend only on
  // (center, sigma, n_out), so they are cached in the workspace and
  // reused verbatim while those stay unchanged.  In the DWM every
  // unclamped window has center == n_ext and n_out == 2 * n_ext + 1, so
  // the cache hits; only a window whose extended reference slice is
  // clamped (near the start of the reference, where center moves, or at
  // its end, where n_out shrinks) recomputes, with the same arithmetic as
  // the old inline loop.
  const std::size_t n_out = scores.size();
  if (ws.bias_w.size() != n_out || ws.bias_center != center ||
      ws.bias_sigma != sigma_samples) {
    ws.bias_w.resize(n_out);
    for (std::size_t j = 0; j < n_out; ++j) {
      const double d = (static_cast<double>(j) - center) / sigma_samples;
      ws.bias_w[j] = std::exp(-0.5 * d * d);
    }
    ws.bias_center = center;
    ws.bias_sigma = sigma_samples;
  }
  return simd::ops().clamp_weight_argmax(scores.data(), ws.bias_w.data(),
                                         n_out);
}

}  // namespace nsync::core
