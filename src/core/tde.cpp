#include "core/tde.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/simd/simd.hpp"
#include "signal/stats.hpp"

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

/// Keeps `ws`'s batched plan at m points and C lanes, rebuilding it only
/// when either changes.
void fit_batched_plan(TdeWorkspace& ws, std::size_t m, std::size_t C) {
  if (!ws.batched.plan || ws.batched.plan->size() != m ||
      ws.batched.plan->lanes() != C) {
    ws.batched.plan = std::make_unique<nsync::dsp::BatchedRfftPlan>(m, C);
  }
}

// All channels of the FFT sliding correlation through one batched plan.
//
// This mirrors sliding_pearson_fft_into channel by channel — same
// centering, same correlation padded to dsp::correlation_fft_size(nx)
// (sized from nx alone: its circular wrap reaches only discarded lags),
// same prefix-sum normalization, same degenerate-template early-out —
// but runs every transform as one lane-interleaved BatchedRfftPlan pass
// and every pre/post pass as a row-wise dispatched kernel.  The
// per-channel operation sequence is identical to the sequential scalar
// path (the row kernels accumulate each channel's reductions
// sequentially across frames), so the result is bitwise equal to looping
// sliding_pearson_fft_into under the scalar backend — which is what the
// per-channel loop used to produce.
void similarity_scores_batched(const SignalView& x, const SignalView& y,
                               TdeWorkspace& ws) {
  const auto& k = simd::ops();
  const std::size_t C = x.channels();
  const std::size_t nx = x.frames();
  const std::size_t ny = y.frames();
  const std::size_t n_out = nx - ny + 1;

  // Per-channel means (sequential per channel, like signal::mean on an
  // extracted channel under the scalar backend).
  ws.mu_x.resize(C);
  ws.mu_y.resize(C);
  k.channel_sums(x.data(), nx, C, ws.mu_x.data());
  k.channel_sums(y.data(), ny, C, ws.mu_y.data());
  for (auto& v : ws.mu_x) v /= static_cast<double>(nx);
  for (auto& v : ws.mu_y) v /= static_cast<double>(ny);

  const std::size_t m = nsync::dsp::correlation_fft_size(nx);
  const std::size_t bins = m / 2 + 1;
  fit_batched_plan(ws, m, C);

  // Zero-padded, centered x; zero-padded, centered, time-reversed y with
  // the per-channel template energy fused into the reversal pass.
  ws.x_pad.assign(m * C, 0.0);
  ws.y_pad.assign(m * C, 0.0);
  k.center_rows(x.data(), nx, C, ws.mu_x.data(), ws.x_pad.data());
  ws.y_energy.assign(C, 0.0);
  k.center_rows_reversed_energy(y.data(), ny, C, ws.mu_y.data(),
                                ws.y_pad.data(), ws.y_energy.data());

  // Windowed-variance prefix sums must read the centered x rows before
  // the inverse transform reuses x_pad as its output buffer.
  ws.ps.resize((nx + 1) * C);
  ws.ps2.resize((nx + 1) * C);
  k.prefix_sums_rows(ws.x_pad.data(), ws.ps.data(), ws.ps2.data(), nx, C);

  ws.spec_x_re.resize(bins * C);
  ws.spec_x_im.resize(bins * C);
  ws.spec_y_re.resize(bins * C);
  ws.spec_y_im.resize(bins * C);
  ws.batched.plan->forward_interleaved(ws.x_pad.data(), ws.spec_x_re.data(),
                                  ws.spec_x_im.data());
  ws.batched.plan->forward_interleaved(ws.y_pad.data(), ws.spec_y_re.data(),
                                  ws.spec_y_im.data());
  k.cmul_split_inplace(ws.spec_x_re.data(), ws.spec_x_im.data(),
                       ws.spec_y_re.data(), ws.spec_y_im.data(), bins * C);
  ws.batched.plan->inverse_interleaved(ws.spec_x_re.data(), ws.spec_x_im.data(),
                                  ws.x_pad.data());
  // Numerator for window n of channel c: ws.x_pad[(n + ny - 1) * C + c].

  ws.scores.assign(n_out, 0.0);
  ws.chan_scores.resize(n_out);
  for (std::size_t c = 0; c < C; ++c) {
    const double y_norm = std::sqrt(ws.y_energy[c]);
    if (!(y_norm > 0.0) || !std::isfinite(y_norm)) {
      // Degenerate template: the channel scores 0 everywhere, and the
      // zero array is still accumulated so the signed-zero arithmetic
      // matches the sequential path exactly.
      std::fill(ws.chan_scores.begin(), ws.chan_scores.end(), 0.0);
    } else {
      k.normalize_windows_strided(ws.ps.data() + c, ws.ps2.data() + c, C, ny,
                                  y_norm, ws.x_pad.data() + (ny - 1) * C + c,
                                  ws.chan_scores.data(), n_out);
    }
    k.add_arrays(ws.scores.data(), ws.chan_scores.data(), n_out);
  }
  k.scale(ws.scores.data(), 1.0 / static_cast<double>(C), n_out);
}

}  // namespace

std::span<const double> similarity_scores_into(const SignalView& x,
                                               const SignalView& y,
                                               const TdeOptions& opts,
                                               TdeWorkspace& ws) {
  check_shapes(x, y);
  if (opts.use_fft && x.channels() > 1) {
    similarity_scores_batched(x, y, ws);
    return ws.scores;
  }
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
  if (opts.use_fft && channels > 1) {
    const std::size_t m = nsync::dsp::correlation_fft_size(nx);
    const std::size_t bins = m / 2 + 1;
    fit_batched_plan(*this, m, channels);
    mu_x.reserve(channels);
    mu_y.reserve(channels);
    y_energy.reserve(channels);
    x_pad.reserve(m * channels);
    y_pad.reserve(m * channels);
    ps.reserve((nx + 1) * channels);
    ps2.reserve((nx + 1) * channels);
    for (auto* spec : {&spec_x_re, &spec_x_im, &spec_y_re, &spec_y_im}) {
      spec->reserve(bins * channels);
    }
    return;
  }
  if (channels > 1) {
    x_chan.reserve(nx);
    y_chan.reserve(ny);
  }
  if (opts.use_fft) pearson.reserve(nx, ny);
}

std::vector<double> similarity_scores(const SignalView& x, const SignalView& y,
                                      const TdeOptions& opts) {
  thread_local TdeWorkspace ws;
  const auto scores = similarity_scores_into(x, y, opts, ws);
  return {scores.begin(), scores.end()};
}

std::size_t estimate_delay(const SignalView& x, const SignalView& y,
                           const TdeOptions& opts) {
  thread_local TdeWorkspace ws;
  return nsync::signal::argmax(similarity_scores_into(x, y, opts, ws));
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
  // reused verbatim while those stay unchanged (static callers; the DWM
  // moves `center` per window and recomputes, exactly as the old inline
  // loop did).
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
