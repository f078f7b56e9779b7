#include "core/dwm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "signal/checkpoint.hpp"
#include "signal/fields.hpp"
#include "signal/stats.hpp"

namespace nsync::core {

using nsync::signal::Signal;
using nsync::signal::SignalView;

void DwmParams::validate() const {
  if (n_win < 2) {
    throw std::invalid_argument("DwmParams: n_win must be >= 2");
  }
  if (n_hop == 0 || n_hop > n_win) {
    throw std::invalid_argument("DwmParams: need 1 <= n_hop <= n_win");
  }
  if (n_ext == 0) {
    throw std::invalid_argument("DwmParams: n_ext must be >= 1");
  }
  if (n_sigma <= 0.0) {
    throw std::invalid_argument("DwmParams: n_sigma must be positive");
  }
  if (eta <= 0.0 || eta > 1.0) {
    throw std::invalid_argument("DwmParams: eta must be in (0, 1]");
  }
}

DwmSynchronizer::DwmSynchronizer(Signal reference, DwmParams params)
    : DwmSynchronizer(std::move(reference), params, /*fingerprint=*/true) {}

DwmSynchronizer::DwmSynchronizer(Signal reference, DwmParams params,
                                 bool fingerprint)
    : reference_(std::move(reference)),
      observed_(reference_.channels(), reference_.sample_rate()),
      params_(params) {
  params_.validate();
  if (reference_.frames() < params_.n_win + 1) {
    throw std::invalid_argument(
        "DwmSynchronizer: reference shorter than one window");
  }
  if (fingerprint) {
    reference_crc_ = nsync::signal::crc32(
        reference_.data(),
        reference_.frames() * reference_.channels() * sizeof(double));
  }
}

std::size_t DwmSynchronizer::push(const SignalView& frames) {
  if (frames.channels() != reference_.channels()) {
    throw std::invalid_argument("DwmSynchronizer::push: channel mismatch");
  }
  // Dropping on entry (not after the processing loop) keeps the frames of
  // this push's own windows readable until next time.
  drop_consumed();
  // Fewer than n_win live frames and a smaller dead prefix stay behind a
  // push, so once the ring has room for them beside this chunk, pushes
  // of up to this many frames never grow it again.
  observed_.reserve_frames(2 * params_.n_win + frames.frames());
  observed_.append(frames);
  std::size_t processed = 0;
  while (!reference_exhausted_ && process_next_window()) {
    ++processed;
  }
  return processed;
}

void DwmSynchronizer::drop_consumed() {
  // Frames before the next unprocessed window can never be read again —
  // future windows start at n_hop multiples >= here.  Once the reference
  // is exhausted no window will ever complete, so everything is dead.
  observed_.drop_before(reference_exhausted_
                            ? observed_.end()
                            : result_.h_disp.size() * params_.n_hop);
}

void DwmSynchronizer::reserve_windows(std::size_t n_windows) {
  result_.h_disp.reserve(n_windows);
  result_.h_disp_low.reserve(n_windows);
  result_.h_dist.reserve(n_windows);
  result_.valid.reserve(n_windows);
  observed_.reserve_frames(2 * (params_.n_win + params_.n_hop));
  // Every unclamped window runs TDEB on the n_win + 2 n_ext extended
  // reference window against the n_win observed one.
  tde_ws_.reserve(params_.n_win + 2 * params_.n_ext, params_.n_win,
                  reference_.channels(), params_.tde);
}

bool DwmSynchronizer::process_next_window() {
  const std::size_t i = result_.h_disp.size();
  const std::size_t a_start = i * params_.n_hop;
  const std::size_t a_end = a_start + params_.n_win;
  if (a_end > observed_.end()) return false;  // window not complete yet

  const auto low_prev = static_cast<std::ptrdiff_t>(h_disp_low_prev_);
  // Extended window of b around the expected location (Eq. 9 shifted by
  // h_disp_low[i-1], line 8 of the final algorithm).
  const std::ptrdiff_t want_start = static_cast<std::ptrdiff_t>(a_start) -
                                    static_cast<std::ptrdiff_t>(params_.n_ext) +
                                    low_prev;
  const std::ptrdiff_t want_end = static_cast<std::ptrdiff_t>(a_end) +
                                  static_cast<std::ptrdiff_t>(params_.n_ext) +
                                  low_prev;
  if (want_start >= static_cast<std::ptrdiff_t>(reference_.frames())) {
    reference_exhausted_ = true;
    return false;
  }
  const SignalView b_ext = SignalView(reference_).clamped_slice(want_start,
                                                                want_end);
  if (b_ext.frames() < params_.n_win + 1) {
    // Not enough reference left to search in: the observed process has
    // outlived the reference (itself a strong intrusion indicator, surfaced
    // via reference_exhausted()).
    reference_exhausted_ = true;
    return false;
  }
  const std::ptrdiff_t actual_start =
      std::clamp<std::ptrdiff_t>(want_start, 0,
                                 static_cast<std::ptrdiff_t>(reference_.frames()));

  // Bias center: the score index that corresponds to keeping the previous
  // displacement (j = n_ext when no clamping occurred).
  const double center = static_cast<double>(
      static_cast<std::ptrdiff_t>(a_start) + low_prev - actual_start);
  const SignalView a_win = observed_.view(a_start, a_end);

  // Graceful degradation: a degenerate window (flat or non-finite samples
  // — a dropped-out, stuck or glitching sensor) carries no timing
  // information, and TDEB over it would return an arbitrary displacement
  // (all-zero scores argmax to 0, a jump of -n_ext) that poisons c_disp
  // downstream.  Hold the previous low-frequency estimate instead and tag
  // the window invalid so the comparator/discriminator can skip it.
  if (nsync::signal::degenerate_window(a_win) ||
      nsync::signal::degenerate_window(b_ext)) {
    result_.h_disp.push_back(h_disp_low_prev_);
    result_.h_disp_low.push_back(h_disp_low_prev_);
    result_.h_dist.push_back(std::abs(h_disp_low_prev_));
    result_.valid.push_back(0);
    return true;
  }

  const std::size_t j = estimate_delay_biased(b_ext, a_win, center,
                                              params_.n_sigma, params_.tde,
                                              tde_ws_);

  // h_disp[i] = (position of the matched window in b) - (position in a).
  const double h_disp = static_cast<double>(
      actual_start + static_cast<std::ptrdiff_t>(j) -
      static_cast<std::ptrdiff_t>(a_start));
  // Eq. 12: h_disp_low[i] = round(eta * (h_disp[i] - h_disp_low[i-1]))
  //                         + h_disp_low[i-1].
  const double h_low = std::round(params_.eta * (h_disp - h_disp_low_prev_)) +
                       h_disp_low_prev_;

  result_.h_disp.push_back(h_disp);
  result_.h_disp_low.push_back(h_low);
  result_.h_dist.push_back(std::abs(h_disp));
  result_.valid.push_back(1);
  h_disp_low_prev_ = h_low;
  return true;
}

// Fingerprints come from this synchronizer; the streaming state comes by
// reference (the live members, or fresh values to validate).
template <class Io>
void DwmSynchronizer::fields(Io& io, auto& observed, auto& result,
                             auto& h_low_prev, auto& exhausted) const {
  // Reference fingerprint: enough to reject a restore against a different
  // reference without storing the (potentially large) signal twice.
  io.expect(reference_.frames(), "DwmSynchronizer reference length");
  io.expect(reference_.channels(), "DwmSynchronizer reference width");
  io.expect(reference_.sample_rate(), "DwmSynchronizer reference rate");
  io.expect(reference_crc_, "DwmSynchronizer reference CRC");
  // Parameter fingerprint.
  io.expect(params_.n_win, "DwmSynchronizer n_win");
  io.expect(params_.n_hop, "DwmSynchronizer n_hop");
  io.expect(params_.n_ext, "DwmSynchronizer n_ext");
  io.expect(params_.n_sigma, "DwmSynchronizer n_sigma");
  io.expect(params_.eta, "DwmSynchronizer eta");
  io.expect(static_cast<std::uint8_t>(params_.tde.use_fft),
            "DwmSynchronizer use_fft");

  io.state(observed);
  io.f64s(result.h_disp);
  io.f64s(result.h_disp_low);
  io.f64s(result.h_dist);
  io.flags(result.valid, "DwmSynchronizer valid flag");
  io.pod(h_low_prev);
  io.flag(exhausted, "DwmSynchronizer exhausted flag");
}

void DwmSynchronizer::save_state(nsync::signal::ByteWriter& w) const {
  nsync::signal::FieldWriter io(w);
  fields(io, observed_, result_, h_disp_low_prev_, reference_exhausted_);
}

void DwmSynchronizer::restore_state(nsync::signal::ByteReader& r) {
  nsync::signal::FrameRingBuffer observed(reference_.channels(),
                                          reference_.sample_rate());
  DwmResult result;
  double h_low_prev = 0.0;
  bool exhausted = false;
  nsync::signal::FieldReader io(r);
  fields(io, observed, result, h_low_prev, exhausted);

  const std::size_t windows = result.h_disp.size();
  // Every processed window must have been complete: its last frame lies
  // below the retained stream end.  The retained start may be at most the
  // next window's origin (push() drops exactly up to there).
  const bool window_span_ok =
      windows == 0 ||
      (windows - 1) * params_.n_hop + params_.n_win <= observed.end();
  if (result.h_disp_low.size() != windows ||
      result.h_dist.size() != windows || result.valid.size() != windows ||
      !window_span_ok ||
      (!exhausted && observed.start() > windows * params_.n_hop)) {
    throw nsync::signal::CheckpointError(
        nsync::signal::CheckpointErrorKind::kCorrupt,
        "DwmSynchronizer: inconsistent window state");
  }

  observed_ = std::move(observed);
  result_ = std::move(result);
  h_disp_low_prev_ = h_low_prev;
  reference_exhausted_ = exhausted;
}

DwmResult DwmSynchronizer::align(const SignalView& a, const SignalView& b,
                                 const DwmParams& params) {
  // One-shot and never checkpointed: skip the reference fingerprint.
  DwmSynchronizer sync(b.to_signal(), params, /*fingerprint=*/false);
  sync.push(a);
  return sync.result();
}

}  // namespace nsync::core
