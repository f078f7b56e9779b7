#include "sensors/fault_injector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace nsync::sensors {

using nsync::signal::Signal;
using nsync::signal::SignalView;

void FaultConfig::validate() const {
  auto check_prob = [](double p, const char* name) {
    if (p < 0.0 || p > 1.0 || !std::isfinite(p)) {
      throw std::invalid_argument(std::string("FaultConfig: ") + name +
                                  " must be a probability in [0, 1]");
    }
  };
  check_prob(dropout_rate, "dropout_rate");
  check_prob(stuck_rate, "stuck_rate");
  check_prob(nan_burst_rate, "nan_burst_rate");
  check_prob(gain_step_rate, "gain_step_rate");
  check_prob(duplication_rate, "duplication_rate");
  check_prob(inf_fraction, "inf_fraction");
  if (dropout_frames_mean < 1.0 || stuck_frames_mean < 1.0 ||
      nan_burst_frames_mean < 1.0) {
    throw std::invalid_argument(
        "FaultConfig: interval means must be >= 1 frame");
  }
  if (gain_step_std < 0.0 || !std::isfinite(gain_step_std)) {
    throw std::invalid_argument("FaultConfig: gain_step_std must be >= 0");
  }
  if (!std::isfinite(saturation_level)) {
    throw std::invalid_argument("FaultConfig: saturation_level must be finite");
  }
  if (clock_skew <= -1.0 || !std::isfinite(clock_skew)) {
    throw std::invalid_argument("FaultConfig: clock_skew must be > -1");
  }
  if (gain_drift_per_frame <= -1.0 || !std::isfinite(gain_drift_per_frame)) {
    throw std::invalid_argument(
        "FaultConfig: gain_drift_per_frame must be finite and > -1");
  }
  if (!std::isfinite(offset_drift_per_frame)) {
    throw std::invalid_argument(
        "FaultConfig: offset_drift_per_frame must be finite");
  }
}

FaultInjector::FaultInjector(FaultConfig cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed) {
  cfg_.validate();
}

std::size_t FaultInjector::draw_length(double mean) {
  if (mean <= 1.0) return 1;
  return 1 + static_cast<std::size_t>(rng_.exponential(1.0 / (mean - 1.0)));
}

Signal FaultInjector::resample_skewed(const SignalView& s) {
  // Output sample k sits at input position skew_pos_ (advanced by 1 + skew
  // per output frame).  Positions live on the *global* input timeline so
  // consecutive chunks resample seamlessly; the last frame of the
  // previous chunk is retained for interpolation across the boundary.
  const double step = 1.0 + cfg_.clock_skew;
  const std::size_t chunk_start = frames_in_;
  const std::size_t chunk_end = frames_in_ + s.frames();
  Signal out = Signal::empty(s.channels(), s.sample_rate());
  if (s.frames() == 0) return out;
  out.reserve_frames(
      static_cast<std::size_t>(static_cast<double>(s.frames()) / step) + 2);
  std::vector<double> row(s.channels());
  while (skew_pos_ <= static_cast<double>(chunk_end - 1)) {
    const double pos = skew_pos_;
    const auto i0 = static_cast<std::size_t>(std::floor(pos));
    const double frac = pos - static_cast<double>(i0);
    for (std::size_t c = 0; c < s.channels(); ++c) {
      // i0 < chunk_start only when pos straddles the previous chunk's last
      // frame, which resample_skewed always saves before returning.
      const double a =
          i0 < chunk_start ? skew_prev_frame_[c] : s(i0 - chunk_start, c);
      const double b =
          i0 + 1 >= chunk_end ? a : s(i0 + 1 - chunk_start, c);
      row[c] = a + frac * (b - a);
    }
    out.append_frame(row);
    skew_pos_ += step;
  }
  skew_prev_frame_.assign(s.frame(s.frames() - 1).begin(),
                          s.frame(s.frames() - 1).end());
  have_skew_prev_ = true;
  return out;
}

void FaultInjector::corrupt_in_place(Signal& chunk, std::size_t base_frame) {
  const std::size_t channels = chunk.channels();
  if (held_frame_.size() != channels) {
    held_frame_.assign(channels, 0.0);
    have_held_frame_ = false;
  }
  for (std::size_t n = 0; n < chunk.frames(); ++n) {
    const std::size_t global = base_frame + n;
    // Slow drift advances on every input frame — including frames that a
    // burst later overwrites — so the drift trajectory is a function of
    // the input frame count alone, never of the other faults' outcomes.
    if (cfg_.gain_drift_per_frame != 0.0) {
      drift_gain_ *= 1.0 + cfg_.gain_drift_per_frame;
    }
    if (cfg_.offset_drift_per_frame != 0.0) {
      drift_offset_ += cfg_.offset_drift_per_frame;
    }
    // Gain step: a persistent multiplicative change from this frame on.
    if (cfg_.gain_step_rate > 0.0 && rng_.bernoulli(cfg_.gain_step_rate)) {
      gain_ *= std::exp(rng_.normal(0.0, cfg_.gain_step_std));
      events_.push_back({FaultKind::kGainStep, global, 1, gain_});
    }
    // Start new intervals.
    if (cfg_.stuck_rate > 0.0 && stuck_left_ == 0 &&
        rng_.bernoulli(cfg_.stuck_rate)) {
      stuck_left_ = draw_length(cfg_.stuck_frames_mean);
      events_.push_back({FaultKind::kStuckAt, global, stuck_left_, 0.0});
    }
    if (cfg_.nan_burst_rate > 0.0 && nan_left_ == 0 &&
        rng_.bernoulli(cfg_.nan_burst_rate)) {
      nan_left_ = draw_length(cfg_.nan_burst_frames_mean);
      events_.push_back({FaultKind::kNanBurst, global, nan_left_, 0.0});
    }

    auto frame = chunk.frame(n);
    if (nan_left_ > 0) {
      --nan_left_;
      const bool inf = cfg_.inf_fraction > 0.0 &&
                       rng_.bernoulli(cfg_.inf_fraction);
      const double junk =
          inf ? (rng_.bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                     : -std::numeric_limits<double>::infinity())
              : std::numeric_limits<double>::quiet_NaN();
      for (double& v : frame) v = junk;
      continue;  // a non-finite frame is never the held frame
    }
    if (stuck_left_ > 0 && have_held_frame_) {
      --stuck_left_;
      std::copy(held_frame_.begin(), held_frame_.end(), frame.begin());
      continue;
    }
    if (stuck_left_ > 0) --stuck_left_;  // nothing held yet: fault is moot

    for (double& v : frame) {
      v = v * (gain_ * drift_gain_) + drift_offset_;
      if (cfg_.saturation_level > 0.0) {
        v = std::clamp(v, -cfg_.saturation_level, cfg_.saturation_level);
      }
    }
    held_frame_.assign(frame.begin(), frame.end());
    have_held_frame_ = true;
  }
}

Signal FaultInjector::apply(const SignalView& s) {
  if (s.channels() == 0) {
    throw std::invalid_argument("FaultInjector::apply: zero-channel signal");
  }
  // 1. Amplitude faults on the original timeline.
  Signal amp = s.to_signal();
  corrupt_in_place(amp, frames_in_);

  // 2. Clock skew reshapes the timeline (before transport faults: the
  //    skew lives in the DAQ; duplication/dropout live in transport).
  Signal timed = cfg_.clock_skew != 0.0 ? resample_skewed(amp) : std::move(amp);

  // 3. Transport faults: duplication then dropout, per frame.
  Signal out = Signal::empty(timed.channels(), timed.sample_rate());
  out.reserve_frames(timed.frames() + 4);
  for (std::size_t n = 0; n < timed.frames(); ++n) {
    // Post-skew frames no longer map 1:1 to input frames; clamp the event
    // coordinate into this chunk's input range.
    const std::size_t global =
        frames_in_ + std::min(n, s.frames() == 0 ? 0 : s.frames() - 1);
    if (cfg_.dropout_rate > 0.0 && drop_left_ == 0 &&
        rng_.bernoulli(cfg_.dropout_rate)) {
      drop_left_ = draw_length(cfg_.dropout_frames_mean);
      events_.push_back({FaultKind::kDropout, global, drop_left_, 0.0});
    }
    if (drop_left_ > 0) {
      --drop_left_;
      continue;
    }
    out.append_frame(timed.frame(n));
    if (cfg_.duplication_rate > 0.0 && rng_.bernoulli(cfg_.duplication_rate)) {
      events_.push_back({FaultKind::kFrameDuplication, global, 1, 0.0});
      out.append_frame(timed.frame(n));
    }
  }

  frames_in_ += s.frames();
  frames_out_ += out.frames();
  return out;
}

Signal flatline_from(const SignalView& s, std::size_t from_frame,
                     double level) {
  Signal out = s.to_signal();
  for (std::size_t n = from_frame; n < out.frames(); ++n) {
    for (std::size_t c = 0; c < out.channels(); ++c) {
      out(n, c) = level;
    }
  }
  return out;
}

}  // namespace nsync::sensors
