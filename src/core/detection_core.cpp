#include "core/detection_core.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "signal/checkpoint.hpp"
#include "signal/stats.hpp"

namespace nsync::core {

using nsync::signal::SignalView;

StreamingMinFilter::StreamingMinFilter(std::size_t window) : window_(window) {
  if (window == 0) {
    throw std::invalid_argument("StreamingMinFilter: window must be >= 1");
  }
  // The deque momentarily holds window_ + 1 entries: the new sample is
  // pushed before the expired front is popped (matching the batch
  // min_filter's operation order exactly).
  ring_.resize(window_ + 1);
}

double StreamingMinFilter::push(double x) {
  const std::size_t cap = ring_.size();
  // Drop dominated entries from the back.  `!(back < x)` — not `back >= x`
  // — so NaN handling is identical to the batch filter's comparator.
  while (size_ > 0 && !(ring_[(head_ + size_ - 1) % cap].value < x)) {
    --size_;
  }
  ring_[(head_ + size_) % cap] = Entry{next_, x};
  ++size_;
  if (ring_[head_].index + window_ <= next_) {
    head_ = (head_ + 1) % cap;
    --size_;
  }
  ++next_;
  return ring_[head_].value;
}

void StreamingMinFilter::reset() {
  head_ = 0;
  size_ = 0;
  next_ = 0;
}

void StreamingMinFilter::save_state(nsync::signal::ByteWriter& w) const {
  using std::uint64_t;
  w.pod<uint64_t>(window_);
  w.pod<uint64_t>(next_);
  // Write the live deque entries front to back; the restored ring is
  // normalized to head 0, which changes nothing observable (the deque is
  // only ever addressed relative to head).
  w.pod<uint64_t>(size_);
  const std::size_t cap = ring_.size();
  for (std::size_t i = 0; i < size_; ++i) {
    const Entry& e = ring_[(head_ + i) % cap];
    w.pod<uint64_t>(e.index);
    w.pod<double>(e.value);
  }
}

void StreamingMinFilter::restore_state(nsync::signal::ByteReader& r) {
  using nsync::signal::CheckpointError;
  using nsync::signal::CheckpointErrorKind;
  const auto window = r.pod<std::uint64_t>();
  if (window != window_) {
    throw CheckpointError(CheckpointErrorKind::kMismatch,
                          "StreamingMinFilter: serialized window " +
                              std::to_string(window) + " != constructed " +
                              std::to_string(window_));
  }
  const auto next = r.pod<std::uint64_t>();
  const auto size = r.pod<std::uint64_t>();
  if (size > ring_.size() || (next > 0 && size == 0) || size > next) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "StreamingMinFilter: implausible deque size");
  }
  std::size_t prev_index = 0;
  for (std::size_t i = 0; i < size; ++i) {
    Entry e;
    e.index = static_cast<std::size_t>(r.pod<std::uint64_t>());
    e.value = r.pod<double>();
    // Deque invariant: strictly increasing stream indices, all inside the
    // trailing window.
    if (e.index >= next || (i > 0 && e.index <= prev_index) ||
        e.index + window_ < next) {
      throw CheckpointError(CheckpointErrorKind::kCorrupt,
                            "StreamingMinFilter: broken deque invariant");
    }
    prev_index = e.index;
    ring_[i] = e;
  }
  head_ = 0;
  size_ = static_cast<std::size_t>(size);
  next_ = static_cast<std::size_t>(next);
}

DetectionCore::DetectionCore(const DwmParams& dwm, DistanceMetric metric,
                             std::size_t filter_window)
    : dwm_(dwm),
      metric_(metric),
      filter_window_(filter_window),
      h_min_(filter_window == 0 ? 1 : filter_window),
      v_min_(filter_window == 0 ? 1 : filter_window) {
  dwm_.validate();
  if (filter_window == 0) {
    throw std::invalid_argument("DetectionCore: filter_window must be >= 1");
  }
}

void DetectionCore::set_thresholds(const Thresholds& t) {
  thresholds_ = t;
  armed_ = true;
}

bool DetectionCore::step(double h_disp, bool sync_valid,
                         const SignalView& a_win, const SignalView& b) {
  if (a_win.frames() != dwm_.n_win) {
    throw std::invalid_argument("DetectionCore::step: a_win must span n_win");
  }
  const std::size_t a_start = windows() * dwm_.n_hop;
  auto b_start = static_cast<std::ptrdiff_t>(a_start) +
                 static_cast<std::ptrdiff_t>(std::llround(h_disp));
  // Clamp the matched window fully inside the reference (Eq. 16).
  b_start = std::clamp<std::ptrdiff_t>(
      b_start, 0,
      static_cast<std::ptrdiff_t>(b.frames()) -
          static_cast<std::ptrdiff_t>(dwm_.n_win));
  if (b_start < 0) {
    throw std::invalid_argument(
        "DetectionCore::step: reference shorter than one window");
  }
  const SignalView b_win =
      b.slice(static_cast<std::size_t>(b_start),
              static_cast<std::size_t>(b_start) + dwm_.n_win);

  // The matched windows can be degenerate (flat / non-finite frames) even
  // when the synchronizer's extended search window was not; re-check both
  // before trusting the distance.
  bool ok = sync_valid;
  if (ok) {
    ok = !nsync::signal::degenerate_window(a_win) &&
         !nsync::signal::degenerate_window(b_win);
  }
  double v = v_prev_;
  if (ok) {
    v = window_distance(a_win, b_win, metric_, dist_ws_);
    // Degenerate-window guards do not cover every way a distance can go
    // non-finite (e.g. overflowing Euclidean sums); check the value itself
    // as the last line of defense.
    if (!std::isfinite(v)) {
      ok = false;
      v = v_prev_;
    }
  }
  return apply_window(h_disp, v, ok);
}

bool DetectionCore::step_scored(double h_disp, double v_dist, bool valid) {
  // Non-finite inputs carry no usable evidence whatever the caller's mask
  // says — they would poison the cumulative sum and the min filters.
  if (valid && !(std::isfinite(h_disp) && std::isfinite(v_dist))) {
    valid = false;
  }
  return apply_window(h_disp, valid ? v_dist : v_prev_, valid);
}

bool DetectionCore::apply_window(double h_disp, double v_dist, bool ok) {
  // Carry-forward (Section "graceful degradation"): an invalid window
  // contributes nothing to c_disp and repeats the last valid values, so
  // the cumulative sum and the min filters never see fault artifacts.
  if (ok) {
    c_disp_acc_ += std::abs(h_disp - h_prev_);  // streaming CADHD (Eq. 17)
    h_prev_ = h_disp;
    v_prev_ = v_dist;
  }
  features_.c_disp.push_back(c_disp_acc_);
  features_.h_dist_f.push_back(h_min_.push(std::abs(h_prev_)));
  features_.v_dist_f.push_back(v_min_.push(v_prev_));
  v_dist_.push_back(v_prev_);
  valid_.push_back(ok ? 1 : 0);

  if (armed_) {
    const std::size_t idx = valid_.size() - 1;
    // Same comparisons as the batch discriminate() (Eq. 18-20, strict >).
    // The sub-module flags keep accumulating after the latch so a finished
    // stream reports exactly what discriminate() would over the full
    // feature arrays; intrusion and first_alarm_window freeze at the
    // first crossing.
    bool fired = false;
    if (features_.c_disp[idx] > thresholds_.c_c) {
      detection_.by_c_disp = true;
      fired = true;
    }
    if (features_.h_dist_f[idx] > thresholds_.h_c) {
      detection_.by_h_dist = true;
      fired = true;
    }
    if (features_.v_dist_f[idx] > thresholds_.v_c) {
      detection_.by_v_dist = true;
      fired = true;
    }
    if (fired && !detection_.intrusion) {
      detection_.intrusion = true;
      detection_.first_alarm_window = static_cast<std::ptrdiff_t>(idx);
    }
  }
  return ok;
}

void DetectionCore::save_state(nsync::signal::ByteWriter& w) const {
  using std::uint64_t;
  // Configuration fingerprint: restore targets must be constructed with
  // the same window geometry, metric and filter width, or the replayed
  // stream would diverge from the saved one.
  w.pod<uint64_t>(dwm_.n_win);
  w.pod<uint64_t>(dwm_.n_hop);
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(metric_));
  w.pod<uint64_t>(filter_window_);

  w.pod<std::uint8_t>(armed_ ? 1 : 0);
  w.pod<double>(thresholds_.c_c);
  w.pod<double>(thresholds_.h_c);
  w.pod<double>(thresholds_.v_c);

  w.f64_array(features_.c_disp);
  w.f64_array(features_.h_dist_f);
  w.f64_array(features_.v_dist_f);
  w.f64_array(v_dist_);
  w.u8_array(valid_);

  w.pod<std::uint8_t>(detection_.intrusion ? 1 : 0);
  w.pod<std::uint8_t>(detection_.by_c_disp ? 1 : 0);
  w.pod<std::uint8_t>(detection_.by_h_dist ? 1 : 0);
  w.pod<std::uint8_t>(detection_.by_v_dist ? 1 : 0);
  w.pod<std::int64_t>(detection_.first_alarm_window);

  h_min_.save_state(w);
  v_min_.save_state(w);
  w.pod<double>(c_disp_acc_);
  w.pod<double>(h_prev_);
  w.pod<double>(v_prev_);
}

void DetectionCore::restore_state(nsync::signal::ByteReader& r) {
  using nsync::signal::CheckpointError;
  using nsync::signal::CheckpointErrorKind;
  const auto n_win = r.pod<std::uint64_t>();
  const auto n_hop = r.pod<std::uint64_t>();
  const auto metric = r.pod<std::uint32_t>();
  const auto filter_window = r.pod<std::uint64_t>();
  if (n_win != dwm_.n_win || n_hop != dwm_.n_hop ||
      metric != static_cast<std::uint32_t>(metric_) ||
      filter_window != filter_window_) {
    throw CheckpointError(
        CheckpointErrorKind::kMismatch,
        "DetectionCore: serialized geometry/metric/filter differ from the "
        "constructed configuration");
  }

  const bool armed = r.pod<std::uint8_t>() != 0;
  Thresholds thresholds;
  thresholds.c_c = r.pod<double>();
  thresholds.h_c = r.pod<double>();
  thresholds.v_c = r.pod<double>();

  DetectionFeatures features;
  features.c_disp = r.f64_array();
  features.h_dist_f = r.f64_array();
  features.v_dist_f = r.f64_array();
  std::vector<double> v_dist = r.f64_array();
  std::vector<std::uint8_t> valid = r.u8_array();
  const std::size_t windows = valid.size();
  if (features.c_disp.size() != windows ||
      features.h_dist_f.size() != windows ||
      features.v_dist_f.size() != windows || v_dist.size() != windows) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "DetectionCore: per-window arrays disagree on the "
                          "number of windows");
  }

  Detection detection;
  detection.intrusion = r.pod<std::uint8_t>() != 0;
  detection.by_c_disp = r.pod<std::uint8_t>() != 0;
  detection.by_h_dist = r.pod<std::uint8_t>() != 0;
  detection.by_v_dist = r.pod<std::uint8_t>() != 0;
  detection.first_alarm_window =
      static_cast<std::ptrdiff_t>(r.pod<std::int64_t>());
  if (detection.first_alarm_window < -1 ||
      detection.first_alarm_window >= static_cast<std::ptrdiff_t>(windows) ||
      (detection.intrusion != (detection.first_alarm_window >= 0))) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "DetectionCore: inconsistent latched verdict");
  }

  // Restore the min filters into scratch copies first so a malformed
  // filter blob cannot leave this core half-updated.
  StreamingMinFilter h_min(filter_window_);
  StreamingMinFilter v_min(filter_window_);
  h_min.restore_state(r);
  v_min.restore_state(r);
  if (h_min.samples() != windows || v_min.samples() != windows) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "DetectionCore: filter stream position disagrees "
                          "with the window count");
  }
  const double c_disp_acc = r.pod<double>();
  const double h_prev = r.pod<double>();
  const double v_prev = r.pod<double>();

  armed_ = armed;
  thresholds_ = thresholds;
  features_ = std::move(features);
  v_dist_ = std::move(v_dist);
  valid_ = std::move(valid);
  detection_ = detection;
  h_min_ = std::move(h_min);
  v_min_ = std::move(v_min);
  c_disp_acc_ = c_disp_acc;
  h_prev_ = h_prev;
  v_prev_ = v_prev;
}

void DetectionCore::reserve(std::size_t n_windows) {
  features_.c_disp.reserve(n_windows);
  features_.h_dist_f.reserve(n_windows);
  features_.v_dist_f.reserve(n_windows);
  v_dist_.reserve(n_windows);
  valid_.reserve(n_windows);
  dist_ws_.u.reserve(dwm_.n_win);
  dist_ws_.v.reserve(dwm_.n_win);
}

}  // namespace nsync::core
