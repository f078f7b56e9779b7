#include "core/detection_core.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "signal/checkpoint.hpp"
#include "signal/fields.hpp"
#include "signal/stats.hpp"

namespace nsync::core {

using nsync::signal::CheckpointError;
using nsync::signal::CheckpointErrorKind;
using nsync::signal::FieldReader;
using nsync::signal::FieldWriter;
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

// Writes the live deque entries front to back; a restored ring is
// normalized to head 0, which changes nothing observable (the deque is
// only ever addressed relative to head).
template <class Io, class Self>
void StreamingMinFilter::fields(Io& io, Self& f) {
  io.expect(f.window_, "StreamingMinFilter window");
  io.pod(f.next_);
  io.pod(f.size_);
  if (f.size_ > f.ring_.size()) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "StreamingMinFilter: implausible deque size");
  }
  for (std::size_t i = 0; i < f.size_; ++i) {
    auto& e = f.ring_[(f.head_ + i) % f.ring_.size()];
    io.pod(e.index);
    io.pod(e.value);
  }
}

void StreamingMinFilter::save_state(nsync::signal::ByteWriter& w) const {
  FieldWriter io(w);
  fields(io, *this);
}

void StreamingMinFilter::restore_state(nsync::signal::ByteReader& r) {
  StreamingMinFilter f(window_);
  FieldReader io(r);
  fields(io, f);
  if ((f.next_ > 0 && f.size_ == 0) || f.size_ > f.next_) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "StreamingMinFilter: implausible deque size");
  }
  // Deque invariant: strictly increasing stream indices, all inside the
  // trailing window.
  for (std::size_t i = 0; i < f.size_; ++i) {
    const Entry& e = f.ring_[i];
    if (e.index >= f.next_ || (i > 0 && e.index <= f.ring_[i - 1].index) ||
        e.index + window_ < f.next_) {
      throw CheckpointError(CheckpointErrorKind::kCorrupt,
                            "StreamingMinFilter: broken deque invariant");
    }
  }
  *this = std::move(f);
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
  fold_window(maxima_, features_.c_disp.back(), features_.h_dist_f.back(),
              features_.v_dist_f.back());
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

template <class Io, class Self>
void DetectionCore::fields(Io& io, Self& c) {
  // Configuration fingerprint: restore targets must be constructed with
  // the same window geometry, metric and filter width, or the replayed
  // stream would diverge from the saved one.
  io.expect(c.dwm_.n_win, "DetectionCore window width");
  io.expect(c.dwm_.n_hop, "DetectionCore hop");
  io.expect(static_cast<std::uint32_t>(c.metric_), "DetectionCore metric");
  io.expect(c.filter_window_, "DetectionCore filter window");

  io.flag(c.armed_, "DetectionCore armed flag");
  thresholds_fields(io, c.thresholds_);

  io.f64s(c.features_.c_disp);
  io.f64s(c.features_.h_dist_f);
  io.f64s(c.features_.v_dist_f);
  io.f64s(c.v_dist_);
  io.flags(c.valid_, "DetectionCore valid flag");

  io.flag(c.detection_.intrusion, "DetectionCore intrusion flag");
  io.flag(c.detection_.by_c_disp, "DetectionCore by_c_disp flag");
  io.flag(c.detection_.by_h_dist, "DetectionCore by_h_dist flag");
  io.flag(c.detection_.by_v_dist, "DetectionCore by_v_dist flag");
  io.pod(c.detection_.first_alarm_window);

  io.state(c.h_min_);
  io.state(c.v_min_);
  io.pod(c.c_disp_acc_);
  io.pod(c.h_prev_);
  io.pod(c.v_prev_);
}

void DetectionCore::save_state(nsync::signal::ByteWriter& w) const {
  FieldWriter io(w);
  fields(io, *this);
}

void DetectionCore::restore_state(nsync::signal::ByteReader& r) {
  DetectionCore c(dwm_, metric_, filter_window_);
  FieldReader io(r);
  fields(io, c);
  const std::size_t windows = c.valid_.size();
  if (c.features_.c_disp.size() != windows ||
      c.features_.h_dist_f.size() != windows ||
      c.features_.v_dist_f.size() != windows || c.v_dist_.size() != windows) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "DetectionCore: per-window arrays disagree on the "
                          "number of windows");
  }
  const Detection& d = c.detection_;
  if (d.first_alarm_window < -1 ||
      d.first_alarm_window >= static_cast<std::ptrdiff_t>(windows) ||
      (d.intrusion != (d.first_alarm_window >= 0))) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "DetectionCore: inconsistent latched verdict");
  }
  if (c.h_min_.samples() != windows || c.v_min_.samples() != windows) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "DetectionCore: filter stream position disagrees "
                          "with the window count");
  }
  c.maxima_ = feature_maxima(c.features_);
  *this = std::move(c);
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
