#include "core/nsync.hpp"

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

NsyncIds::NsyncIds(Signal reference, NsyncConfig config)
    : reference_(std::move(reference)), config_(config) {
  if (reference_.frames() == 0) {
    throw std::invalid_argument("NsyncIds: empty reference signal");
  }
  if (config_.sync == SyncMethod::kDwm) {
    config_.dwm.validate();
  }
  if (config_.sync == SyncMethod::kDtw && config_.dtw_radius == 0) {
    throw std::invalid_argument("NsyncIds: dtw_radius must be >= 1");
  }
}

Analysis NsyncIds::analyze(const SignalView& observed) const {
  Analysis a;
  if (config_.sync == SyncMethod::kDwm) {
    const DwmResult r =
        DwmSynchronizer::align(observed, reference_, config_.dwm);
    a.h_disp = r.h_disp;
    // Batch analysis is literally a replay of the streaming DetectionCore
    // over the synchronizer's windows: one implementation of scoring,
    // masking, carry-forward and feature accumulation for both paths.
    // The core re-checks each matched window pair and ANDs its verdict
    // into the synchronizer's mask, so a.valid reflects both stages.
    DetectionCore core(config_.dwm, config_.metric, config_.filter_window);
    core.reserve(r.h_disp.size());
    for (std::size_t i = 0; i < r.h_disp.size(); ++i) {
      const std::size_t a_start = i * config_.dwm.n_hop;
      const SignalView a_win =
          observed.slice(a_start, a_start + config_.dwm.n_win);
      core.step(r.h_disp[i], r.valid.empty() || r.valid[i] != 0, a_win,
                reference_);
    }
    a.v_dist = core.v_dist();
    a.valid = core.valid();
    a.features = core.features();
  } else {
    const DtwResult r =
        fast_dtw(observed, reference_, config_.dtw_radius, config_.metric);
    a.h_disp = h_disp_from_path(r.path, observed.frames());
    a.v_dist = vertical_distances_dtw(observed, reference_, r.path,
                                      config_.metric);
    a.features = compute_features(a.h_disp, a.v_dist, config_.filter_window);
  }
  return a;
}

void NsyncIds::fit(std::span<const Signal> benign) {
  if (benign.empty()) {
    throw std::invalid_argument("NsyncIds::fit: no training signals");
  }
  std::vector<Analysis> analyses;
  analyses.reserve(benign.size());
  for (const auto& s : benign) {
    analyses.push_back(analyze(s));
  }
  fit_from_analyses(analyses);
}

void NsyncIds::fit_from_analyses(std::span<const Analysis> analyses) {
  if (analyses.empty()) {
    throw std::invalid_argument("NsyncIds::fit_from_analyses: empty input");
  }
  std::vector<FeatureMaxima> maxima;
  maxima.reserve(analyses.size());
  for (const auto& a : analyses) {
    maxima.push_back(feature_maxima(a.features));
  }
  thresholds_ = learn_thresholds(maxima, config_.r);
  trained_ = true;
}

Detection NsyncIds::detect(const SignalView& observed) const {
  return detect(analyze(observed));
}

Detection NsyncIds::detect(const Analysis& analysis) const {
  if (!trained_) {
    throw std::logic_error("NsyncIds::detect: call fit() first");
  }
  return discriminate(analysis.features, thresholds_);
}

const Thresholds& NsyncIds::thresholds() const {
  if (!trained_) {
    throw std::logic_error("NsyncIds::thresholds: call fit() first");
  }
  return thresholds_;
}

RealtimeMonitor::RealtimeMonitor(Signal reference, NsyncConfig config,
                                 Thresholds thresholds)
    : sync_(std::move(reference), config.dwm),
      config_(config),
      core_(config.dwm, config.metric, config.filter_window),
      health_(config.health) {
  if (config.sync != SyncMethod::kDwm) {
    throw std::invalid_argument(
        "RealtimeMonitor: only DWM supports real-time operation");
  }
  core_.set_thresholds(thresholds);
}

std::size_t RealtimeMonitor::push(const SignalView& frames) {
  const std::size_t before = sync_.windows();
  sync_.push(frames);
  const std::size_t after = sync_.windows();

  // The synchronizer's ring buffer retains every window completed by the
  // current push, so the logical-index views are always in range here.
  const auto& r = sync_.result();
  const auto& a = sync_.observed();
  for (std::size_t i = before; i < after; ++i) {
    const std::size_t a_start = i * config_.dwm.n_hop;
    const SignalView a_win = a.view(a_start, a_start + config_.dwm.n_win);
    const bool ok = core_.step(r.h_disp[i], r.valid.empty() || r.valid[i] != 0,
                               a_win, sync_.reference());
    health_.observe(ok);
    // Benign-baseline accumulation, gated per window: only a valid window
    // on a healthy channel with no latched intrusion may raise the benign
    // feature maxima.  Evaluated inside the per-window loop (not per
    // push), so the accumulated maxima are invariant to feed chunking and
    // drain/batch boundaries — a precondition for bitwise-deterministic
    // checkpoint replay through the sharded fleet.
    if (ok && health_.state() == ChannelHealth::kHealthy &&
        !core_.detection().intrusion) {
      const DetectionFeatures& f = core_.features();
      fold_window(benign_max_, f.c_disp[i], f.h_dist_f[i], f.v_dist_f[i]);
      ++benign_windows_;
    }
  }
  // The core has read this push's windows: keep only the frames a future
  // window reads, so a checkpoint taken before the next push stores (and
  // checksums, and fsyncs) no dead frames.
  sync_.drop_consumed();
  return after - before;
}

void RealtimeMonitor::reserve_windows(std::size_t n_windows) {
  sync_.reserve_windows(n_windows);
  core_.reserve(n_windows);
}

template <class Io, class Self>
void RealtimeMonitor::fields(Io& io, Self& m) {
  io.state(m.sync_);
  io.state(m.core_);
  io.state(m.health_);
  maxima_fields(io, m.benign_max_);
  io.pod(m.benign_windows_);
}

void RealtimeMonitor::save_state(nsync::signal::ByteWriter& w) const {
  nsync::signal::FieldWriter io(w);
  fields(io, *this);
}

void RealtimeMonitor::restore_state(nsync::signal::ByteReader& r) {
  // Restore into a copy so a failure partway through (e.g. the core
  // section is corrupt after the synchronizer already parsed) leaves this
  // monitor untouched.
  RealtimeMonitor m = *this;
  nsync::signal::FieldReader io(r);
  fields(io, m);
  // The three machines advance in lockstep — one core step and one health
  // observation per synchronizer window.
  const std::size_t windows = m.sync_.windows();
  if (m.core_.windows() != windows || m.health_.observed() != windows) {
    throw nsync::signal::CheckpointError(
        nsync::signal::CheckpointErrorKind::kCorrupt,
        "RealtimeMonitor: synchronizer/core/health window counts disagree");
  }
  const FeatureMaxima& b = m.benign_max_;
  if (!std::isfinite(b.c_max) || !std::isfinite(b.h_max) ||
      !std::isfinite(b.v_max) || b.c_max < 0.0 || b.h_max < 0.0 ||
      b.v_max < 0.0 || m.benign_windows_ > windows) {
    throw nsync::signal::CheckpointError(
        nsync::signal::CheckpointErrorKind::kCorrupt,
        "RealtimeMonitor: implausible benign-baseline accumulator");
  }
  *this = std::move(m);
}

}  // namespace nsync::core
