// Tests for the end-to-end NSYNC IDS and the real-time monitor.
#include <gtest/gtest.h>

#include <cmath>

#include "core/nsync.hpp"
#include "signal/rng.hpp"

namespace nsync::core {
namespace {

using nsync::signal::Rng;
using nsync::signal::Signal;
using nsync::signal::SignalView;

/// Band-limited reference signal.
Signal make_reference(std::size_t frames, std::uint64_t seed) {
  Rng rng(seed);
  Signal s(frames, 2, 100.0);
  double lp0 = 0.0, lp1 = 0.0;
  for (std::size_t n = 0; n < frames; ++n) {
    lp0 += 0.35 * (rng.normal() - lp0);
    lp1 += 0.35 * (rng.normal() - lp1);
    s(n, 0) = lp0;
    s(n, 1) = lp1;
  }
  return s;
}

/// A benign observation: the reference with small random time warps and a
/// touch of measurement noise.
Signal benign_observation(const Signal& b, std::uint64_t seed) {
  Rng rng(seed);
  Signal a = Signal::empty(b.channels(), b.sample_rate());
  double src = 0.0;
  std::vector<double> row(b.channels());
  while (src < static_cast<double>(b.frames() - 1)) {
    const auto i0 = static_cast<std::size_t>(src);
    const double frac = src - static_cast<double>(i0);
    const std::size_t i1 = std::min(i0 + 1, b.frames() - 1);
    for (std::size_t c = 0; c < b.channels(); ++c) {
      row[c] = (1.0 - frac) * b(i0, c) + frac * b(i1, c) +
               rng.normal(0.0, 0.01);
    }
    a.append_frame(row);
    src += 1.0 + rng.normal(0.0, 0.002);  // ~0.2 % rate jitter = time noise
  }
  return a;
}

/// A malicious observation: same as benign but with a section replaced by
/// unrelated content (a different "toolpath").
Signal malicious_observation(const Signal& b, std::uint64_t seed) {
  Signal a = benign_observation(b, seed);
  Rng rng(seed + 5000);
  const std::size_t lo = a.frames() / 3;
  const std::size_t hi = 2 * a.frames() / 3;
  double lp = 0.0;
  for (std::size_t n = lo; n < hi; ++n) {
    lp += 0.35 * (rng.normal() - lp);
    for (std::size_t c = 0; c < a.channels(); ++c) {
      a(n, c) = lp;
    }
  }
  return a;
}

NsyncConfig dwm_config() {
  NsyncConfig cfg;
  cfg.sync = SyncMethod::kDwm;
  cfg.dwm.n_win = 64;
  cfg.dwm.n_hop = 32;
  cfg.dwm.n_ext = 24;
  cfg.dwm.n_sigma = 12.0;
  cfg.dwm.eta = 0.2;
  cfg.r = 0.3;
  return cfg;
}

class NsyncFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    reference_ = make_reference(1500, 100);
    for (std::uint64_t s = 0; s < 8; ++s) {
      train_.push_back(benign_observation(reference_, 200 + s));
    }
  }
  Signal reference_;
  std::vector<Signal> train_;
};

TEST_F(NsyncFixture, DetectsTamperedSectionAndPassesBenign) {
  NsyncIds ids(reference_, dwm_config());
  ids.fit(train_);
  const Signal benign = benign_observation(reference_, 999);
  const Signal malicious = malicious_observation(reference_, 998);
  EXPECT_FALSE(ids.detect(benign).intrusion);
  const Detection d = ids.detect(malicious);
  EXPECT_TRUE(d.intrusion);
}

TEST_F(NsyncFixture, AnalyzeProducesConsistentShapes) {
  NsyncIds ids(reference_, dwm_config());
  const Analysis a = ids.analyze(train_.front());
  EXPECT_EQ(a.h_disp.size(), a.v_dist.size());
  EXPECT_EQ(a.features.c_disp.size(), a.h_disp.size());
  EXPECT_GT(a.h_disp.size(), 10u);
}

TEST_F(NsyncFixture, DetectBeforeFitThrows) {
  NsyncIds ids(reference_, dwm_config());
  EXPECT_THROW(static_cast<void>(ids.detect(train_.front())),
               std::logic_error);
  EXPECT_THROW(static_cast<void>(ids.thresholds()), std::logic_error);
  EXPECT_FALSE(ids.trained());
}

TEST_F(NsyncFixture, FitValidation) {
  NsyncIds ids(reference_, dwm_config());
  EXPECT_THROW(ids.fit({}), std::invalid_argument);
  EXPECT_THROW(ids.fit_from_analyses({}), std::invalid_argument);
}

TEST_F(NsyncFixture, ManualThresholdsBypassFit) {
  NsyncIds ids(reference_, dwm_config());
  ids.set_thresholds({1e9, 1e9, 1e9});
  EXPECT_TRUE(ids.trained());
  EXPECT_FALSE(ids.detect(train_.front()).intrusion);
  ids.set_thresholds({-1.0, -1.0, -1.0});
  EXPECT_TRUE(ids.detect(train_.front()).intrusion);
}

TEST_F(NsyncFixture, DtwModeDetectsToo) {
  NsyncConfig cfg = dwm_config();
  cfg.sync = SyncMethod::kDtw;
  cfg.dtw_radius = 1;
  // DTW compares points across the channel axis; with only two channels the
  // correlation point-distance is degenerate (always 0 or 2), so use the
  // Euclidean metric here.  The real evaluation feeds DTW spectrograms
  // with tens to hundreds of channels where correlation works.
  cfg.metric = DistanceMetric::kEuclidean;
  NsyncIds ids(reference_, cfg);
  ids.fit(train_);
  const Detection d = ids.detect(malicious_observation(reference_, 997));
  EXPECT_TRUE(d.intrusion);
}

TEST_F(NsyncFixture, ConfigValidation) {
  NsyncConfig cfg = dwm_config();
  cfg.dtw_radius = 0;
  cfg.sync = SyncMethod::kDtw;
  EXPECT_THROW(NsyncIds(reference_, cfg), std::invalid_argument);
  Signal empty;
  EXPECT_THROW(NsyncIds(empty, dwm_config()), std::invalid_argument);
}

TEST_F(NsyncFixture, RealtimeMonitorMatchesOfflineOnBenign) {
  NsyncIds ids(reference_, dwm_config());
  ids.fit(train_);
  const Signal benign = benign_observation(reference_, 996);
  const Detection offline = ids.detect(benign);

  RealtimeMonitor monitor(reference_, dwm_config(), ids.thresholds());
  std::size_t pos = 0;
  while (pos < benign.frames()) {
    const std::size_t end = std::min(pos + 37, benign.frames());
    monitor.push(SignalView(benign).slice(pos, end));
    pos = end;
  }
  EXPECT_EQ(monitor.intrusion(), offline.intrusion);
  EXPECT_FALSE(monitor.intrusion());
}

TEST_F(NsyncFixture, RealtimeMonitorRaisesAlarmMidStream) {
  NsyncIds ids(reference_, dwm_config());
  ids.fit(train_);
  const Signal malicious = malicious_observation(reference_, 995);
  ASSERT_TRUE(ids.detect(malicious).intrusion);

  RealtimeMonitor monitor(reference_, dwm_config(), ids.thresholds());
  std::size_t alarm_at_frame = 0;
  std::size_t pos = 0;
  while (pos < malicious.frames()) {
    const std::size_t end = std::min(pos + 64, malicious.frames());
    monitor.push(SignalView(malicious).slice(pos, end));
    pos = end;
    if (monitor.intrusion() && alarm_at_frame == 0) {
      alarm_at_frame = end;
    }
  }
  EXPECT_TRUE(monitor.intrusion());
  // The tampered section starts at 1/3 of the signal; the alarm must fire
  // before the print finishes (that is the point of a real-time IDS).
  EXPECT_LT(alarm_at_frame, malicious.frames());
  EXPECT_GT(alarm_at_frame, malicious.frames() / 4);
}

TEST_F(NsyncFixture, RealtimeMonitorFeatureParityWithOffline) {
  NsyncIds ids(reference_, dwm_config());
  const Signal benign = benign_observation(reference_, 994);
  const Analysis offline = ids.analyze(benign);

  RealtimeMonitor monitor(reference_, dwm_config(), {1e18, 1e18, 1e18});
  monitor.push(benign);
  const auto& live = monitor.features();
  ASSERT_EQ(live.c_disp.size(), offline.features.c_disp.size());
  for (std::size_t i = 0; i < live.c_disp.size(); ++i) {
    EXPECT_NEAR(live.c_disp[i], offline.features.c_disp[i], 1e-9);
    EXPECT_NEAR(live.h_dist_f[i], offline.features.h_dist_f[i], 1e-9);
    EXPECT_NEAR(live.v_dist_f[i], offline.features.v_dist_f[i], 1e-9);
  }
}

TEST_F(NsyncFixture, RealtimeMonitorRequiresDwm) {
  NsyncConfig cfg = dwm_config();
  cfg.sync = SyncMethod::kDtw;
  EXPECT_THROW(RealtimeMonitor(reference_, cfg, {1.0, 1.0, 1.0}),
               std::invalid_argument);
}

class NsyncMetricSweep : public ::testing::TestWithParam<DistanceMetric> {};

TEST_P(NsyncMetricSweep, EveryMetricSeparatesTamperedSignal) {
  const Signal reference = make_reference(1500, 300);
  std::vector<Signal> train;
  for (std::uint64_t s = 0; s < 6; ++s) {
    train.push_back(benign_observation(reference, 400 + s));
  }
  NsyncConfig cfg;
  cfg.sync = SyncMethod::kDwm;
  cfg.dwm.n_win = 64;
  cfg.dwm.n_hop = 32;
  cfg.dwm.n_ext = 24;
  cfg.dwm.n_sigma = 12.0;
  cfg.metric = GetParam();
  cfg.r = 0.5;
  NsyncIds ids(reference, cfg);
  ids.fit(train);
  EXPECT_TRUE(ids.detect(malicious_observation(reference, 500)).intrusion);
}

INSTANTIATE_TEST_SUITE_P(Metrics, NsyncMetricSweep,
                         ::testing::Values(DistanceMetric::kCorrelation,
                                           DistanceMetric::kCosine,
                                           DistanceMetric::kEuclidean,
                                           DistanceMetric::kMae));

}  // namespace
}  // namespace nsync::core
