// Tests for signal-based layer-change detection.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/layer_detect.hpp"
#include "eval/dataset.hpp"
#include "signal/rng.hpp"

namespace nsync {
namespace {

using signal::Rng;
using signal::Signal;

// ------------------------------------------------------ synthetic bursts --

Signal synthetic_acc(const std::vector<double>& layer_times, double fs,
                     double duration, std::uint64_t seed) {
  Rng rng(seed);
  Signal s(static_cast<std::size_t>(duration * fs), 6, fs);
  for (std::size_t n = 0; n < s.frames(); ++n) {
    for (std::size_t c = 0; c < 6; ++c) {
      s(n, c) = rng.normal(0.0, 1.0);
    }
  }
  // Z bursts at layer changes (80 ms of strong Z acceleration).
  for (double t : layer_times) {
    const auto start = static_cast<std::size_t>(t * fs);
    const auto len = static_cast<std::size_t>(0.08 * fs);
    for (std::size_t i = start; i < std::min(start + len, s.frames()); ++i) {
      s(i, 2) += rng.normal(0.0, 40.0);
    }
  }
  return s;
}

TEST(LayerDetect, FindsSyntheticBursts) {
  const std::vector<double> truth = {1.0, 6.0, 11.0, 16.0};
  const Signal acc = synthetic_acc(truth, 400.0, 20.0, 1);
  const auto detected = baselines::detect_layer_changes(acc);
  ASSERT_EQ(detected.size(), truth.size());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    EXPECT_NEAR(detected[i], truth[i], 0.1) << "layer " << i;
  }
  EXPECT_LT(baselines::layer_timing_error(detected, truth), 0.1);
}

TEST(LayerDetect, DebounceMergesCloseBursts) {
  // Two bursts 0.5 s apart with a 2 s debounce collapse into one event.
  const Signal acc = synthetic_acc({5.0, 5.5}, 400.0, 12.0, 2);
  const auto detected = baselines::detect_layer_changes(acc);
  EXPECT_EQ(detected.size(), 1u);
}

TEST(LayerDetect, NoBurstsNoDetections) {
  const Signal acc = synthetic_acc({}, 400.0, 10.0, 3);
  EXPECT_TRUE(baselines::detect_layer_changes(acc).empty());
}

TEST(LayerDetect, BadChannelThrows) {
  const Signal acc = synthetic_acc({}, 400.0, 1.0, 4);
  baselines::LayerDetectConfig cfg;
  cfg.z_channel = 9;
  EXPECT_THROW(baselines::detect_layer_changes(acc, cfg),
               std::invalid_argument);
}

TEST(LayerDetect, TimingErrorGuards) {
  EXPECT_DOUBLE_EQ(baselines::layer_timing_error({}, {}), 0.0);
  EXPECT_TRUE(std::isinf(
      baselines::layer_timing_error({1.0}, {1.0, 2.0, 3.0, 4.0})));
  EXPECT_NEAR(baselines::layer_timing_error({1.1, 2.2}, {1.0, 2.0}), 0.15,
              1e-9);
}

// ----------------------------------------------- end-to-end on simulator --

TEST(LayerDetect, RecoversSimulatorLayersFromAcc) {
  eval::EvalScale scale = eval::EvalScale::tiny();
  scale.train_count = 0;
  scale.benign_test_count = 1;
  scale.malicious_per_attack = 0;
  const eval::Dataset ds(eval::PrinterKind::kUm3, scale,
                         {sensors::SideChannel::kAcc});
  const auto& process = ds.test().front();
  const auto& acc = process.raw.at(sensors::SideChannel::kAcc);

  baselines::LayerDetectConfig cfg;
  cfg.min_layer_seconds = 3.0;
  const auto detected = baselines::detect_layer_changes(acc, cfg);
  // Layer 0's change happens during the trimmed pre-roll, so `detected`
  // may miss it; all later layers must be found within ~0.3 s.
  ASSERT_GE(detected.size(), process.layer_times.size() - 1);
  const double err =
      baselines::layer_timing_error(detected, process.layer_times, 1);
  EXPECT_LT(err, 0.4);
}

}  // namespace
}  // namespace nsync
