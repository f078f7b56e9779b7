#include "eval/experiments.hpp"

#include <chrono>

#include "baselines/bayens.hpp"
#include "baselines/belikovetsky.hpp"
#include "baselines/gao.hpp"
#include "baselines/gatlin.hpp"
#include "baselines/moore.hpp"
#include "dsp/simd/simd.hpp"
#include "runtime/thread_pool.hpp"

namespace nsync::eval {

namespace {
// Prevents the optimizer from discarding timed work.
volatile std::size_t benchmark_sink_ = 0;

// Advances a CRC-32 register over the raw bytes of one print's
// backend-invariant score arrays (see NsyncResult::score_crc).
std::uint32_t crc_scores(std::uint32_t state, const core::Analysis& a) {
  for (const std::vector<double>* v :
       {&a.h_disp, &a.features.c_disp, &a.features.h_dist_f}) {
    state = dsp::simd::ops().crc32_update(
        state, reinterpret_cast<const std::uint8_t*>(v->data()),
        v->size() * sizeof(double));
  }
  return state;
}
}  // namespace

using core::NsyncConfig;
using core::NsyncIds;
using core::SyncMethod;

NsyncResult run_nsync(const ChannelData& data, PrinterKind printer,
                      SyncMethod method, double r, std::size_t dtw_radius) {
  NsyncConfig cfg;
  cfg.sync = method;
  cfg.r = r;
  cfg.dtw_radius = dtw_radius;
  cfg.metric = core::DistanceMetric::kCorrelation;
  if (method == SyncMethod::kDwm) {
    cfg.dwm = dwm_params_for(printer, data.sample_rate);
  }
  NsyncIds ids(data.reference.signal, cfg);

  // analyze() is const and safe to call concurrently (see NsyncIds docs);
  // per-process analyses land in index order, so the learned thresholds
  // and the verdict tally below are identical at any worker count.
  const std::vector<core::Analysis> analyses = runtime::parallel_transform(
      data.train.size(),
      [&](std::size_t i) { return ids.analyze(data.train[i].signal); });
  ids.fit_from_analyses(analyses);

  const std::vector<core::Analysis> tested = runtime::parallel_transform(
      data.test.size(),
      [&](std::size_t i) { return ids.analyze(data.test[i].sig.signal); });
  NsyncResult out;
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const core::Analysis& a : analyses) crc = crc_scores(crc, a);
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    crc = crc_scores(crc, tested[i]);
    const core::Detection d = ids.detect(tested[i]);
    const bool malicious = data.test[i].malicious;
    out.overall.add(d.intrusion, malicious);
    out.c_disp.add(d.by_c_disp, malicious);
    out.h_dist.add(d.by_h_dist, malicious);
    out.v_dist.add(d.by_v_dist, malicious);
  }
  out.score_crc = crc ^ 0xFFFFFFFFu;
  return out;
}

Confusion run_moore(const ChannelData& data) {
  baselines::MooreIds ids(data.reference.signal, baselines::MooreConfig{});
  std::vector<nsync::signal::Signal> train;
  train.reserve(data.train.size());
  for (const auto& s : data.train) train.push_back(s.signal);
  ids.fit(train);
  const auto verdicts = runtime::parallel_transform(
      data.test.size(),
      [&](std::size_t i) { return ids.detect(data.test[i].sig.signal); });
  Confusion c;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    c.add(verdicts[i], data.test[i].malicious);
  }
  return c;
}

Confusion run_gao(const ChannelData& data) {
  baselines::GaoIds ids(data.reference, baselines::GaoConfig{});
  ids.fit(data.train);
  const auto verdicts = runtime::parallel_transform(
      data.test.size(),
      [&](std::size_t i) { return ids.detect(data.test[i].sig); });
  Confusion c;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    c.add(verdicts[i], data.test[i].malicious);
  }
  return c;
}

BayensResult run_bayens(const ChannelData& data, double window_seconds) {
  baselines::BayensConfig cfg;
  cfg.window_seconds = window_seconds;
  baselines::BayensIds ids(data.reference.signal, cfg);
  std::vector<nsync::signal::Signal> train;
  train.reserve(data.train.size());
  for (const auto& s : data.train) train.push_back(s.signal);
  ids.fit(train);
  const auto detections = runtime::parallel_transform(
      data.test.size(),
      [&](std::size_t i) { return ids.detect(data.test[i].sig.signal); });
  BayensResult out;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    const auto& d = detections[i];
    const bool malicious = data.test[i].malicious;
    out.overall.add(d.intrusion, malicious);
    out.sequence.add(d.by_sequence, malicious);
    out.threshold.add(d.by_threshold, malicious);
  }
  return out;
}

GatlinResult run_gatlin(const ChannelData& data) {
  baselines::GatlinIds ids(data.reference, baselines::GatlinConfig{});
  ids.fit(data.train);
  const auto detections = runtime::parallel_transform(
      data.test.size(),
      [&](std::size_t i) { return ids.detect(data.test[i].sig); });
  GatlinResult out;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    const auto& d = detections[i];
    const bool malicious = data.test[i].malicious;
    out.overall.add(d.intrusion, malicious);
    out.time.add(d.by_time, malicious);
    out.match.add(d.by_match, malicious);
  }
  return out;
}

Confusion run_belikovetsky(const ChannelData& data,
                           double average_seconds) {
  baselines::BelikovetskyConfig cfg;
  cfg.average_seconds = average_seconds;
  baselines::BelikovetskyIds ids(data.reference.signal, cfg);
  const auto verdicts = runtime::parallel_transform(
      data.test.size(),
      [&](std::size_t i) { return ids.detect(data.test[i].sig.signal); });
  Confusion c;
  for (std::size_t i = 0; i < data.test.size(); ++i) {
    c.add(verdicts[i], data.test[i].malicious);
  }
  return c;
}

SyncSpeed measure_sync_speed(const ChannelData& data, PrinterKind printer,
                             std::size_t dtw_radius) {
  SyncSpeed out;
  if (data.test.empty()) return out;
  const auto& observed = data.test.front().sig.signal;
  const auto& reference = data.reference.signal;
  const double signal_seconds = observed.duration();
  if (signal_seconds <= 0.0) return out;

  using Clock = std::chrono::steady_clock;
  {
    const auto params = dwm_params_for(printer, data.sample_rate);
    const auto t0 = Clock::now();
    const auto r = core::DwmSynchronizer::align(observed, reference, params);
    const auto t1 = Clock::now();
    (void)r;
    out.dwm_seconds_per_signal_second =
        std::chrono::duration<double>(t1 - t0).count() / signal_seconds;
  }
  {
    const auto t0 = Clock::now();
    const auto r = core::fast_dtw(observed, reference, dtw_radius,
                                  core::DistanceMetric::kCorrelation);
    const auto t1 = Clock::now();
    (void)r;
    out.dtw_offline_seconds_per_signal_second =
        std::chrono::duration<double>(t1 - t0).count() / signal_seconds;
  }
  {
    // Streaming DTW: re-synchronize the grown prefix each time one DWM hop
    // of new samples arrives, as a real-time deployment must.
    const auto params = dwm_params_for(printer, data.sample_rate);
    const auto t0 = Clock::now();
    for (std::size_t end = params.n_win; end <= observed.frames();
         end += params.n_hop) {
      const auto prefix = nsync::signal::SignalView(observed).slice(0, end);
      const std::size_t ref_end =
          std::min(reference.frames(), end + params.n_ext);
      const auto ref_prefix =
          nsync::signal::SignalView(reference).slice(0, ref_end);
      const auto r = core::fast_dtw(prefix, ref_prefix, dtw_radius,
                                    core::DistanceMetric::kCorrelation);
      benchmark_sink_ = benchmark_sink_ + r.path.size();
    }
    const auto t1 = Clock::now();
    out.dtw_seconds_per_signal_second =
        std::chrono::duration<double>(t1 - t0).count() / signal_seconds;
  }
  return out;
}

const std::vector<sensors::SideChannel>& retained_channels() {
  static const std::vector<sensors::SideChannel> kRetained = {
      sensors::SideChannel::kAcc, sensors::SideChannel::kMag,
      sensors::SideChannel::kAud, sensors::SideChannel::kEpt};
  return kRetained;
}

const std::vector<sensors::SideChannel>& table_channels() {
  return retained_channels();
}

bool is_retained(sensors::SideChannel ch, Transform t) {
  if (ch == sensors::SideChannel::kTmp || ch == sensors::SideChannel::kPwr) {
    return false;
  }
  if (ch == sensors::SideChannel::kEpt && t == Transform::kRaw) {
    return false;  // Section VIII-B drops the raw EPT signal
  }
  return true;
}

}  // namespace nsync::eval
