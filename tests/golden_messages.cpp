#include "golden_messages.hpp"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>

#include "core/fusion.hpp"
#include "dsp/simd/simd.hpp"

namespace nsync::golden {

namespace wire = engine::wire;
using nsync::signal::Signal;

namespace {

/// A signal whose samples are exact binary fractions (no libm involved).
Signal exact_signal(std::size_t frames, std::size_t channels, double rate,
                    std::size_t salt) {
  Signal s(frames, channels, rate);
  for (std::size_t n = 0; n < frames; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      s(n, c) = static_cast<double>((n * 37 + c * 11 + salt) % 101) / 64.0 -
                0.75;
    }
  }
  return s;
}

engine::ChannelSpec channel(const std::string& name, std::size_t salt) {
  engine::ChannelSpec ch;
  ch.name = name;
  ch.reference = exact_signal(256, 1, 100.0, salt);
  ch.config.sync = core::SyncMethod::kDwm;
  ch.config.dwm.n_win = 64;
  ch.config.dwm.n_hop = 32;
  ch.config.dwm.n_ext = 24;
  ch.config.dwm.n_sigma = 12.0;
  ch.config.dwm.eta = 0.25;
  ch.config.dwm.tde.use_fft = true;
  ch.config.dtw_radius = 3;
  ch.config.filter_window = 5;
  ch.config.r = 0.375;
  ch.config.health.history = 40;
  ch.config.health.degraded_fraction = 0.3125;
  ch.config.health.offline_consecutive = 9;
  ch.config.health.recovery_consecutive = 17;
  ch.thresholds.c_c = 1.5 + static_cast<double>(salt);
  ch.thresholds.h_c = 2.25 + static_cast<double>(salt);
  ch.thresholds.v_c = 0.125 + static_cast<double>(salt);
  return ch;
}

wire::Stats stats() {
  wire::Stats m;
  m.shards = 2;
  m.sessions = 3;
  m.evicted = 1;
  m.windows = 4242;
  m.shed_frames = 17;
  m.rejected_frames = 5;
  m.queued_frames = 640;
  m.busy = 1;
  m.failed_shards = 1;
  for (std::uint64_t i = 0; i < 2; ++i) {
    wire::StatsShard sh;
    sh.shard = i;
    sh.sessions = 1 + i;
    sh.queued_frames = 300 + i;
    sh.peak_queued_frames = 900 + i;
    sh.enqueued_frames = 12000 + i;
    sh.shed_frames = 8 + i;
    sh.rejected_frames = 2 + i;
    sh.batches = 77 + i;
    sh.polls = 66 + i;
    sh.windows = 2000 + i;
    sh.feed_errors = 3 + i;
    sh.failed = static_cast<std::uint8_t>(i);
    sh.restarts = 4 + i;
    sh.discarded_frames = 128 * i;
    sh.checkpoints_written = 11 + i;
    sh.latency_samples = 500 + i;
    sh.p50_feed_to_verdict_us = 812.5 + static_cast<double>(i);
    sh.p99_feed_to_verdict_us = 4096.25 + static_cast<double>(i);
    sh.in_flight = static_cast<std::uint8_t>(1 - i);
    m.per_shard.push_back(sh);
  }
  m.baselines.push_back(wire::StatsBaseline{1, "UM3", "ACC", 12, 3});
  wire::StatsSession ss;
  ss.name = "printer-7";
  ss.evicted = 0;
  ss.intrusion = 1;
  ss.first_alarm_window = 64;
  ss.policy = "weighted";
  ss.fused_score = 1.328125;
  ss.windows = 96;
  ss.frames_fed = 24576;
  ss.channels.push_back(
      wire::StatsChannel{"ACC", 1, 1, 1.75, 0.59375, 96, 24576});
  ss.channels.push_back(wire::StatsChannel{
      "AUD", 0, static_cast<std::uint8_t>(core::ChannelHealth::kOffline),
      0.5, 0.0, 95, 24320});
  m.sessions_detail.push_back(std::move(ss));
  return m;
}

}  // namespace

engine::SessionSpec golden_spec(bool weighted) {
  engine::SessionSpec spec;
  spec.name = weighted ? "printer-w" : "printer-v";
  spec.model = "UM3";
  spec.channels.push_back(channel("ACC", 0));
  spec.channels.push_back(channel("AUD", 1));
  engine::ChannelSpec& aud = spec.channels.back();
  aud.config.dwm.tde.use_fft = false;
  aud.config.metric = core::DistanceMetric::kMae;
  if (weighted) {
    core::WeightedPolicyConfig cfg;
    cfg.threshold = 0.8125;
    cfg.degraded_weight = 0.375;
    cfg.score_cap = 6.5;
    cfg.spread_floor = 0.03125;
    spec.policy = std::make_shared<core::WeightedPolicy>(
        cfg, std::vector<std::pair<std::string, double>>{{"ACC", 0.59375},
                                                         {"AUD", 0.40625}});
  } else {
    spec.rule = core::FusionRule::kMajority;
    aud.config.sync = core::SyncMethod::kDtw;
  }
  return spec;
}

std::vector<std::pair<std::string, wire::Message>> golden_messages() {
  std::vector<std::pair<std::string, wire::Message>> out;
  out.emplace_back("hello.nsfp",
                   wire::Hello{wire::kProtocolVersion, "golden-client"});
  out.emplace_back("hello_ok.nsfp",
                   wire::HelloOk{wire::kProtocolVersion, 4, 7});
  out.emplace_back("add_session.nsfp", wire::AddSession{golden_spec(false)});
  out.emplace_back("add_session_weighted.nsfp",
                   wire::AddSession{golden_spec(true)});
  out.emplace_back("add_session_ok.nsfp", wire::AddSessionOk{3, 1});
  {
    wire::Feed m;
    m.session = 42;
    m.channel = "AUD";
    m.frames = exact_signal(5, 2, 250.0, 3);
    out.emplace_back("feed.nsfp", std::move(m));
  }
  out.emplace_back("feed_ok.nsfp", wire::FeedOk{256, 12, 1024});
  out.emplace_back("poll_stats.nsfp", wire::PollStats{1});
  out.emplace_back("stats.nsfp", stats());
  out.emplace_back("evict.nsfp", wire::Evict{5});
  out.emplace_back("evict_ok.nsfp", wire::EvictOk{});
  out.emplace_back("ping.nsfp", wire::Ping{0x9E3779B97F4A7C15ull});
  out.emplace_back("pong.nsfp", wire::Pong{0xC2B2AE3D27D4EB4Full});
  out.emplace_back("error_busy.nsfp",
                   wire::Error{wire::ErrorCode::kBusy,
                               "connection limit reached", 250});
  return out;
}

std::vector<std::uint8_t> golden_spec_file(const std::string& dir) {
  engine::MonitorEngine engine;
  (void)engine.add_session(golden_spec(true));
  const std::string path = dir + "/golden.nckp";
  engine.checkpoint(path);
  std::ifstream in(engine::MonitorEngine::spec_path(path, 0),
                   std::ios::binary);
  if (!in) throw std::runtime_error("checkpoint wrote no spec file");
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

namespace {

/// A print that is not the reference: another exact-fraction sequence.
Signal tampered_signal(std::size_t frames) {
  Signal s(frames, 1, 100.0);
  for (std::size_t n = 0; n < frames; ++n) {
    s(n, 0) = static_cast<double>((n * 53 + 7) % 89) / 32.0 - 1.25;
  }
  return s;
}

/// `n` flat frames: every window over them is degenerate.
Signal flat(std::size_t n) {
  Signal s(n, 1, 100.0);
  for (std::size_t i = 0; i < n; ++i) s(i, 0) = 0.25;
  return s;
}

/// Pins the scalar SIMD backend for a scope.
class ScalarBackend {
 public:
  ScalarBackend() : saved_(dsp::simd::active_isa()) {
    dsp::simd::set_backend(dsp::simd::Isa::kScalar);
  }
  ~ScalarBackend() { dsp::simd::set_backend(saved_); }
  ScalarBackend(const ScalarBackend&) = delete;
  ScalarBackend& operator=(const ScalarBackend&) = delete;

 private:
  dsp::simd::Isa saved_;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace

engine::MonitorEngineOptions golden_engine_options(const std::string& dir) {
  engine::MonitorEngineOptions options;
  options.baseline.adaptive = true;
  options.baseline.dir = dir;
  options.baseline.filename = kRegistryFileName;
  return options;
}

engine::MonitorEngine golden_engine(const std::string& dir) {
  const ScalarBackend scalar;
  engine::MonitorEngine fleet(golden_engine_options(dir));

  // Session 0: the reference itself, evicted benign and healthy, so the
  // end-of-print fold fills the recent ring of (UM3, ACC) and (UM3, AUD).
  engine::SessionSpec benign = golden_spec(true);
  benign.name = "printer-b";
  benign.policy = nullptr;
  benign.rule = core::FusionRule::kAll;
  const std::size_t b = fleet.add_session(benign);
  for (const auto& c : benign.channels) {
    fleet.feed(b, c.name, c.reference.slice(0, 160));
    fleet.feed(b, c.name, c.reference.slice(160, 256));
  }
  (void)fleet.poll_inline();
  (void)fleet.evict_session(b);

  // Session 1: the weighted policy over a tampered print.
  const engine::SessionSpec weighted = golden_spec(true);
  const std::size_t w = fleet.add_session(weighted);
  for (const auto& c : weighted.channels) {
    fleet.feed(w, c.name, tampered_signal(224));
  }
  (void)fleet.poll_inline();

  // Session 2: one channel on another model, half real frames then flat
  // ones (invalid windows, degraded health), plus frames fed after the
  // last poll.
  engine::SessionSpec faulty;
  faulty.name = "printer-f";
  faulty.model = "RM3";
  faulty.rule = core::FusionRule::kMajority;
  faulty.channels.push_back(golden_spec(true).channels[0]);
  engine::ChannelSpec& acc = faulty.channels[0];
  acc.config.health.history = 4;
  acc.config.health.degraded_fraction = 0.5;
  const std::size_t f = fleet.add_session(faulty);
  fleet.feed(f, "ACC", acc.reference.slice(0, 128));
  fleet.feed(f, "ACC", flat(96));
  (void)fleet.poll_inline();
  fleet.feed(f, "ACC", flat(19));
  return fleet;
}

NamedFiles checkpoint_files(const engine::MonitorEngine& fleet,
                            const std::string& dir) {
  const std::string path = dir + "/" + kStateFileName;
  fleet.checkpoint(path);
  NamedFiles out;
  out.emplace_back(kStateFileName, read_file(path));
  for (std::size_t id = 0; id < fleet.sessions(); ++id) {
    if (fleet.snapshot(id).evicted) continue;
    out.emplace_back(engine::MonitorEngine::spec_path(kStateFileName, id),
                     read_file(engine::MonitorEngine::spec_path(path, id)));
  }
  out.emplace_back(kRegistryFileName, read_file(fleet.baseline_path()));
  out.emplace_back(kPayloadFileName, fleet.serialize());
  std::ranges::sort(out);
  return out;
}

std::vector<std::uint8_t> read_golden(const std::string& name) {
  const std::string path = std::string(NSYNC_GOLDEN_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("missing golden file " + path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

}  // namespace nsync::golden
