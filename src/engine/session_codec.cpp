#include "engine/session_codec.hpp"

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "signal/checkpoint.hpp"

namespace nsync::engine {

using nsync::signal::ByteReader;
using nsync::signal::ByteWriter;
using nsync::signal::CheckpointError;
using nsync::signal::CheckpointErrorKind;
using nsync::signal::SignalView;

void save_nsync_config(ByteWriter& w, const core::NsyncConfig& cfg) {
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(cfg.sync));
  w.pod<std::uint64_t>(cfg.dwm.n_win);
  w.pod<std::uint64_t>(cfg.dwm.n_hop);
  w.pod<std::uint64_t>(cfg.dwm.n_ext);
  w.pod<double>(cfg.dwm.n_sigma);
  w.pod<double>(cfg.dwm.eta);
  w.pod<std::uint8_t>(cfg.dwm.tde.use_fft ? 1 : 0);
  w.pod<std::uint64_t>(cfg.dtw_radius);
  w.pod<std::uint32_t>(static_cast<std::uint32_t>(cfg.metric));
  w.pod<std::uint64_t>(cfg.filter_window);
  w.pod<double>(cfg.r);
  w.pod<std::uint64_t>(cfg.health.history);
  w.pod<double>(cfg.health.degraded_fraction);
  w.pod<std::uint64_t>(cfg.health.offline_consecutive);
  w.pod<std::uint64_t>(cfg.health.recovery_consecutive);
}

core::NsyncConfig load_nsync_config(ByteReader& r) {
  core::NsyncConfig cfg;
  const auto sync = r.pod<std::uint32_t>();
  if (sync > static_cast<std::uint32_t>(core::SyncMethod::kDtw)) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "session codec: unknown sync method " +
                              std::to_string(sync));
  }
  cfg.sync = static_cast<core::SyncMethod>(sync);
  cfg.dwm.n_win = r.pod<std::uint64_t>();
  cfg.dwm.n_hop = r.pod<std::uint64_t>();
  cfg.dwm.n_ext = r.pod<std::uint64_t>();
  cfg.dwm.n_sigma = r.pod<double>();
  cfg.dwm.eta = r.pod<double>();
  cfg.dwm.tde.use_fft = r.pod<std::uint8_t>() != 0;
  cfg.dtw_radius = r.pod<std::uint64_t>();
  const auto metric = r.pod<std::uint32_t>();
  if (metric > static_cast<std::uint32_t>(core::DistanceMetric::kCorrelation)) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "session codec: unknown distance metric " +
                              std::to_string(metric));
  }
  cfg.metric = static_cast<core::DistanceMetric>(metric);
  cfg.filter_window = r.pod<std::uint64_t>();
  cfg.r = r.pod<double>();
  cfg.health.history = r.pod<std::uint64_t>();
  cfg.health.degraded_fraction = r.pod<double>();
  cfg.health.offline_consecutive = r.pod<std::uint64_t>();
  cfg.health.recovery_consecutive = r.pod<std::uint64_t>();
  return cfg;
}

void save_thresholds(ByteWriter& w, const core::Thresholds& t) {
  w.pod<double>(t.c_c);
  w.pod<double>(t.h_c);
  w.pod<double>(t.v_c);
}

core::Thresholds load_thresholds(ByteReader& r) {
  core::Thresholds t;
  t.c_c = r.pod<double>();
  t.h_c = r.pod<double>();
  t.v_c = r.pod<double>();
  return t;
}

void save_channel_spec(ByteWriter& w, const std::string& name,
                       const SignalView& reference,
                       const core::NsyncConfig& config,
                       const core::Thresholds& thresholds) {
  w.str(name);
  w.signal(reference);
  save_nsync_config(w, config);
  save_thresholds(w, thresholds);
}

void save_channel_spec(ByteWriter& w, const ChannelSpec& spec) {
  save_channel_spec(w, spec.name, SignalView(spec.reference), spec.config,
                    spec.thresholds);
}

ChannelSpec load_channel_spec(ByteReader& r) {
  ChannelSpec spec;
  spec.name = r.str();
  spec.reference = r.signal();
  spec.config = load_nsync_config(r);
  spec.thresholds = load_thresholds(r);
  return spec;
}

void save_fusion_policy(ByteWriter& w, const core::FusionPolicy& policy) {
  if (policy.kind() == core::FusionPolicyKind::kVoting) {
    const auto& voting = static_cast<const core::VotingPolicy&>(policy);
    w.pod<std::uint32_t>(static_cast<std::uint32_t>(voting.rule()));
    return;
  }
  if (policy.kind() != core::FusionPolicyKind::kWeighted) {
    throw std::invalid_argument("save_fusion_policy: unserializable policy '" +
                                policy.name() + "'");
  }
  const auto& weighted = static_cast<const core::WeightedPolicy&>(policy);
  w.pod<std::uint32_t>(kFusionPolicyMarker);
  w.pod<std::uint8_t>(kFusionPolicyVersion);
  w.pod<std::uint8_t>(static_cast<std::uint8_t>(policy.kind()));
  w.pod<double>(weighted.config().threshold);
  w.pod<double>(weighted.config().degraded_weight);
  w.pod<double>(weighted.config().score_cap);
  w.pod<double>(weighted.config().spread_floor);
  w.pod<std::uint8_t>(weighted.trained() ? 1 : 0);
  w.pod<std::uint64_t>(weighted.weights().size());
  for (const auto& [name, weight] : weighted.weights()) {
    w.str(name);
    w.pod<double>(weight);
  }
}

std::shared_ptr<const core::FusionPolicy> load_fusion_policy(ByteReader& r) {
  const auto tag = r.pod<std::uint32_t>();
  if (tag != kFusionPolicyMarker) {
    // Legacy form: the bare rule u32, still fully supported.
    if (tag > static_cast<std::uint32_t>(core::FusionRule::kAll)) {
      throw CheckpointError(
          CheckpointErrorKind::kCorrupt,
          "session codec: unknown fusion rule " + std::to_string(tag));
    }
    return std::make_shared<core::VotingPolicy>(
        static_cast<core::FusionRule>(tag));
  }
  const auto version = r.pod<std::uint8_t>();
  if (version != kFusionPolicyVersion) {
    throw CheckpointError(
        CheckpointErrorKind::kBadVersion,
        "session codec: fusion policy sub-version " + std::to_string(version) +
            " not supported (this build reads version " +
            std::to_string(kFusionPolicyVersion) + ")");
  }
  const auto kind = r.pod<std::uint8_t>();
  if (kind == static_cast<std::uint8_t>(core::FusionPolicyKind::kVoting)) {
    // Explicit voting form: accepted for symmetry, never emitted.
    const auto rule = r.pod<std::uint32_t>();
    if (rule > static_cast<std::uint32_t>(core::FusionRule::kAll)) {
      throw CheckpointError(
          CheckpointErrorKind::kCorrupt,
          "session codec: unknown fusion rule " + std::to_string(rule));
    }
    return std::make_shared<core::VotingPolicy>(
        static_cast<core::FusionRule>(rule));
  }
  if (kind != static_cast<std::uint8_t>(core::FusionPolicyKind::kWeighted)) {
    throw CheckpointError(
        CheckpointErrorKind::kCorrupt,
        "session codec: unknown fusion policy kind " + std::to_string(kind));
  }
  core::WeightedPolicyConfig cfg;
  cfg.threshold = r.pod<double>();
  cfg.degraded_weight = r.pod<double>();
  cfg.score_cap = r.pod<double>();
  cfg.spread_floor = r.pod<double>();
  const auto trained = r.pod<std::uint8_t>();
  if (trained > 1) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "session codec: bad weighted-policy trained flag");
  }
  const auto n_weights = r.pod<std::uint64_t>();
  if (n_weights > r.remaining() || (trained == 1 && n_weights == 0) ||
      (trained == 0 && n_weights != 0)) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "session codec: implausible weighted-policy weight "
                          "count " +
                              std::to_string(n_weights));
  }
  std::vector<std::pair<std::string, double>> weights;
  weights.reserve(n_weights);
  for (std::uint64_t i = 0; i < n_weights; ++i) {
    std::string name = r.str();
    const double weight = r.pod<double>();
    weights.emplace_back(std::move(name), weight);
  }
  try {
    if (trained == 0) {
      return std::make_shared<core::WeightedPolicy>(cfg);
    }
    return std::make_shared<core::WeightedPolicy>(cfg, std::move(weights));
  } catch (const std::invalid_argument& e) {
    // Config/weight validation failures on hostile bytes surface as the
    // typed corruption error every loader promises.
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          std::string("session codec: ") + e.what());
  }
}

void save_session_spec(ByteWriter& w, const SessionSpec& spec) {
  w.str(spec.name);
  w.str(spec.model);
  if (spec.policy) {
    save_fusion_policy(w, *spec.policy);
  } else {
    w.pod<std::uint32_t>(static_cast<std::uint32_t>(spec.rule));
  }
  w.pod<std::uint64_t>(spec.channels.size());
  for (const auto& c : spec.channels) save_channel_spec(w, c);
}

SessionSpec load_session_spec(ByteReader& r) {
  SessionSpec spec;
  spec.name = r.str();
  spec.model = r.str();
  spec.policy = load_fusion_policy(r);
  if (const auto* voting =
          dynamic_cast<const core::VotingPolicy*>(spec.policy.get())) {
    spec.rule = voting->rule();
  } else {
    spec.rule = core::FusionRule::kAny;
  }
  const auto n_channels = r.pod<std::uint64_t>();
  if (n_channels == 0 || n_channels > r.remaining()) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "session codec: implausible channel count in "
                          "session '" +
                              spec.name + "'");
  }
  spec.channels.reserve(n_channels);
  for (std::uint64_t i = 0; i < n_channels; ++i) {
    spec.channels.push_back(load_channel_spec(r));
  }
  return spec;
}

SessionSpec decode_session_spec(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  SessionSpec spec = load_session_spec(r);
  r.finish();
  return spec;
}

}  // namespace nsync::engine
