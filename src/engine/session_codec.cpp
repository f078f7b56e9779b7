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

namespace {

template <class Io>
void nsync_config_fields(Io& io, FieldRef<Io, core::NsyncConfig> cfg) {
  io.enumeration(cfg.sync, core::SyncMethod::kDwm, core::SyncMethod::kDtw,
                 "sync method");
  io.pod(cfg.dwm.n_win);
  io.pod(cfg.dwm.n_hop);
  io.pod(cfg.dwm.n_ext);
  io.pod(cfg.dwm.n_sigma);
  io.pod(cfg.dwm.eta);
  io.flag(cfg.dwm.tde.use_fft, "use_fft flag");
  io.pod(cfg.dtw_radius);
  io.enumeration(cfg.metric, core::DistanceMetric::kCorrelation,
                 core::DistanceMetric::kMae, "distance metric");
  io.pod(cfg.filter_window);
  io.pod(cfg.r);
  io.pod(cfg.health.history);
  io.pod(cfg.health.degraded_fraction);
  io.pod(cfg.health.offline_consecutive);
  io.pod(cfg.health.recovery_consecutive);
}

/// name | reference signal | config | thresholds, each piece by reference.
template <class Io>
void channel_fields(Io& io, auto& name, auto& reference, auto& config,
                    auto& thresholds) {
  io.str(name);
  io.signal(reference);
  nsync_config_fields(io, config);
  core::thresholds_fields(io, thresholds);
}

}  // namespace

void save_channel_spec(ByteWriter& w, const std::string& name,
                       const SignalView& reference,
                       const core::NsyncConfig& config,
                       const core::Thresholds& thresholds) {
  FieldWriter io(w);
  channel_fields(io, name, reference, config, thresholds);
}

void save_channel_spec(ByteWriter& w, const ChannelSpec& spec) {
  FieldWriter io(w);
  channel_fields(io, spec.name, spec.reference, spec.config, spec.thresholds);
}

ChannelSpec load_channel_spec(ByteReader& r) {
  ChannelSpec spec;
  FieldReader io(r);
  channel_fields(io, spec.name, spec.reference, spec.config, spec.thresholds);
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
  const core::VotingPolicy voting(spec.rule);
  FieldWriter io(w);
  session_fields(io, spec.name, spec.model,
                 spec.policy ? *spec.policy : voting, spec.channels,
                 [&w](const ChannelSpec& c) { save_channel_spec(w, c); });
}

SessionSpec load_session_spec(ByteReader& r) {
  SessionSpec spec;
  FieldReader io(r);
  session_fields(io, spec.name, spec.model, spec.policy, spec.channels,
                 [&r](ChannelSpec& c) { c = load_channel_spec(r); });
  if (spec.channels.empty()) {
    throw CheckpointError(CheckpointErrorKind::kCorrupt,
                          "session codec: session '" + spec.name +
                              "' has no channels");
  }
  const auto* voting =
      dynamic_cast<const core::VotingPolicy*>(spec.policy.get());
  spec.rule = voting != nullptr ? voting->rule() : core::FusionRule::kAny;
  return spec;
}

SessionSpec decode_session_spec(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes);
  SessionSpec spec = load_session_spec(r);
  r.finish();
  return spec;
}

}  // namespace nsync::engine
