#include "core/fusion.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace nsync::core {

std::string fusion_rule_name(FusionRule r) {
  switch (r) {
    case FusionRule::kAny: return "any";
    case FusionRule::kMajority: return "majority";
    case FusionRule::kAll: return "all";
  }
  return "unknown";
}

FusionRule parse_fusion_rule(const std::string& name) {
  if (name == "any") return FusionRule::kAny;
  if (name == "majority") return FusionRule::kMajority;
  if (name == "all") return FusionRule::kAll;
  throw std::invalid_argument("parse_fusion_rule: unknown rule '" + name +
                              "' (valid: any|majority|all)");
}

bool fused_intrusion(FusionRule rule, std::size_t alarming,
                     std::size_t online) {
  switch (rule) {
    case FusionRule::kAny: return alarming > 0;
    case FusionRule::kMajority: return 2 * alarming > online;
    case FusionRule::kAll: return online > 0 && alarming == online;
  }
  return false;
}

double threshold_ratio(double feature, double threshold) {
  if (std::isnan(feature)) return 0.0;
  if (threshold > 0.0) {
    return std::clamp(feature / threshold, 0.0, kMaxChannelScore);
  }
  return feature > 0.0 ? kMaxChannelScore : 0.0;
}

double channel_score(const FeatureMaxima& peaks, const Thresholds& t) {
  double score = 0.0;
  score = std::max(score, threshold_ratio(peaks.c_max, t.c_c));
  score = std::max(score, threshold_ratio(peaks.h_max, t.h_c));
  score = std::max(score, threshold_ratio(peaks.v_max, t.v_c));
  return score;
}

double channel_score(const DetectionFeatures& f, const Thresholds& t) {
  return channel_score(feature_maxima(f), t);
}

void FusionPolicy::fit(std::span<const std::string> /*channel_names*/,
                       const std::vector<std::vector<double>>&
                       /*benign_scores*/) {}

namespace {

/// Shared by both policies: count this channel into the online/alarming
/// totals and fold its first_alarm_window in with the same precedence the
/// engine's historical vote used (earliest non-negative window among the
/// alarming online channels).
void tally_channel(const ChannelScore& c, FusedVerdict& v) {
  if (c.health == ChannelHealth::kOffline) return;
  ++v.online_channels;
  if (c.alarm) {
    ++v.alarming_channels;
    const std::ptrdiff_t w = c.first_alarm_window;
    if (v.first_alarm_window < 0 || (w >= 0 && w < v.first_alarm_window)) {
      v.first_alarm_window = w;
    }
  }
}

/// Resets `v` to an empty verdict with one zero-weight contribution per
/// channel, reusing the storage `v.channels` already holds.
void reset_verdict(std::span<const ChannelScore> channels, FusedVerdict& v) {
  v.intrusion = false;
  v.score = 0.0;
  v.alarming_channels = 0;
  v.online_channels = 0;
  v.first_alarm_window = -1;
  v.channels.resize(channels.size());
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const ChannelScore& c = channels[i];
    ChannelContribution& out = v.channels[i];
    out.name = c.name;
    out.score = c.score;
    out.weight = 0.0;
    out.alarm = c.alarm;
    out.health = c.health;
  }
}

}  // namespace

void VotingPolicy::evaluate_into(std::span<const ChannelScore> channels,
                                 FusedVerdict& v) const {
  reset_verdict(channels, v);
  for (const ChannelScore& c : channels) tally_channel(c, v);
  if (v.online_channels > 0) {
    // Every online channel holds an equal vote.
    const double w = 1.0 / static_cast<double>(v.online_channels);
    for (ChannelContribution& c : v.channels) {
      if (c.health != ChannelHealth::kOffline) c.weight = w;
    }
    v.score = static_cast<double>(v.alarming_channels) /
              static_cast<double>(v.online_channels);
  }
  v.intrusion = fused_intrusion(rule_, v.alarming_channels, v.online_channels);
}

void WeightedPolicyConfig::validate() const {
  if (!(threshold > 0.0) || !std::isfinite(threshold)) {
    throw std::invalid_argument("WeightedPolicyConfig: threshold must be > 0");
  }
  if (!(degraded_weight >= 0.0) || !(degraded_weight <= 1.0)) {
    throw std::invalid_argument(
        "WeightedPolicyConfig: degraded_weight must be in [0, 1]");
  }
  if (!(score_cap >= 1.0) || !std::isfinite(score_cap)) {
    throw std::invalid_argument(
        "WeightedPolicyConfig: score_cap must be >= 1");
  }
  if (!(spread_floor > 0.0) || !std::isfinite(spread_floor)) {
    throw std::invalid_argument(
        "WeightedPolicyConfig: spread_floor must be > 0");
  }
}

WeightedPolicy::WeightedPolicy(WeightedPolicyConfig config)
    : config_(config) {
  config_.validate();
}

WeightedPolicy::WeightedPolicy(
    WeightedPolicyConfig config,
    std::vector<std::pair<std::string, double>> weights)
    : config_(config), weights_(std::move(weights)), trained_(true) {
  config_.validate();
  for (const auto& [name, w] : weights_) {
    if (!(w >= 0.0) || !std::isfinite(w)) {
      throw std::invalid_argument("WeightedPolicy: weight for '" + name +
                                  "' must be finite and >= 0");
    }
  }
}

void WeightedPolicy::evaluate_into(std::span<const ChannelScore> channels,
                                   FusedVerdict& v) const {
  reset_verdict(channels, v);
  double weight_sum = 0.0;
  double vote_sum = 0.0;
  double margin_sum = 0.0;
  for (std::size_t i = 0; i < channels.size(); ++i) {
    const ChannelScore& c = channels[i];
    tally_channel(c, v);
    if (c.health != ChannelHealth::kOffline) {
      double w = 1.0;
      if (trained_) {
        // A channel the fit never saw gets an average share rather than a
        // full unit on the normalized scale.
        w = weights_.empty() ? 1.0
                             : 1.0 / static_cast<double>(weights_.size());
        for (const auto& [name, learned] : weights_) {
          if (name == c.name) {
            w = learned;
            break;
          }
        }
      }
      if (c.health == ChannelHealth::kDegraded) w *= config_.degraded_weight;
      v.channels[i].weight = w;
      weight_sum += w;
      if (c.alarm) vote_sum += w;
      margin_sum += w * std::min(c.score, config_.score_cap);
    }
  }
  if (weight_sum > 0.0) {
    // Renormalize the surviving (online, possibly degraded) weights so
    // both terms stay weighted *means* however many sensors are dark.
    for (ChannelContribution& c : v.channels) c.weight /= weight_sum;
    v.score = vote_sum / weight_sum +
              kWeightedRefineGain * (margin_sum / weight_sum) /
                  config_.score_cap;
  }
  v.intrusion = v.score > config_.threshold;
}

void WeightedPolicy::fit(std::span<const std::string> channel_names,
                         const std::vector<std::vector<double>>& benign_scores) {
  const std::size_t n = channel_names.size();
  if (n == 0) {
    throw std::invalid_argument("WeightedPolicy::fit: no channels");
  }
  if (benign_scores.size() < 2) {
    throw std::invalid_argument(
        "WeightedPolicy::fit: need >= 2 benign calibration runs to estimate "
        "per-channel spread");
  }
  for (const auto& run : benign_scores) {
    if (run.size() != n) {
      throw std::invalid_argument(
          "WeightedPolicy::fit: calibration run has " +
          std::to_string(run.size()) + " scores for " + std::to_string(n) +
          " channels");
    }
  }
  const double runs = static_cast<double>(benign_scores.size());
  std::vector<double> mu(n, 0.0);
  std::vector<double> sd(n, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    for (const auto& run : benign_scores) {
      mu[k] += std::min(run[k], config_.score_cap);
    }
    mu[k] /= runs;
    for (const auto& run : benign_scores) {
      const double d = std::min(run[k], config_.score_cap) - mu[k];
      sd[k] += d * d;
    }
    sd[k] = std::sqrt(sd[k] / runs);
  }
  // Pairwise Pearson correlation of the benign score series; only
  // *positive* co-movement counts as redundancy (anti-correlated channels
  // are complementary, not redundant).
  auto positive_corr = [&](std::size_t a, std::size_t b) {
    if (sd[a] == 0.0 || sd[b] == 0.0) return 0.0;
    double cov = 0.0;
    for (const auto& run : benign_scores) {
      cov += (std::min(run[a], config_.score_cap) - mu[a]) *
             (std::min(run[b], config_.score_cap) - mu[b]);
    }
    cov /= runs;
    const double rho = std::clamp(cov / (sd[a] * sd[b]), -1.0, 1.0);
    return std::max(0.0, rho);
  };
  std::vector<double> w(n, 0.0);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    // Benign headroom over spread: low, tight benign scores are the mark
    // of a reliable channel.  The floor keeps a channel whose benign mean
    // already rides the threshold from going exactly weightless.
    const double headroom = std::max(1.0 - mu[k], 0.05);
    const double raw = headroom / (sd[k] + config_.spread_floor);
    double shrink = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != k) shrink += positive_corr(k, j);
    }
    w[k] = raw / shrink;
    total += w[k];
  }
  weights_.clear();
  weights_.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    weights_.emplace_back(channel_names[k],
                          total > 0.0 ? w[k] / total
                                      : 1.0 / static_cast<double>(n));
  }
  trained_ = true;
}

FusionIds::FusionIds(std::shared_ptr<FusionPolicy> policy)
    : policy_(std::move(policy)) {
  if (!policy_) {
    throw std::invalid_argument("FusionIds: null fusion policy");
  }
  if (const auto* voting = dynamic_cast<const VotingPolicy*>(policy_.get())) {
    rule_ = voting->rule();
  }
}

void FusionIds::add_channel(const std::string& name,
                            nsync::signal::Signal reference,
                            const NsyncConfig& config) {
  if (members_.contains(name)) {
    throw std::invalid_argument("FusionIds: channel '" + name +
                                "' already registered");
  }
  members_.emplace(name, NsyncIds(std::move(reference), config));
}

void FusionIds::fit(std::span<const SignalMap> benign_runs) {
  if (members_.empty()) {
    throw std::logic_error("FusionIds::fit: no channels registered");
  }
  if (benign_runs.empty()) {
    throw std::invalid_argument("FusionIds::fit: no training runs");
  }
  // Per channel: analyze every run once, learn the OCC thresholds, then
  // score the same runs against them — the policy's calibration matrix.
  std::vector<std::string> names;
  names.reserve(members_.size());
  std::vector<std::vector<double>> scores(benign_runs.size());
  for (auto& row : scores) row.reserve(members_.size());
  for (auto& [name, ids] : members_) {
    std::vector<Analysis> analyses;
    analyses.reserve(benign_runs.size());
    for (const auto& run : benign_runs) {
      const auto it = run.find(name);
      if (it == run.end()) {
        throw FusionChannelError(
            FusionChannelError::Kind::kMissing, name,
            "FusionIds::fit: training run missing '" + name + "'");
      }
      analyses.push_back(ids.analyze(it->second));
    }
    ids.fit_from_analyses(analyses);
    for (std::size_t i = 0; i < analyses.size(); ++i) {
      scores[i].push_back(
          channel_score(analyses[i].features, ids.thresholds()));
    }
    names.push_back(name);
  }
  policy_->fit(names, scores);
}

FusionDetection FusionIds::detect(const SignalMap& observed) const {
  if (members_.empty()) {
    throw std::logic_error("FusionIds::detect: no channels registered");
  }
  std::map<std::string, Analysis> analyses;
  for (const auto& [name, ids] : members_) {
    const auto it = observed.find(name);
    if (it == observed.end()) {
      throw FusionChannelError(
          FusionChannelError::Kind::kMissing, name,
          "FusionIds::detect: observation missing '" + name + "'");
    }
    analyses.emplace(name, ids.analyze(it->second));
  }
  for (const auto& [name, signal] : observed) {
    if (!members_.contains(name)) {
      throw FusionChannelError(
          FusionChannelError::Kind::kUnknown, name,
          "FusionIds::detect: observation carries unknown channel '" + name +
              "'");
    }
  }
  return detect_analyses(analyses);
}

FusionDetection FusionIds::detect_analyses(
    const std::map<std::string, Analysis>& analyses) const {
  if (members_.empty()) {
    throw std::logic_error("FusionIds::detect_analyses: no channels");
  }
  for (const auto& [name, analysis] : analyses) {
    if (!members_.contains(name)) {
      throw FusionChannelError(
          FusionChannelError::Kind::kUnknown, name,
          "FusionIds::detect_analyses: unknown channel '" + name + "'");
    }
  }
  FusionDetection out;
  std::vector<ChannelScore> scores;
  scores.reserve(members_.size());
  for (const auto& [name, ids] : members_) {
    const auto it = analyses.find(name);
    if (it == analyses.end()) {
      throw FusionChannelError(
          FusionChannelError::Kind::kMissing, name,
          "FusionIds::detect_analyses: analysis missing '" + name + "'");
    }
    const Detection d = ids.detect(it->second);
    const ChannelHealth h =
        replay_health(it->second.valid, ids.config().health);
    scores.push_back({name, channel_score(it->second.features, ids.thresholds()),
                      d.intrusion, d.first_alarm_window, h});
    out.per_channel.emplace_back(name, d);
    out.health.emplace_back(name, h);
  }
  FusedVerdict v = policy_->evaluate(scores);
  out.intrusion = v.intrusion;
  out.fused_score = v.score;
  out.alarming_channels = v.alarming_channels;
  out.online_channels = v.online_channels;
  out.contributions = std::move(v.channels);
  return out;
}

const NsyncIds& FusionIds::member(const std::string& name) const {
  const auto it = members_.find(name);
  if (it == members_.end()) {
    throw std::invalid_argument("FusionIds::member: unknown channel '" +
                                name + "'");
  }
  return it->second;
}

}  // namespace nsync::core
