// Multi-channel fusion IDS — an extension beyond the paper.
//
// The paper evaluates NSYNC one side channel at a time (Tables VIII/IX) and
// notes that h_disp is "a property of the printing process, not the side
// channels" (Section VIII-B).  That observation invites fusion: run one
// NSYNC instance per side channel against per-channel references of the
// same benign process and combine the verdicts.
//
// Fusion is score-based and pluggable.  Each channel contributes a
// continuous anomaly score — its normalized OCC margin, the largest
// feature/threshold ratio over the stream so far (1.0 = exactly at the
// learned critical value; strictly above 1.0 iff the discriminator
// alarms) — plus its latched alarm bit and health state.  A FusionPolicy
// maps that score vector to a fused verdict with a per-channel
// contribution breakdown.  Two families ship behind the interface:
//
//   * VotingPolicy — the paper-era boolean vote over latched alarm bits
//     (kAny maximizes TPR, kMajority suppresses per-channel false
//     positives, kAll minimizes FPR), bit-for-bit identical to the
//     historical fused_intrusion() path.
//   * WeightedPolicy — per-channel reliability weights learned during
//     fit() from the benign calibration spread (channels whose benign
//     scores sit low and tight earn more weight), shrunk by the
//     positive pairwise correlation of the benign score series (Fig. 10
//     structure: redundant channels must not double-count), with
//     degraded channels down-weighted and offline channels excluded,
//     the surviving weights renormalized online.
#ifndef NSYNC_CORE_FUSION_HPP
#define NSYNC_CORE_FUSION_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/nsync.hpp"

namespace nsync::core {

enum class FusionRule {
  kAny,       ///< alarm if any channel alarms (union)
  kMajority,  ///< alarm if more than half of the channels alarm
  kAll,       ///< alarm only if every channel alarms (intersection)
};

[[nodiscard]] std::string fusion_rule_name(FusionRule r);

/// Inverse of fusion_rule_name(): "any" | "majority" | "all".  Throws
/// std::invalid_argument naming the valid set on anything else.
[[nodiscard]] FusionRule parse_fusion_rule(const std::string& name);

/// The voting rule itself: fused verdict given the number of alarming and
/// online channels.  Votes are taken over online channels only; with every
/// sensor dark there is no evidence either way, so the verdict stays benign
/// (callers can see online == 0 and escalate operationally).  Shared by the
/// batch FusionIds and the streaming MonitorEngine.
[[nodiscard]] bool fused_intrusion(FusionRule rule, std::size_t alarming,
                                   std::size_t online);

/// A per-channel map handed to FusionIds did not line up with the
/// registered channels: a registered channel is missing from the map
/// (kMissing) or the map carries a key no channel was registered under
/// (kUnknown).  channel() names the offender.
class FusionChannelError : public std::invalid_argument {
 public:
  enum class Kind { kMissing, kUnknown };

  FusionChannelError(Kind kind, std::string channel, const std::string& what)
      : std::invalid_argument(what), kind_(kind), channel_(std::move(channel)) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const std::string& channel() const { return channel_; }

 private:
  Kind kind_;
  std::string channel_;
};

/// Ceiling on a channel's anomaly score.  Keeps degenerate thresholds
/// (t == 0 with nonzero evidence) and extreme outliers finite so weighted
/// sums, telemetry doubles and JSON stay well-formed.
inline constexpr double kMaxChannelScore = 1e9;

/// One feature's contribution to the anomaly score: feature / threshold,
/// clamped to [0, kMaxChannelScore].  NaN features (masked faulted
/// windows) carry no evidence and score 0; a non-positive threshold with
/// positive evidence scores the ceiling (consistent with discriminate()'s
/// strict `feature > threshold` alarm).
[[nodiscard]] double threshold_ratio(double feature, double threshold);

/// Normalized OCC margin of one channel from its feature maxima: the
/// largest threshold_ratio of the three, floored at 0.  threshold_ratio is
/// monotone in the feature for every threshold (0, negative and NaN
/// included), so this is bitwise the maximum threshold_ratio over every
/// window of every feature array.  Strictly greater than 1.0 iff
/// discriminate() alarms on those windows; monotone in the number of
/// windows processed, so streaming evaluations at different drain
/// boundaries agree once they have seen the same windows.
[[nodiscard]] double channel_score(const FeatureMaxima& peaks,
                                   const Thresholds& t);

/// channel_score() of whole feature arrays (batch callers): their
/// feature_maxima() scored by the one formula above.
[[nodiscard]] double channel_score(const DetectionFeatures& f,
                                   const Thresholds& t);

/// Per-channel input to a FusionPolicy evaluation.
struct ChannelScore {
  std::string name;
  double score = 0.0;  ///< channel_score(): normalized OCC margin
  bool alarm = false;  ///< latched per-channel discriminator verdict
  std::ptrdiff_t first_alarm_window = -1;
  ChannelHealth health = ChannelHealth::kHealthy;
};

/// One channel's share of a fused verdict.
struct ChannelContribution {
  std::string name;
  double score = 0.0;   ///< the channel's anomaly score as evaluated
  double weight = 0.0;  ///< normalized weight (0 for offline channels)
  bool alarm = false;
  ChannelHealth health = ChannelHealth::kHealthy;
};

/// A policy's fused verdict over one score vector.
struct FusedVerdict {
  bool intrusion = false;
  /// Fused anomaly score.  VotingPolicy reports the alarming fraction of
  /// online channels; WeightedPolicy its soft vote — weighted alarm mass
  /// plus the gained margin term — and > threshold declares an intrusion.
  double score = 0.0;
  std::size_t alarming_channels = 0;  ///< alarming among online channels
  std::size_t online_channels = 0;    ///< channels not classified offline
  /// Earliest first_alarm_window among the alarming online channels; -1
  /// when none of them alarmed.
  std::ptrdiff_t first_alarm_window = -1;
  std::vector<ChannelContribution> channels;
};

/// Serialization tag of a concrete policy (stable wire/checkpoint values).
enum class FusionPolicyKind : std::uint8_t {
  kVoting = 0,
  kWeighted = 1,
};

/// Maps a vector of per-channel anomaly scores (+ alarm bits and health)
/// to one fused verdict.  Implementations are deterministic pure
/// functions of their configuration and fitted state; after fit() they
/// are immutable and safe to share across threads/sessions via
/// shared_ptr<const FusionPolicy>.
class FusionPolicy {
 public:
  virtual ~FusionPolicy() = default;

  [[nodiscard]] virtual FusionPolicyKind kind() const = 0;
  /// Human-readable identity for telemetry ("any", "weighted", ...).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Fuses `channels` into `out`, overwriting every field.  `out.channels`
  /// is resized in place, so a caller that keeps one verdict as scratch
  /// evaluates without touching the heap once it has seen as many
  /// channels (and channel-name lengths) before.
  virtual void evaluate_into(std::span<const ChannelScore> channels,
                             FusedVerdict& out) const = 0;

  /// evaluate_into() on a fresh verdict.
  [[nodiscard]] FusedVerdict evaluate(
      std::span<const ChannelScore> channels) const {
    FusedVerdict v;
    evaluate_into(channels, v);
    return v;
  }

  /// Learns from benign calibration: `benign_scores[run][k]` is channel
  /// `channel_names[k]`'s anomaly score on calibration run `run`.  The
  /// default is a no-op (voting needs no calibration).
  virtual void fit(std::span<const std::string> channel_names,
                   const std::vector<std::vector<double>>& benign_scores);
};

/// The historical boolean vote, reproduced exactly: counts latched alarm
/// bits over online channels and applies fused_intrusion().  Scores are
/// reported for telemetry but never influence the verdict.
class VotingPolicy final : public FusionPolicy {
 public:
  explicit VotingPolicy(FusionRule rule) : rule_(rule) {}

  [[nodiscard]] FusionRule rule() const { return rule_; }

  [[nodiscard]] FusionPolicyKind kind() const override {
    return FusionPolicyKind::kVoting;
  }
  [[nodiscard]] std::string name() const override {
    return fusion_rule_name(rule_);
  }
  void evaluate_into(std::span<const ChannelScore> channels,
                     FusedVerdict& out) const override;

 private:
  FusionRule rule_;
};

/// Gain on the continuous margin-refinement term of the weighted fused
/// score (the alarm-vote mass term has unit range).  Trades fault
/// robustness (vote-dominant, low gain) against margin sensitivity
/// (mean-dominant, high gain); 2.0 keeps weighted fusion at or above
/// majority voting's TPR at matched FPR across the bench_ext_fusion
/// fault sweep, where either extreme loses a regime.
inline constexpr double kWeightedRefineGain = 2.0;

/// WeightedPolicy knobs.
struct WeightedPolicyConfig {
  /// Fused score above which the verdict is an intrusion.  With no
  /// alarming channel the score provably stays at or below
  /// kWeightedRefineGain / score_cap (benign scores cannot exceed 1), so
  /// the default can only be crossed once real alarm mass exists.
  double threshold = 0.75;
  /// Multiplier applied to a degraded channel's weight before online
  /// renormalization.
  double degraded_weight = 0.5;
  /// Per-channel scores are clamped to this inside the refinement term,
  /// so one saturated channel cannot single-handedly swamp it.
  double score_cap = 8.0;
  /// Additive floor on the benign-score spread in the reliability weight
  /// denominator (guards division by a zero spread).
  double spread_floor = 0.02;

  /// Throws std::invalid_argument when any field is out of range.
  void validate() const;
};

/// Score fusion with learned per-channel reliability weights.
///
/// fit() learns, from C benign calibration runs:
///   mu_k, sd_k   — mean / spread of channel k's benign scores
///   raw_k        = max(1 - mu_k, 0.05) / (sd_k + spread_floor)
///                  (benign headroom over spread: a channel whose benign
///                  scores sit low and tight is reliable)
///   shrink_k     = 1 + sum_{j != k} max(0, pearson(k, j))
///                  (channels whose benign scores co-move are redundant —
///                  Fig. 10's correlation structure — and must not
///                  double-count)
///   w_k          = raw_k / shrink_k, normalized to sum 1.
///
/// evaluate() excludes offline channels, multiplies degraded channels'
/// weights by degraded_weight and renormalizes over the survivors.  The
/// fused score is a reliability-weighted *soft vote*:
///
///   fused = sum_k w_k [channel k alarms]                 (vote mass)
///         + kWeightedRefineGain * mean_w(min(score, cap)) / cap
///
/// The vote-mass term is the robust backbone: under sensor faults one
/// saturated channel score cannot by itself carry the fusion past the
/// alarm structure, which is exactly what a bare weighted mean gets
/// wrong.  The margin term grades evidence within and between vote
/// levels by how far channels sit from their OCC thresholds, which is
/// where the learned weights buy extra TPR over boolean majority
/// voting.  Untrained policies fuse with uniform weights.
class WeightedPolicy final : public FusionPolicy {
 public:
  explicit WeightedPolicy(WeightedPolicyConfig config = {});
  /// Rebuilds a fitted policy from serialized state (codec restore).
  /// `weights` must be the normalized (name, weight) pairs of a previous
  /// fit(), in the order fit() produced them.
  WeightedPolicy(WeightedPolicyConfig config,
                 std::vector<std::pair<std::string, double>> weights);

  [[nodiscard]] FusionPolicyKind kind() const override {
    return FusionPolicyKind::kWeighted;
  }
  [[nodiscard]] std::string name() const override { return "weighted"; }
  void evaluate_into(std::span<const ChannelScore> channels,
                     FusedVerdict& out) const override;
  /// Requires >= 2 calibration runs (a spread needs two points) and one
  /// score column per channel name; throws std::invalid_argument.
  void fit(std::span<const std::string> channel_names,
           const std::vector<std::vector<double>>& benign_scores) override;

  [[nodiscard]] bool trained() const { return trained_; }
  /// Normalized learned weights (empty until trained).
  [[nodiscard]] const std::vector<std::pair<std::string, double>>& weights()
      const {
    return weights_;
  }
  [[nodiscard]] const WeightedPolicyConfig& config() const { return config_; }

 private:
  WeightedPolicyConfig config_;
  std::vector<std::pair<std::string, double>> weights_;
  bool trained_ = false;
};

/// Verdict of the fused IDS, with the per-channel breakdown.
///
/// Graceful degradation: each channel's validity mask (Analysis::valid)
/// is replayed through the health state machine (core/health.hpp).
/// Channels that end up offline are excluded from the fusion entirely —
/// they neither alarm nor count toward the majority/all denominator (nor
/// the weighted mean) — so a dead sensor cannot veto (kAll) or dilute
/// (kMajority) the surviving channels.  `alarming_channels` counts alarms
/// among *online* channels; the raw per-channel verdicts (including
/// offline ones) stay in `per_channel` for inspection.
struct FusionDetection {
  bool intrusion = false;
  double fused_score = 0.0;           ///< FusedVerdict::score
  std::size_t alarming_channels = 0;  ///< alarming among online channels
  std::size_t online_channels = 0;    ///< channels not classified offline
  std::vector<std::pair<std::string, Detection>> per_channel;
  std::vector<std::pair<std::string, ChannelHealth>> health;
  std::vector<ChannelContribution> contributions;
};

/// An NSYNC IDS per named channel, fused by a FusionPolicy.
///
/// Usage mirrors NsyncIds but with per-channel signal maps (key = channel
/// name, e.g. "ACC"):
///   FusionIds ids(std::make_shared<VotingPolicy>(rule));
///   ids.add_channel("ACC", acc_reference, acc_config);
///   ids.add_channel("AUD", aud_reference, aud_config);
///   ids.fit(training_runs);          // vector of per-channel maps
///   auto d = ids.detect(observed);   // per-channel map
class FusionIds {
 public:
  using SignalMap = std::map<std::string, nsync::signal::Signal>;

  /// Fusion by an explicit policy.  fit() trains the policy (weighted
  /// policies learn their reliability weights from the calibration runs);
  /// throws std::invalid_argument on a null policy.
  explicit FusionIds(std::shared_ptr<FusionPolicy> policy);

  /// Registers a channel with its reference signal and NSYNC config.
  /// Throws if the name is already registered.
  void add_channel(const std::string& name, nsync::signal::Signal reference,
                   const NsyncConfig& config);

  [[nodiscard]] std::size_t channels() const { return members_.size(); }

  /// Trains every member on its channel's training signals, then fits the
  /// policy on the per-channel benign anomaly scores of the same runs.
  /// Each map must contain every registered channel; throws
  /// FusionChannelError otherwise.
  void fit(std::span<const SignalMap> benign_runs);

  /// Detects on one observed process (per-channel signals).
  [[nodiscard]] FusionDetection detect(const SignalMap& observed) const;

  /// Detects from precomputed per-channel analyses (key = channel name).
  /// The map must contain exactly the registered channels: a missing
  /// channel or an unknown extra key throws FusionChannelError naming the
  /// offender.  Lets callers run analyze() themselves — to inspect
  /// validity masks or reuse analyses — and still get the health-aware
  /// fused verdict.
  [[nodiscard]] FusionDetection detect_analyses(
      const std::map<std::string, Analysis>& analyses) const;

  [[nodiscard]] const FusionPolicy& policy() const { return *policy_; }
  /// Access to a member IDS (for thresholds introspection).
  [[nodiscard]] const NsyncIds& member(const std::string& name) const;

 private:
  FusionRule rule_ = FusionRule::kAny;
  std::shared_ptr<FusionPolicy> policy_;
  std::map<std::string, NsyncIds> members_;
};

}  // namespace nsync::core

#endif  // NSYNC_CORE_FUSION_HPP
